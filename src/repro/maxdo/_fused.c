/* Native kernels: the batched docking engine's fused pairwise kernels and
 * the result-text ingest's fixed-column reader.
 *
 * Compiled on demand by repro.maxdo._fused (plain `cc -O3 -shared`); the
 * batched numpy kernels in repro.maxdo.energy fall back to pure numpy, and
 * repro.store.convert to an integer np.loadtxt, when no compiler is
 * available, so this file is an accelerator, never a dependency.
 *
 * CONTRACT (docking): every arithmetic expression below reproduces,
 * operation for operation and in the same association, the scalar numpy
 * kernels `pair_energies` / `energy_and_bead_gradient` in
 * repro/maxdo/energy.py.
 * All operations used here (+,-,*,/ and sqrt) are IEEE-754 correctly
 * rounded, so identical association means bit-identical doubles; the one
 * transcendental (exp) is NOT correctly rounded and therefore stays on the
 * numpy side: phase A emits the exp *argument*, the caller applies
 * np.exp, and the later phases receive the screened values back.  That is
 * what lets the batched minimizer retrace the reference trajectories
 * exactly instead of diverging chaotically on the rugged LJ landscape.
 *
 * Keep -ffp-contract=off in the build flags: a fused multiply-add rounds
 * once where the numpy kernels round twice.  Loops are split into
 * elementwise passes (auto-vectorizable: independent lanes, correctly
 * rounded per element) and sequential reduction passes (the bead-gradient
 * accumulation order over receptor beads is part of the parity contract,
 * so it must NOT be reassociated/vectorized).
 *
 * CONTRACT (ingest): maxdo_fixed_codes is integer-exact, so its contract
 * is not IEEE parity but a token rule: it accepts a field exactly when the
 * integer np.loadtxt of repro.store.convert accepts it, and reads the
 * same int64.
 */

#include <stdint.h>
#include <stdlib.h>

/* Copy (n, 3) interleaved receptor coordinates into planar x/y/z rows so
 * the hot loops read contiguously.  Returns a malloc'd 3*n block. */
static double *planar_rec(const double *rec, long n)
{
    double *buf = (double *)malloc((size_t)(3 * n) * sizeof(double));
    if (!buf)
        return 0;
    for (long i = 0; i < n; ++i) {
        buf[i] = rec[3 * i];
        buf[n + i] = rec[3 * i + 1];
        buf[2 * n + i] = rec[3 * i + 2];
    }
    return buf;
}

/* Phase A: softened squared distances and the Debye exp argument.
 *
 * coords: (B, m, 3) posed ligand beads, rec: (n, 3) receptor beads.
 * Writes r2[b,j,i] = ((dx*dx + dy*dy) + dz*dz) + soft2   (numpy:
 * (delta**2).sum(axis=-1) + soft2) and targ[b,j,i] = (-sqrt(r2)) / lam
 * (numpy: -r / lam).
 */
void maxdo_phase_a(const double *coords, const double *rec,
                   long n_poses, long m, long n,
                   double soft2, double lam,
                   double *restrict r2, double *restrict targ)
{
    double *planar = planar_rec(rec, n);
    const double *rx = planar, *ry = planar + n, *rz = planar + 2 * n;
    for (long row = 0; row < n_poses * m; ++row) {
        const double *cb = coords + row * 3;
        const double bx = cb[0], by = cb[1], bz = cb[2];
        double *restrict r2row = r2 + row * n;
        double *restrict trow = targ + row * n;
        for (long i = 0; i < n; ++i) {
            const double dx = bx - rx[i];
            const double dy = by - ry[i];
            const double dz = bz - rz[i];
            const double v = ((dx * dx + dy * dy) + dz * dz) + soft2;
            r2row[i] = v;
            trow[i] = (-__builtin_sqrt(v)) / lam;
        }
    }
    free(planar);
}

/* Phase B (gradient path): per-pair LJ/electrostatic energies and the
 * per-bead gradient, given phase-A distances and numpy-screened exps.
 *
 * Emits the full e_lj / e_el pair arrays so the caller can reduce them
 * with numpy's pairwise summation (summation order is part of the
 * bit-parity contract); the bead gradient reduction over receptor beads
 * is sequential, matching numpy's non-last-axis add.reduce.
 */
void maxdo_phase_grad(const double *coords, const double *rec,
                      const double *r2, const double *screen,
                      const double *sigma2, const double *eps_lj,
                      const double *q_coef,
                      long n_poses, long m, long n, double lam,
                      double *restrict e_lj, double *restrict e_el,
                      double *restrict bead_grad)
{
    const double inv_lam = 1.0 / lam;
    double *planar = planar_rec(rec, n);
    const double *rx = planar, *ry = planar + n, *rz = planar + 2 * n;
    double *coeff = (double *)malloc((size_t)n * sizeof(double));
    for (long row = 0; row < n_poses * m; ++row) {
        const long j = row % m;
        const double *cb = coords + row * 3;
        const double bx = cb[0], by = cb[1], bz = cb[2];
        const double *r2row = r2 + row * n;
        const double *srow = screen + row * n;
        const double *sig = sigma2 + j * n;
        const double *eps = eps_lj + j * n;
        const double *qc = q_coef + j * n;
        double *restrict ljrow = e_lj + row * n;
        double *restrict elrow = e_el + row * n;
        /* Elementwise pass: independent lanes, safe to vectorize. */
        for (long i = 0; i < n; ++i) {
            const double r2v = r2row[i];
            const double rv = __builtin_sqrt(r2v);
            const double s2 = sig[i] / r2v;
            const double s6 = (s2 * s2) * s2;
            const double s12 = s6 * s6;
            ljrow[i] = eps[i] * (s12 - 2.0 * s6);
            const double dlj = (eps[i] * 6.0) * (s6 - s12) / r2v;
            const double eel = qc[i] * srow[i] / rv;
            elrow[i] = eel;
            const double del =
                (-eel) * ((1.0 / rv) + inv_lam) / (2.0 * rv);
            coeff[i] = 2.0 * (dlj + del);
        }
        /* Reduction pass: sequential by contract (numpy accumulation
         * order); three independent chains pipeline well regardless. */
        double gx = 0.0, gy = 0.0, gz = 0.0;
        for (long i = 0; i < n; ++i) {
            gx += coeff[i] * (bx - rx[i]);
            gy += coeff[i] * (by - ry[i]);
            gz += coeff[i] * (bz - rz[i]);
        }
        bead_grad[row * 3] = gx;
        bead_grad[row * 3 + 1] = gy;
        bead_grad[row * 3 + 2] = gz;
    }
    free(coeff);
    free(planar);
}

/* Phase B (energy-only path): pair arrays for batch_interaction_energy.
 * e_lj holds the *unscaled* well-depth products (eps_geom), mirroring
 * pair_energies, which applies lj_scale after the pairwise sum.
 */
void maxdo_phase_energy(const double *r2, const double *screen,
                        const double *sigma2, const double *eps_geom,
                        const double *q_coef,
                        long n_poses, long m, long n,
                        double *restrict e_lj, double *restrict e_el)
{
    for (long row = 0; row < n_poses * m; ++row) {
        const long j = row % m;
        const double *r2row = r2 + row * n;
        const double *srow = screen + row * n;
        const double *sig = sigma2 + j * n;
        const double *eps = eps_geom + j * n;
        const double *qc = q_coef + j * n;
        double *restrict ljrow = e_lj + row * n;
        double *restrict elrow = e_el + row * n;
        for (long i = 0; i < n; ++i) {
            const double r2v = r2row[i];
            const double rv = __builtin_sqrt(r2v);
            const double s2 = sig[i] / r2v;
            const double s6 = (s2 * s2) * s2;
            ljrow[i] = eps[i] * (s6 * s6 - 2.0 * s6);
            elrow[i] = qc[i] * srow[i] / rv;
        }
    }
}

/* Fixed-column reader: the store codes of a canonical result data block.
 *
 * lines: (n, width) text bytes whose separators and dots the caller has
 * checked.  Field k spans columns [start[k], end[k]) with its decimal
 * point, skipped, at dot[k] (-1 for an integer field).  Writes each field,
 * read as one integer, to codes[row * n_fields + k] and returns 0; returns
 * 1 as soon as a field is not ` *-?[0-9]+` once its dot is skipped.  A
 * field holds at most 18 digits, so no code overflows.  Allocates nothing.
 */
int maxdo_fixed_codes(const unsigned char *lines, long n, long width,
                      const int64_t *start, const int64_t *end,
                      const int64_t *dot, long n_fields,
                      int64_t *restrict codes)
{
    for (long row = 0; row < n; ++row) {
        const unsigned char *line = lines + row * width;
        for (long k = 0; k < n_fields; ++k) {
            const unsigned char *c = line + start[k], *e = line + end[k];
            const unsigned char *skip = dot[k] < 0 ? e : line + dot[k];
            while (c < e && (*c == ' ' || c == skip))
                ++c;
            const int neg = c < e && *c == '-';
            int64_t v = 0;
            long n_digits = 0;
            for (c += neg; c < e; ++c) {
                const unsigned d = (unsigned)*c - '0';
                if (c == skip)
                    continue;
                if (d > 9)
                    return 1;
                v = 10 * v + d;
                ++n_digits;
            }
            if (!n_digits)
                return 1;
            codes[row * n_fields + k] = neg ? -v : v;
        }
    }
    return 0;
}
