/* Native kernels: the batched docking engine's fused pairwise kernels,
 * the result-text ingest's fixed-column reader and the store's CRC-32.
 *
 * Compiled on demand by repro.maxdo._fused (plain `cc -O3 -shared`); the
 * batched numpy kernels in repro.maxdo.energy fall back to pure numpy,
 * repro.store.convert to an integer np.loadtxt and repro.store.format to
 * zlib.crc32 when no compiler is available, so this file is an
 * accelerator, never a dependency.
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
 *
 * CONTRACT (store): maxdo_crc32 returns zlib.crc32(buf, crc) bit for bit;
 * it exists only where the target has PCLMULQDQ and SSE4.1, and
 * repro.store.format falls back to zlib.crc32 where it does not.
 *
 * CONTRACT (check): maxdo_check_codes reaches the verdicts
 * ValueRanges.violations reaches over the segment's decoded columns.  A
 * value is (double)code / scale, the IEEE operation numpy's raw / scale
 * performs, and the sentinel codes at the bottom of a column's range
 * decode as repro.store.format._decode_column maps them; a NaN anywhere
 * in a rule's values leaves that rule unviolated, as numpy's NaN-
 * propagating max compared against a bound does.
 */

#include <math.h>
#include <stddef.h>
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
 * read as one integer, to codes[k * n + row] (a row per field) and returns
 * 0; returns 1 as soon as a field is not ` *-?[0-9]+` once its dot is
 * skipped.  At most 18 digits a field: no code overflows.  Allocates nothing.
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
            codes[k * n + row] = neg ? -v : v;
        }
    }
    return 0;
}

/* Range check: the ValueRanges rules over one segment's packed codes.
 *
 * The store's fixed-point scales come as arguments, from
 * repro.store.format._SCALES.  The four lowest codes of a column are NaN,
 * +inf, -inf and -0.0 (format._SENTINEL_*); codes are only ever compared
 * with lo + k, never offset by lo (a positive int64 code minus INT64_MIN
 * overflows).  Returns the violated rules as bits, in violations' order:
 * 1 non-finite values, 2 coordinate out of range, 4 energy out of range,
 * 8 non-positive indices, 16 energy sum mismatch.
 */
#define CHECK_NON_FINITE 1
#define CHECK_COORD 2
#define CHECK_ENERGY 4
#define CHECK_INDEX 8
#define CHECK_SUM 16

/* A code's value as repro.store.format._decode_column decodes it. */
static double decode(int64_t code, int64_t lo, double scale)
{
    if (code >= lo + 4)
        return (double)code / scale;
    if (code == lo)
        return NAN;
    if (code == lo + 1)
        return INFINITY;
    return code == lo + 2 ? -INFINITY : -0.0;
}

/* The rules again, value by value, for a segment holding a sentinel: a
 * rule a NaN reaches is not violated, whatever else its values hold. */
static int check_exact(const int32_t *const coords[3],
                       const int64_t *const energies[3], long n,
                       double coord_scale, double energy_scale,
                       double max_coord, double max_energy, double tol)
{
    int non_finite = 0, nan[3] = {0, 0, 0}, over[3] = {0, 0, 0};
    for (long i = 0; i < n; ++i) {
        double e[3];
        for (int k = 0; k < 3; ++k) {
            const double v = decode(coords[k][i], INT32_MIN, coord_scale);
            non_finite |= !isfinite(v);
            nan[0] |= isnan(v);
            over[0] |= fabs(v) > max_coord;
            e[k] = decode(energies[k][i], INT64_MIN, energy_scale);
            non_finite |= !isfinite(e[k]);
            nan[1] |= isnan(e[k]);
            over[1] |= fabs(e[k]) > max_energy;
        }
        const double mismatch = fabs(e[2] - (e[0] + e[1]));
        nan[2] |= isnan(mismatch);
        over[2] |= mismatch > tol;
    }
    return (non_finite ? CHECK_NON_FINITE : 0)
           | (over[0] && !nan[0] ? CHECK_COORD : 0)
           | (over[1] && !nan[1] ? CHECK_ENERGY : 0)
           | (over[2] && !nan[2] ? CHECK_SUM : 0);
}

int maxdo_check_codes(const int32_t *isep, const int16_t *irot,
                      const int16_t *igamma, const int32_t *x,
                      const int32_t *y, const int32_t *z,
                      const int64_t *e_lj, const int64_t *e_elec,
                      const int64_t *e_tot, long n, double coord_scale,
                      double energy_scale, double max_coord,
                      double max_energy, double tol)
{
    /* One pass, every lane independent and every verdict an OR
     * reduction: the loop vectorizes, and branches on nothing. */
    int index = 0, sentinel = 0, coord = 0, energy = 0, sum = 0;
    for (long i = 0; i < n; ++i) {
        index |= (isep[i] < 1) | (irot[i] < 1) | (igamma[i] < 1);
        sentinel |= (x[i] < INT32_MIN + 4) | (y[i] < INT32_MIN + 4)
                    | (z[i] < INT32_MIN + 4) | (e_lj[i] < INT64_MIN + 4)
                    | (e_elec[i] < INT64_MIN + 4) | (e_tot[i] < INT64_MIN + 4);
        const double vx = (double)x[i] / coord_scale;
        const double vy = (double)y[i] / coord_scale;
        const double vz = (double)z[i] / coord_scale;
        coord |= (fabs(vx) > max_coord) | (fabs(vy) > max_coord)
                 | (fabs(vz) > max_coord);
        const double lj = (double)e_lj[i] / energy_scale;
        const double el = (double)e_elec[i] / energy_scale;
        const double tot = (double)e_tot[i] / energy_scale;
        energy |= (fabs(lj) > max_energy) | (fabs(el) > max_energy)
                  | (fabs(tot) > max_energy);
        sum |= fabs(tot - (lj + el)) > tol;
    }
    const int bits = index ? CHECK_INDEX : 0;
    if (sentinel) {  /* the values above are wrong for a sentinel code */
        const int32_t *const coords[3] = {x, y, z};
        const int64_t *const energies[3] = {e_lj, e_elec, e_tot};
        return bits | check_exact(coords, energies, n, coord_scale,
                                  energy_scale, max_coord, max_energy, tol);
    }
    return bits | (coord ? CHECK_COORD : 0) | (energy ? CHECK_ENERGY : 0)
           | (sum ? CHECK_SUM : 0);
}

#if defined(__PCLMUL__) && defined(__SSE4_1__)
#include <immintrin.h>

/* CRC-32 (zlib's: reflected polynomial 0xEDB88320, pre- and post-inverted)
 * of len bytes at buf, continuing crc.  Folds four 128-bit lanes with
 * carry-less multiplies, reduces them to one, then to 32 bits by Barrett
 * reduction (Gopal et al., "Fast CRC Computation for Generic Polynomials
 * Using PCLMULQDQ Instruction", Intel, 2009: the bit-reflected constants
 * of its appendix); the last len % 16 bytes go bit by bit.
 */
uint32_t maxdo_crc32(const unsigned char *buf, size_t len, uint32_t crc)
{
    uint32_t c = ~crc;
    if (len >= 64) {
        const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
        const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
        const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
        const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
        const __m128i lo32 = _mm_setr_epi32(~0, 0, ~0, 0);
        __m128i x[4], t;
        for (int i = 0; i < 4; ++i)
            x[i] = _mm_loadu_si128((const __m128i *)(buf + 16 * i));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128((int)c));
        for (buf += 64, len -= 64; len >= 64; buf += 64, len -= 64)
            for (int i = 0; i < 4; ++i) {
                t = _mm_clmulepi64_si128(x[i], k1k2, 0x00);
                x[i] = _mm_clmulepi64_si128(x[i], k1k2, 0x11);
                x[i] = _mm_xor_si128(_mm_xor_si128(x[i], t),
                                     _mm_loadu_si128((const __m128i *)(buf + 16 * i)));
            }
        for (int i = 1; i < 4; ++i) {
            t = _mm_clmulepi64_si128(x[0], k3k4, 0x00);
            x[0] = _mm_clmulepi64_si128(x[0], k3k4, 0x11);
            x[0] = _mm_xor_si128(_mm_xor_si128(x[0], t), x[i]);
        }
        for (; len >= 16; buf += 16, len -= 16) {
            t = _mm_clmulepi64_si128(x[0], k3k4, 0x00);
            x[0] = _mm_clmulepi64_si128(x[0], k3k4, 0x11);
            x[0] = _mm_xor_si128(_mm_xor_si128(x[0], t),
                                 _mm_loadu_si128((const __m128i *)buf));
        }
        t = _mm_clmulepi64_si128(x[0], k3k4, 0x10);  /* 128 -> 64 bits */
        x[0] = _mm_xor_si128(_mm_srli_si128(x[0], 8), t);
        t = _mm_srli_si128(x[0], 4);
        x[0] = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x[0], lo32), k5, 0x00), t);
        t = _mm_clmulepi64_si128(_mm_and_si128(x[0], lo32), poly, 0x10);  /* Barrett */
        t = _mm_clmulepi64_si128(_mm_and_si128(t, lo32), poly, 0x00);
        c = (uint32_t)_mm_extract_epi32(_mm_xor_si128(x[0], t), 1);
    }
    while (len--) {
        c ^= *buf++;
        for (int k = 0; k < 8; ++k)
            c = (c >> 1) ^ (0xEDB88320u & -(c & 1u));
    }
    return ~c;
}
#endif
