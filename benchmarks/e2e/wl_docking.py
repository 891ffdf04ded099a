"""docking_workunit: a volunteer executing MAXDo workunits."""

from __future__ import annotations

import hashlib
import shutil

import numpy as np

from repro.maxdo import _fused
from repro.maxdo.docking import MaxDoRun, dock_couple
from repro.maxdo.orientations import N_COUPLES, N_GAMMA
from repro.proteins.model import synthesize_protein
from repro.rng import substream
from repro.store import check_store, read_store

from wl_base import Workload, median_wall


class DockingWorkunit(Workload):
    """One workunit per pass, cycling over a seeded panel of couples.

    Minimisation cost depends on the couple (iterations to converge
    differ by ~8% between couples), so a run reports the median over a
    panel, which is a property of the kernels and not of one lucky
    protein pair; cycling gives every couple a few passes, of which the
    harness keeps the fastest.
    """

    def setup(self) -> None:
        p = self.params
        self._poses = p["nsep"] * N_COUPLES * N_GAMMA
        with self.rec.span("maxdo.warmup"):
            # Loads the fused C kernels (compiling them on the first run in
            # a checkout); discarded, so no pass pays for the compiler.
            # ``_fused`` is private, but it is the only place that says
            # which kernel set ran, and two runs that differ there are not
            # comparable.
            self._fused = int(_fused.load() is not None)
            dock_couple(*self._couple(0), nsep=1, total_nsep=1, n_couples=1, n_gamma=1)
        self._walked = {False: 0, True: 0}
        self._digests: list[str] = []
        self._problems: list[str] = []
        self._bad_poses = 0

    def _couple(self, index: int):
        rng = substream(self.params["panel_seed"], "bench-e2e-docking", index)
        beads = self.params["beads"]
        return (
            synthesize_protein(f"rec{index:03d}", beads, rng),
            synthesize_protein(f"lig{index:03d}", beads, rng),
        )

    def _workunit(self, receptor, ligand, workdir):
        nsep = self.params["nsep"]
        run = MaxDoRun(
            receptor, ligand, 1, nsep, nsep, workdir, result_format="columnar"
        )
        run.run()
        return run.finalize()

    def run_pass(self, traced: bool) -> dict:
        # untraced and traced passes walk the panel independently, so a
        # traced run measures every couple both ways
        index = self._walked[traced] % self.params["panel"]
        self._walked[traced] += 1
        receptor, ligand = self._couple(index)
        workdir = self.scratch / f"wu-{self.n_passes}"

        def job():
            with self.rec.span("maxdo.run"):
                return self._workunit(receptor, ligand, workdir)

        path, out = self.timed(traced, job, input=index)
        store = read_store(path)
        e_tot = store.segments[0].column("e_tot")
        bad = int((~np.isfinite(e_tot)).sum())
        self._bad_poses += bad
        if not check_store(store).ok:
            self._problems.append(f"{path.name}: output fails check_store")
        self._digests.append(
            hashlib.sha256(store.segments[0].packed.tobytes()).hexdigest()
        )
        shutil.rmtree(workdir)
        out.update(units=self._poses, attempted=self._poses, failed=bad)
        if traced:
            out["layers"] = {"maxdo.poses": self._poses}
        return out

    def outcome(self) -> dict:
        return {"digest": {str(self._fused): self._digests[0]}}

    def verify(self, golden: dict | None) -> list[str]:
        problems = list(self._problems)
        if self._bad_poses:
            problems.append(f"{self._bad_poses} poses with non-finite energy")
        pinned = (golden or {}).get("digest", {}).get(str(self._fused))
        if pinned is not None and pinned != self._digests[0]:
            problems.append(
                f"energy digest {self._digests[0][:16]} != pinned {pinned[:16]} "
                f"(fused_kernels={self._fused})"
            )
        return problems

    def layers(self, untraced_wall_s: float) -> dict:
        """``dock_couple`` on the first couple, with and without the
        minimiser, against ``MaxDoRun`` on the same couple."""
        receptor, ligand = self._couple(0)
        nsep = self.params["nsep"]

        def dock(minimize: bool):
            return lambda: dock_couple(
                receptor, ligand, nsep=nsep, total_nsep=nsep, minimize=minimize
            )

        workdir = self.scratch / "wu-layers"

        def workunit():
            self._workunit(receptor, ligand, workdir)
            shutil.rmtree(workdir)

        _, full_s = median_wall(dock(True))
        _, energy_s = median_wall(dock(False))
        _, run_s = median_wall(workunit)
        return {
            "maxdo.energy_only_s": energy_s,
            "maxdo.minimize_s": full_s - energy_s,
            "maxdo.run_overhead_s": run_s - full_s,
            "maxdo.fused_kernels": self._fused,
        }


WORKLOADS = {"docking_workunit": DockingWorkunit}
