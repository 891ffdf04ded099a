"""The MAXDo driver: energy maps over starting positions and orientations.

``dock_couple`` computes the interaction-energy map of one (receptor,
ligand) couple over a slice of starting positions — the computational
content of one workunit.  ``MaxDoRun`` wraps it with the volunteer-facing
machinery: an incremental partial store, checkpoint-restart between starting
positions, and interruption (the agent can stop the run at any position
boundary, or kill it mid-position and lose the uncommitted tail).

Observability: ``dock_position``, ``dock_couple`` and ``MaxDoRun`` take
a ``tracer=`` (default ``None``: untraced) and emit ``docking.*`` events
through it — the engine announcement, lockstep-batch convergence rounds,
process-pool fan-out and per-position completion.  Pool workers are
handed no tracer; the fan-out is traced in the parent.  See
docs/observability.md.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..proteins.model import ReducedProtein
from ..proteins.surface import starting_positions
from ..store.convert import segment_to_text
from ..store.format import (
    PACKED_DTYPE, ColumnarSegment, StoreWriter, iter_segments, rollback_partial_store,
    write_store,
)
from .checkpoint import Checkpoint
from .energy import EnergyParams, batch_interaction_energy
from .minimize import minimize_rigid_batch, scipy_lbfgsb
from .orientations import (
    N_COUPLES,
    N_GAMMA,
    gamma_values,
    orientation_couples,
)
from .pairtable import pair_table
from .resultfile import RESULT_DTYPE, ResultHeader, render_lines

__all__ = ["DockingResult", "dock_position", "dock_couple", "MaxDoRun"]


def ligand_start_positions(
    receptor_positions: np.ndarray, ligand: ReducedProtein
) -> np.ndarray:
    """Offset surface anchor points by the ligand's own radius.

    Starting positions enumerate anchors just outside the *receptor*
    envelope; the ligand's mass center must additionally clear the
    ligand's extent, so each anchor is pushed outward radially.
    """
    positions = np.asarray(receptor_positions, dtype=np.float64)
    norms = np.linalg.norm(positions, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError(
            "starting-position anchor at the origin: a zero-norm anchor has "
            "no outward radial direction to offset the ligand along"
        )
    return positions * (1.0 + ligand.bounding_radius / norms)


def _best_of_gamma_records(
    isep_start: int,
    e_lj: np.ndarray,
    e_elec: np.ndarray,
    positions: np.ndarray,
    eulers: np.ndarray,
) -> np.ndarray:
    """Reduce an energy map indexed ``[position, couple, gamma]`` to result
    records: one row per (position, orientation couple), keeping the
    best-of-gamma optimum (``igamma`` marks the winning spin)."""
    n_pos, n_cpl, _ = e_lj.shape
    best = (e_lj + e_elec).argmin(axis=2)
    p, c = np.indices((n_pos, n_cpl))
    records = np.zeros(n_pos * n_cpl, dtype=RESULT_DTYPE)
    records["isep"] = (isep_start + p).ravel()
    records["irot"] = (c + 1).ravel()
    records["igamma"] = (best + 1).ravel()
    records["x"], records["y"], records["z"] = positions[p, c, best].reshape(-1, 3).T
    records["alpha"], records["beta"], records["gamma"] = (
        eulers[p, c, best].reshape(-1, 3).T
    )
    records["e_lj"] = e_lj[p, c, best].ravel()
    records["e_elec"] = e_elec[p, c, best].ravel()
    records["e_tot"] = records["e_lj"] + records["e_elec"]
    return records


@dataclass
class DockingResult:
    """Energy map for a slice of starting positions.

    Arrays are indexed ``[position, couple, gamma]``.
    """

    receptor: str
    ligand: str
    isep_start: int
    e_lj: np.ndarray
    e_elec: np.ndarray
    positions: np.ndarray  #: final mass-center positions, same shape + (3,)
    eulers: np.ndarray  #: final ZYZ angles, same shape + (3,)

    @property
    def e_total(self) -> np.ndarray:
        return self.e_lj + self.e_elec

    @property
    def nsep(self) -> int:
        return self.e_lj.shape[0]

    def best(self) -> tuple[int, int, int]:
        """Index (position, couple, gamma) of the strongest interaction."""
        flat = int(np.argmin(self.e_total))
        return np.unravel_index(flat, self.e_total.shape)  # type: ignore[return-value]

    def to_lines(self) -> list[str]:
        """Render as result-file data lines: one per (position, orientation
        couple), keeping the best-of-gamma optimum (igamma marks the winning
        spin)."""
        return render_lines(
            _best_of_gamma_records(
                self.isep_start, self.e_lj, self.e_elec,
                self.positions, self.eulers,
            )
        )


def dock_position(
    receptor: ReducedProtein,
    ligand: ReducedProtein,
    position: np.ndarray,
    couples: np.ndarray,
    gammas: np.ndarray,
    minimize: bool = True,
    max_iterations: int = 60,
    energy_params: EnergyParams | None = None,
    tracer=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Dock one starting position over all orientations.

    Returns ``(e_lj, e_elec, final_positions, final_eulers)`` with leading
    shape ``(n_couples, n_gamma)``.  With ``minimize=False`` the energies
    are evaluated at the starting pose only (cheap mode used by tests and
    large sweeps).  All ``n_couples * n_gamma`` orientations run through
    the pose-vectorized kernels in one lockstep minimization; the results
    are bit-identical to one scalar ``minimize_rigid`` call per orientation
    (``tests/oracles/docking.py``).  ``tracer`` records the minimization
    as one ``docking.batch`` event.
    """
    n_cpl, n_gam = len(couples), len(gammas)
    position = np.asarray(position, dtype=np.float64)

    # (couple, gamma) row-major, the order the result lines are written in.
    eulers = np.empty((n_cpl * n_gam, 3))
    eulers[:, :2] = np.repeat(np.asarray(couples, dtype=np.float64), n_gam, axis=0)
    eulers[:, 2] = np.tile(np.asarray(gammas, dtype=np.float64), n_cpl)
    translations = np.tile(position, (n_cpl * n_gam, 1))
    if minimize:
        batch = minimize_rigid_batch(
            receptor, ligand, translations, eulers,
            max_iterations=max_iterations, energy_params=energy_params,
        )
        if tracer is not None:
            tracer.emit(
                "docking.batch",
                n_poses=len(batch), rounds=batch.n_iterations,
                evaluations=batch.n_evaluations,
                converged=int(np.count_nonzero(batch.converged)),
            )
        return (
            batch.energy_lj.reshape(n_cpl, n_gam),
            batch.energy_elec.reshape(n_cpl, n_gam),
            batch.translations.reshape(n_cpl, n_gam, 3),
            batch.eulers.reshape(n_cpl, n_gam, 3),
        )
    table = pair_table(receptor, ligand, energy_params)
    poses = np.concatenate([translations, eulers], axis=1)
    lj, el = batch_interaction_energy(table, poses)
    return (
        lj.reshape(n_cpl, n_gam),
        el.reshape(n_cpl, n_gam),
        translations.reshape(n_cpl, n_gam, 3),
        eulers.reshape(n_cpl, n_gam, 3).copy(),
    )


def _dock_position_task(args: tuple) -> tuple[np.ndarray, ...]:
    """Module-level worker for the process-pool fan-out (must pickle)."""
    (
        receptor, ligand, position, couples, gammas,
        minimize, max_iterations, energy_params,
    ) = args
    return dock_position(
        receptor, ligand, position, couples, gammas, minimize,
        max_iterations, energy_params=energy_params,
    )


def dock_couple(
    receptor: ReducedProtein,
    ligand: ReducedProtein,
    isep_start: int = 1,
    nsep: int | None = None,
    total_nsep: int | None = None,
    n_couples: int = N_COUPLES,
    n_gamma: int = N_GAMMA,
    minimize: bool = True,
    max_iterations: int = 60,
    energy_params: EnergyParams | None = None,
    n_workers: int | None = None,
    tracer=None,
) -> DockingResult:
    """Compute the energy map of one couple over an isep slice.

    ``total_nsep`` is the receptor's full starting-position count (defaults
    to the slice size); the slice ``[isep_start, isep_start + nsep)`` is cut
    from that full enumeration, so a couple sliced across several workunits
    evaluates exactly the same physical positions as a single big run.

    ``n_workers`` fans the starting positions — the paper's natural
    checkpoint/packaging granularity — out over a process pool.  Results
    are merged back in position order, so the returned map is bit-identical
    for every worker count (each position's computation is deterministic
    and self-contained).  ``tracer`` records ``docking.*`` events; the
    workers are handed none, so a fanned-out run records the engine and
    the fan-out only.
    """
    if isep_start < 1:
        raise ValueError(f"isep_start is 1-based, got {isep_start}")
    if n_workers is not None and n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if total_nsep is None:
        total_nsep = (nsep or 1) + isep_start - 1
    if nsep is None:
        nsep = total_nsep - isep_start + 1
    if isep_start + nsep - 1 > total_nsep:
        raise ValueError(
            f"slice [{isep_start}, {isep_start + nsep - 1}] exceeds "
            f"total_nsep={total_nsep}"
        )
    all_positions = ligand_start_positions(
        starting_positions(receptor, total_nsep), ligand
    )
    couples = orientation_couples(n_couples)
    gammas = gamma_values(n_gamma)

    if tracer is not None:
        tracer.emit(
            "docking.engine",
            engine="batched", receptor=receptor.name, ligand=ligand.name,
            isep_start=isep_start, nsep=nsep, minimize=minimize,
            n_workers=n_workers if n_workers is not None else 1,
        )

    shape = (nsep, n_couples, n_gamma)
    result = DockingResult(
        receptor=receptor.name,
        ligand=ligand.name,
        isep_start=isep_start,
        e_lj=np.empty(shape),
        e_elec=np.empty(shape),
        positions=np.empty(shape + (3,)),
        eulers=np.empty(shape + (3,)),
    )
    if n_workers is not None and n_workers > 1 and nsep > 1:
        tasks = [
            (
                receptor, ligand, all_positions[isep_start - 1 + p],
                couples, gammas, minimize, max_iterations, energy_params,
            )
            for p in range(nsep)
        ]
        if tracer is not None:
            tracer.emit(
                "docking.fanout",
                n_workers=min(n_workers, nsep), n_tasks=nsep,
                receptor=receptor.name, ligand=ligand.name,
            )
        if minimize:
            # import scipy.optimize once, here: forked workers inherit it
            scipy_lbfgsb()
        with ProcessPoolExecutor(max_workers=min(n_workers, nsep)) as pool:
            # submit order == position order: the enumerate below is the
            # deterministic ordered merge, whatever order workers finish in.
            for p, (lj, el, fpos, feul) in enumerate(
                pool.map(_dock_position_task, tasks)
            ):
                result.e_lj[p], result.e_elec[p] = lj, el
                result.positions[p], result.eulers[p] = fpos, feul
        return result

    for p in range(nsep):
        pos = all_positions[isep_start - 1 + p]
        lj, el, fpos, feul = dock_position(
            receptor, ligand, pos, couples, gammas, minimize, max_iterations,
            energy_params=energy_params, tracer=tracer,
        )
        result.e_lj[p], result.e_elec[p] = lj, el
        result.positions[p], result.eulers[p] = fpos, feul
        if tracer is not None:
            tracer.emit(
                "docking.position",
                isep=isep_start + p, receptor=receptor.name,
                ligand=ligand.name,
            )
    return result


#: per MaxDoRun result format: the final file's suffix and its writer
_FINAL_OUTPUT = {
    "text": (".result", segment_to_text),
    "columnar": (".result.rcs", lambda segment, path: write_store(path, [segment])),
}


class MaxDoRun:
    """A checkpointed MAXDo workunit execution.

    Mirrors the agent-visible behaviour: results stream to a partial store
    (``<stem>.partial.rcs``, one segment per starting position), a
    checkpoint is committed after every position, and the run can be
    stopped (`max_positions`) and later resumed from disk, where a killed
    run's uncommitted tail is first rolled back.

    Parameters
    ----------
    workdir:
        Directory for the partial result file and checkpoint.
    minimize:
        Full minimization (True) or starting-pose evaluation only.
    result_format:
        What :meth:`finalize` writes: ``"text"`` (default) the paper's
        line-oriented ``.result`` file, ``"columnar"`` a one-segment
        ``.result.rcs`` store.  Converting the columnar output to text
        reproduces the text output byte for byte.
    tracer:
        Structured event tracer for the ``docking.*`` channel, or ``None``
        (the default) for an untraced run; each position's minimization is
        recorded as a ``docking.batch`` event.
    """

    def __init__(
        self,
        receptor: ReducedProtein,
        ligand: ReducedProtein,
        isep_start: int,
        nsep: int,
        total_nsep: int,
        workdir: Path | str,
        n_couples: int = N_COUPLES,
        n_gamma: int = N_GAMMA,
        minimize: bool = True,
        max_iterations: int = 60,
        result_format: str = "text",
        tracer=None,
    ) -> None:
        if result_format not in _FINAL_OUTPUT:
            raise ValueError(
                f"result_format must be one of {tuple(_FINAL_OUTPUT)}, "
                f"got {result_format!r}"
            )
        self.receptor = receptor
        self.ligand = ligand
        self.isep_start = isep_start
        self.nsep = nsep
        self.total_nsep = total_nsep
        self.n_couples = n_couples
        self.n_gamma = n_gamma
        self.minimize = minimize
        self.max_iterations = max_iterations
        self.result_format = result_format
        self.tracer = tracer
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._header = ResultHeader(
            receptor=receptor.name,
            ligand=ligand.name,
            isep_start=isep_start,
            nsep=nsep,
            n_couples=n_couples,
            n_gamma=n_gamma,
        )

    def _path(self, suffix: str) -> Path:
        stem = f"{self.receptor.name}_{self.ligand.name}_{self.isep_start}"
        return self.workdir / f"{stem}{suffix}"

    @property
    def partial_path(self) -> Path:
        return self._path(".partial.rcs")

    @property
    def checkpoint_path(self) -> Path:
        return self._path(".ckpt")

    def _load_state(self) -> Checkpoint:
        if self.checkpoint_path.exists():
            ckpt = Checkpoint.load(self.checkpoint_path)
            # A kill mid-position leaves uncommitted rows: roll them back.
            rollback_partial_store(self.partial_path, ckpt.lines_committed)
            return ckpt
        ckpt = Checkpoint(**asdict(self._header), positions_done=0)
        write_store(self.partial_path, [])
        ckpt.save(self.checkpoint_path)
        return ckpt

    def run(self, max_positions: int | None = None) -> Checkpoint:
        """(Re)start the workunit; stop after ``max_positions`` positions.

        Returns the checkpoint reached.  Call again (without
        ``max_positions``) to run to completion — resumption picks up from
        the last committed starting position, as in the paper.
        """
        ckpt = self._load_state()
        couples = orientation_couples(self.n_couples)
        gammas = gamma_values(self.n_gamma)
        all_positions = ligand_start_positions(
            starting_positions(self.receptor, self.total_nsep), self.ligand
        )
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(
                "docking.engine",
                engine="batched", receptor=self.receptor.name,
                ligand=self.ligand.name, isep_start=self.isep_start,
                nsep=self.nsep, resume_from=ckpt.positions_done,
                minimize=self.minimize, n_workers=1,
            )
        done_now = 0
        with StoreWriter(self.partial_path) as sink:
            while not ckpt.complete:
                if max_positions is not None and done_now >= max_positions:
                    break
                index = ckpt.positions_done  # 0-based within the slice
                isep = self.isep_start + index
                pos = all_positions[isep - 1]
                lj, el, fpos, feul = dock_position(
                    self.receptor,
                    self.ligand,
                    pos,
                    couples,
                    gammas,
                    self.minimize,
                    self.max_iterations,
                    tracer=tracer,
                )
                self._commit_position(sink, isep, lj, el, fpos, feul)
                ckpt = ckpt.advanced()
                ckpt.save(self.checkpoint_path)
                done_now += 1
                if tracer is not None:
                    tracer.emit(
                        "docking.checkpoint",
                        isep=isep, positions_done=ckpt.positions_done,
                        nsep=self.nsep, receptor=self.receptor.name,
                        ligand=self.ligand.name,
                    )
        return ckpt

    def _commit_position(self, sink, isep, lj, el, fpos, feul) -> None:
        # one committed position: a [1, couple, gamma] energy map
        records = _best_of_gamma_records(
            isep, lj[None], el[None], fpos[None], feul[None]
        )
        header = replace(self._header, isep_start=isep, nsep=1)
        sink.append(ColumnarSegment.from_records(header, records))
        sink.flush()

    def finalize(self) -> Path:
        """Write the final result file from a complete partial store.

        The per-position segments are joined into one under the workunit
        header and written in ``result_format``; the partial store and
        the checkpoint are then removed.
        """
        ckpt = Checkpoint.load(self.checkpoint_path)
        if not ckpt.complete:
            raise RuntimeError(
                f"workunit incomplete: {ckpt.positions_done}/{ckpt.nsep} positions"
            )
        suffix, write = _FINAL_OUTPUT[self.result_format]
        final = self._path(suffix)
        write(self._partial_segment(), final)
        self.partial_path.unlink()
        self.checkpoint_path.unlink()
        return final

    def _partial_segment(self) -> ColumnarSegment:
        """The partial store's position segments joined, column by column,
        under the workunit header."""
        chunks = list(iter_segments(self.partial_path))
        return ColumnarSegment(self._header, columns={
            name: np.concatenate(
                [np.zeros(0, PACKED_DTYPE[name])] + [c.columns[name] for c in chunks]
            )
            for name in PACKED_DTYPE.names
        })

    def result_table(self):
        """Decode whatever the partial store currently holds."""
        return self._partial_segment().table()
