"""Checkpoint-restart between starting positions.

"The MAXDo program can be stopped at any time and restarted from the last
checkpoint. [...] the checkpoint occurs only between starting positions. If
the program is stopped during the computation of one starting position, the
MAXDo program has to be relaunched from this position." (Section 4.3)

A checkpoint records the workunit identity and how many starting positions
have been fully committed to the partial result file, a packed store with
one segment per committed position.  On resume the partial store is rolled
back to the checkpoint's row count
(:func:`repro.store.format.rollback_partial_store`): rows of a position
interrupted mid-way, a torn trailing segment included, are dropped and the
position is recomputed — exactly the semantics above.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = ["Checkpoint"]


@dataclass(frozen=True)
class Checkpoint:
    """State persisted after each completed starting position."""

    receptor: str
    ligand: str
    isep_start: int
    nsep: int
    n_couples: int
    n_gamma: int
    positions_done: int  #: starting positions fully committed

    @property
    def lines_committed(self) -> int:
        """Rows the partial result file must contain (one per position and
        orientation couple — the best-of-gamma optimum)."""
        return self.positions_done * self.n_couples

    @property
    def complete(self) -> bool:
        """True once every starting position of the workunit is done."""
        return self.positions_done >= self.nsep

    def save(self, path: Path | str) -> None:
        """Atomically persist the checkpoint as JSON."""
        path = Path(path)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(json.dumps(asdict(self), indent=1), encoding="ascii")
        tmp.replace(path)

    @classmethod
    def load(cls, path: Path | str) -> "Checkpoint":
        """Load a checkpoint written by :meth:`save`."""
        raw = json.loads(Path(path).read_text(encoding="ascii"))
        ckpt = cls(**raw)
        if not 0 <= ckpt.positions_done <= ckpt.nsep:
            raise ValueError(
                f"corrupt checkpoint: positions_done={ckpt.positions_done} "
                f"outside [0, {ckpt.nsep}]"
            )
        return ckpt

    def advanced(self, positions: int = 1) -> "Checkpoint":
        """A new checkpoint with ``positions`` more positions committed."""
        done = self.positions_done + positions
        if done > self.nsep:
            raise ValueError(f"cannot advance past nsep={self.nsep}")
        return Checkpoint(
            receptor=self.receptor,
            ligand=self.ligand,
            isep_start=self.isep_start,
            nsep=self.nsep,
            n_couples=self.n_couples,
            n_gamma=self.n_gamma,
            positions_done=done,
        )
