"""The three result-validation checks of Section 5.2.

"Each time we received the results, we validated those results with 3
different checks: check if there are the correct number of files, check if
there are the correct number of lines in the files, check if the values in
the file are within a valid range."
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..maxdo.resultfile import ResultHeader, ResultTable, expected_line_count

__all__ = ["ValueRanges", "CheckReport"]


@dataclass(frozen=True)
class ValueRanges:
    """Valid ranges for the result-file columns.

    The energy bounds are generous on purpose: the check catches corrupted
    uploads and cheating clients (NaN, garbage magnitudes), not unusual
    chemistry.
    """

    max_abs_coordinate: float = 500.0  #: Angstrom
    max_abs_energy: float = 1.0e6  #: kcal/mol
    energy_sum_tolerance: float = 1.0e-3  #: |e_tot - (e_lj + e_elec)|

    def violations(
        self, table: ResultTable | np.ndarray | dict[str, np.ndarray]
    ) -> list[str]:
        """Names of the range rules the table violates.  ``table`` may also
        be its columns by name: a record array, or the dict of decoded
        columns a store segment hands over (only the rules' nine)."""
        rec = table.records if isinstance(table, ResultTable) else table
        problems: list[str] = []
        if len(rec["isep"]) == 0:
            return problems
        coords = [rec[name] for name in ("x", "y", "z")]
        energies = [rec[name] for name in ("e_lj", "e_elec", "e_tot")]
        if not all(np.isfinite(c).all() for c in coords + energies):
            problems.append("non-finite values")
        # np.max, not max(): a NaN maximum must stay NaN, as over a stack
        if np.max([np.abs(c).max() for c in coords]) > self.max_abs_coordinate:
            problems.append("coordinate out of range")
        if np.max([np.abs(e).max() for e in energies]) > self.max_abs_energy:
            problems.append("energy out of range")
        if any((rec[name] < 1).any() for name in ("isep", "irot", "igamma")):
            problems.append("non-positive indices")
        mismatch = np.abs(rec["e_tot"] - (rec["e_lj"] + rec["e_elec"]))
        if mismatch.max() > self.energy_sum_tolerance:
            problems.append("energy sum mismatch")
        return problems


@dataclass
class CheckReport:
    """Outcome of validating one file or one receptor batch."""

    files_expected: int
    files_found: int
    files_with_bad_line_count: list[str] = field(default_factory=list)
    files_with_bad_values: dict[str, list[str]] = field(default_factory=dict)

    @property
    def file_count_ok(self) -> bool:
        return self.files_found == self.files_expected

    @property
    def ok(self) -> bool:
        return (
            self.file_count_ok
            and not self.files_with_bad_line_count
            and not self.files_with_bad_values
        )


def check_table(
    name: str, header: ResultHeader, rows: np.ndarray | dict[str, np.ndarray],
    ranges: ValueRanges | None = None,
) -> CheckReport:
    """Checks 2 and 3 (line count, value ranges) on one result slice given
    as its header and its columns by name (a record array, or a store
    segment's decoded columns), reported under ``name`` — the rule
    :func:`repro.store.check_segment` applies to every segment."""
    ranges = ranges if ranges is not None else ValueRanges()
    report = CheckReport(files_expected=1, files_found=1)
    if len(rows["isep"]) != expected_line_count(header.nsep, header.n_couples):
        report.files_with_bad_line_count.append(name)
    problems = ranges.violations(rows)
    if problems:
        report.files_with_bad_values[name] = problems
    return report

