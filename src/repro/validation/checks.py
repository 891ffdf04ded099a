"""The three result-validation checks of Section 5.2.

"Each time we received the results, we validated those results with 3
different checks: check if there are the correct number of files, check if
there are the correct number of lines in the files, check if the values in
the file are within a valid range."
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..maxdo.resultfile import ResultTable, expected_line_count, read_results

__all__ = ["ValueRanges", "CheckReport", "check_result_file", "check_batch"]


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

    def violations(self, table: ResultTable) -> list[str]:
        """Names of the range rules the table violates."""
        rec = table.records
        problems: list[str] = []
        if len(rec) == 0:
            return problems
        coords = np.stack([rec["x"], rec["y"], rec["z"]])
        energies = np.stack([rec["e_lj"], rec["e_elec"], rec["e_tot"]])
        if not np.isfinite(coords).all() or not np.isfinite(energies).all():
            problems.append("non-finite values")
        if np.abs(coords).max(initial=0.0) > self.max_abs_coordinate:
            problems.append("coordinate out of range")
        if np.abs(energies).max(initial=0.0) > self.max_abs_energy:
            problems.append("energy out of range")
        if (rec["isep"] < 1).any() or (rec["irot"] < 1).any() or (
            rec["igamma"] < 1
        ).any():
            problems.append("non-positive indices")
        mismatch = np.abs(rec["e_tot"] - (rec["e_lj"] + rec["e_elec"]))
        if mismatch.max(initial=0.0) > self.energy_sum_tolerance:
            problems.append("energy sum mismatch")
        return problems


@dataclass
class CheckReport:
    """Outcome of validating one file or one receptor batch."""

    files_expected: int
    files_found: int
    files_with_bad_line_count: list[str] = field(default_factory=list)
    files_with_bad_values: dict[str, list[str]] = field(default_factory=dict)
    files_unreadable: dict[str, str] = field(default_factory=dict)

    @property
    def file_count_ok(self) -> bool:
        return self.files_found == self.files_expected

    @property
    def ok(self) -> bool:
        return (
            self.file_count_ok
            and not self.files_with_bad_line_count
            and not self.files_with_bad_values
            and not self.files_unreadable
        )


def check_table(
    name: str, table: ResultTable, ranges: ValueRanges | None = None
) -> CheckReport:
    """Checks 2 and 3 (line count, value ranges) on one parsed result slice,
    reported under ``name`` — the rule behind both the text files and the
    columnar segments."""
    ranges = ranges if ranges is not None else ValueRanges()
    report = CheckReport(files_expected=1, files_found=1)
    expected = expected_line_count(table.header.nsep, table.header.n_couples)
    if len(table) != expected:
        report.files_with_bad_line_count.append(name)
    problems = ranges.violations(table)
    if problems:
        report.files_with_bad_values[name] = problems
    return report


def check_result_file(
    path: Path | str, ranges: ValueRanges | None = None
) -> CheckReport:
    """Run checks 2 and 3 (line count, value ranges) on one result file."""
    path = Path(path)
    try:
        table = read_results(path)
    except (ValueError, OSError) as exc:
        report = CheckReport(files_expected=1, files_found=1)
        report.files_unreadable[path.name] = str(exc)
        return report
    return check_table(path.name, table, ranges)


def check_batch(
    paths: list[Path | str],
    files_expected: int,
    ranges: ValueRanges | None = None,
) -> CheckReport:
    """Run all three checks on a receptor batch of result files."""
    ranges = ranges if ranges is not None else ValueRanges()
    report = CheckReport(files_expected=files_expected, files_found=len(paths))
    for p in paths:
        sub = check_result_file(p, ranges)
        report.files_with_bad_line_count.extend(sub.files_with_bad_line_count)
        report.files_with_bad_values.update(sub.files_with_bad_values)
        report.files_unreadable.update(sub.files_unreadable)
    return report
