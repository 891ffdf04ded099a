"""Property-based tests of the columnar store's lossless-conversion pledge.

For arbitrary text-representable result tables — including range-edge
energies near the check thresholds, maximal ``isep`` slices at the
widest the ``%7d`` column ever prints, and ``-0.0`` / NaN / ±inf in every
scaled column — both conversion directions must be byte-identical round
trips:

* text -> columnar -> text reproduces the file byte for byte;
* columnar -> text -> columnar reproduces the packed columns bit for bit;

and the text parser must return exactly the records the per-token
oracle does.  Packing values that never went through text rounds them
exactly as the text format prints them, near-ties included.  Checks 2/3
on a segment's columns must reach the verdicts the same rule reaches
over the decoded record array, sentinel codes, rule boundaries and
drawn bounds included — by the native pass over the codes and, with the
library unloaded, by the decoded columns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.store.format as store_format
from repro.maxdo import _fused
from repro.maxdo.resultfile import (
    RESULT_DTYPE,
    ResultHeader,
    read_results,
    write_results,
)
from repro.store import (
    PACKED_DTYPE,
    ColumnarSegment,
    check_segment,
    pack_records,
    render_lines,
    segment_from_text,
    segment_to_text,
    unpack_records,
)
from repro.validation.checks import ValueRanges, check_table
from tests.oracles.resultfile import read_results_reference

pytestmark = pytest.mark.store

#: maximal isep slice the %7d column prints without widening
MAX_ISEP = 9_999_999

#: the values a scaled column carries beyond plain fixed-point numbers
SPECIALS = st.sampled_from([-0.0, np.nan, np.inf, -np.inf])


def _quantized(lo, hi, decimals):
    """Floats that survive the fixed-point text formats exactly."""
    scale = 10**decimals
    return st.integers(
        min_value=int(lo * scale), max_value=int(hi * scale)
    ).map(lambda k: k / scale)


@st.composite
def result_tables(draw):
    """A small arbitrary result table plus a consistent header.

    Values stay within what the fixed text formats represent exactly, but
    deliberately reach the range edges: coordinates to ±499.999, energies
    to ±99_999.9999 (both sides of the 1e6 check threshold's printable
    range), and isep slices ending at ``MAX_ISEP``.  Every scaled column
    also draws the rest of the legal value grammar: ``-0.0`` (printed
    ``-0.000``), NaN and ±inf.
    """
    nsep = draw(st.integers(min_value=1, max_value=4))
    n_rot = draw(st.integers(min_value=1, max_value=5))
    n_gamma = draw(st.integers(min_value=1, max_value=12))
    isep_start = draw(
        st.one_of(
            st.integers(min_value=1, max_value=50),
            st.just(MAX_ISEP - nsep + 1),
        )
    )
    n = nsep * n_rot
    rec = np.zeros(n, dtype=RESULT_DTYPE)
    rec["isep"] = np.repeat(np.arange(isep_start, isep_start + nsep), n_rot)
    rec["irot"] = np.tile(np.arange(1, n_rot + 1), nsep)
    rec["igamma"] = draw(
        st.lists(
            st.integers(min_value=1, max_value=n_gamma),
            min_size=n, max_size=n,
        )
    )
    coord = _quantized(-499.999, 499.999, 3)
    angle = _quantized(-9.9999, 9.9999, 4)
    energy = _quantized(-99_999.9999, 99_999.9999, 4)
    for field, strat in (
        ("x", coord), ("y", coord), ("z", coord),
        ("alpha", angle), ("beta", angle), ("gamma", angle),
        ("e_lj", energy), ("e_elec", energy),
    ):
        rec[field] = draw(
            st.lists(st.one_of(strat, SPECIALS), min_size=n, max_size=n)
        )
    # e_tot is the formatted sum, kept representable (|sum| < 1e5 always
    # holds at these bounds only up to rounding; clip via the same round
    # the producer applies), or a special of its own.
    with np.errstate(invalid="ignore"):  # inf + -inf
        rec["e_tot"] = np.round(rec["e_lj"] + rec["e_elec"], 4)
    own = draw(st.lists(st.one_of(st.none(), SPECIALS), min_size=n, max_size=n))
    rec["e_tot"] = [s if v is None else v for s, v in zip(rec["e_tot"], own)]
    # text carries one NaN, the one ``float("nan")`` parses to
    rec["e_tot"][np.isnan(rec["e_tot"])] = np.nan
    header = ResultHeader(
        receptor="RCPT", ligand="LGND", isep_start=isep_start,
        nsep=nsep, n_couples=n_rot, n_gamma=n_gamma,
    )
    return header, rec


#: every property below: tmp_path reuse across examples is safe, as every
#: example overwrites its files before reading them back
PROPERTY = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestRoundTripProperties:
    @PROPERTY
    @given(table=result_tables())
    def test_text_to_columnar_to_text_byte_identical(self, table, tmp_path):
        header, rec = table
        src = tmp_path / "src.result"
        write_results(src, header, render_lines(rec))
        out = tmp_path / "back.result"
        segment_to_text(segment_from_text(src), out)
        assert out.read_bytes() == src.read_bytes()

    @PROPERTY
    @given(table=result_tables())
    def test_columnar_to_text_to_columnar_bit_identical(self, table, tmp_path):
        header, rec = table
        seg = ColumnarSegment.from_records(header, rec)
        mid = tmp_path / "mid.result"
        segment_to_text(seg, mid)
        back = segment_from_text(mid)
        assert back.header == seg.header
        assert back.packed.tobytes() == seg.packed.tobytes()

    @PROPERTY
    @given(table=result_tables())
    def test_unpacked_records_match_source_bitwise(self, table, tmp_path):
        header, rec = table
        seg = ColumnarSegment.from_records(header, rec)
        for name in RESULT_DTYPE.names:
            assert seg.records[name].tobytes() == rec[name].tobytes(), name

    @PROPERTY
    @given(table=result_tables())
    def test_parser_matches_per_token_oracle_bitwise(self, table, tmp_path):
        header, rec = table
        path = tmp_path / "r.result"
        write_results(path, header, render_lines(rec))
        parsed = read_results(path)
        oracle = read_results_reference(path)
        assert parsed.header == oracle.header == header
        assert parsed.records.tobytes() == oracle.records.tobytes()


def _unquantized(scale: int, max_code: int):
    """Finite floats whose ``scale`` multiples stay within ``±max_code``:
    any such float, floats within one ulp of a rounding tie, and the
    negatives the text format prints as ``-0``."""
    def near_tie(draw_args):
        code, ulps = draw_args
        value = (code + 0.5) / scale
        return value if not ulps else float(np.nextafter(value, ulps * np.inf))

    return st.one_of(
        st.floats(-max_code / scale, max_code / scale),
        st.tuples(st.integers(-max_code, max_code - 1), st.integers(-1, 1)).map(near_tie),
        st.floats(-0.5 / scale, -0.0),
    )


#: per scaled column: its text decimals' scale and the largest code drawn
#: (int32 columns to their range, energies to the 2**52 that float64
#: still carries exactly)
UNQUANTIZED = {
    **dict.fromkeys(("x", "y", "z"), _unquantized(1_000, 2**31 - 8)),
    **dict.fromkeys(("alpha", "beta", "gamma"), _unquantized(10_000, 2**31 - 8)),
    **dict.fromkeys(("e_lj", "e_elec", "e_tot"), _unquantized(10_000, 2**52)),
}


@st.composite
def unquantized_records(draw):
    """A few rows of arbitrary in-range floats in every scaled column."""
    n = draw(st.integers(1, 8))
    rec = np.ones(n, dtype=RESULT_DTYPE)
    for name, values in UNQUANTIZED.items():
        rec[name] = draw(st.lists(values, min_size=n, max_size=n))
    return rec


def _one_value(name: str, value: float) -> np.ndarray:
    rec = np.ones(1, dtype=RESULT_DTYPE)
    rec[name] = value
    return rec


class TestPackRounding:
    # 0.0025 is just above its tie and prints 0.003, but the binary
    # product 0.0025 * 1000 is 2.5 and rounds half to even to 2; 0.00035
    # is just below and prints 0.0003, but 0.00035 * 10000 is 3.5 -> 4
    @settings(max_examples=300, deadline=None)
    @example(rec=_one_value("x", 0.0025))
    @example(rec=_one_value("e_lj", 0.00035))
    @example(rec=_one_value("x", -0.0005))
    @example(rec=_one_value("y", -0.0004))
    @given(rec=unquantized_records())
    def test_packing_rounds_as_the_text_format_prints(self, rec):
        assert render_lines(unpack_records(pack_records(rec))) == render_lines(rec)


def _codes(bits: int, edges: list[int], span: int):
    """Raw codes of one packed value column: its four sentinel codes
    (NaN, +inf, -inf, -0.0 at the bottom of the range), the given rule
    boundaries, and plain fixed-point values within ``±span``."""
    lo = -(1 << bits - 1)
    return st.one_of(
        st.sampled_from([lo, lo + 1, lo + 2, lo + 3, *edges]),
        st.integers(-span, span),
    )


#: |coordinate| 500.000 passes and 500.001 fails (milli-Angstrom codes)
COORD = _codes(32, [500_000, 500_001, -500_000, -500_001], 600_000)
#: |energy| 1e6 passes and 1e6 + 1e-4 fails (1e-4 codes); the largest
#: code is where ``code - INT64_MIN`` would overflow
E6 = 10**10
ENERGY = _codes(64, [E6, E6 + 1, -E6, -E6 - 1, (1 << 63) - 1], E6 + 5)
#: per column: values every rule passes, or the codes above
COLUMN_CODES = {
    "index": (st.integers(1, 3), st.integers(-1, 6)),
    "coord": (st.integers(-500_000, 500_000), COORD),
    "energy": (st.integers(-E6 // 2, E6 // 2), ENERGY),
}
KINDS = dict.fromkeys(("isep", "irot", "igamma"), "index") | dict.fromkeys(
    ("x", "y", "z", "alpha", "beta", "gamma"), "coord"
) | {"e_lj": "energy", "e_elec": "energy"}


@st.composite
def coded_segments(draw):
    """A segment built straight from packed codes: any row count (0 too);
    each column either clean or drawing non-positive indices, sentinel
    codes and rule-boundary codes; ``e_tot`` either codes of its own or
    the sum of the other two energies off by 0, 10 or 11 units per row
    (the 1e-3 tolerance is 10)."""
    n = draw(st.integers(0, 6))
    header = ResultHeader(
        "R", "L", isep_start=1, nsep=draw(st.integers(0, 3)),
        n_couples=draw(st.integers(1, 3)), n_gamma=4,
    )
    columns = {}
    for name, kind in KINDS.items():
        codes = draw(st.sampled_from(COLUMN_CODES[kind]))
        columns[name] = np.array(
            draw(st.lists(codes, min_size=n, max_size=n)), dtype=PACKED_DTYPE[name]
        )
    e_tot, own = [], draw(st.sampled_from([None, *COLUMN_CODES["energy"]]))
    for lj, el in zip(columns["e_lj"].tolist(), columns["e_elec"].tolist()):
        total = lj + el + draw(st.sampled_from([0, -10, 10, -11, 11]))
        plain = min(lj, el) > -(1 << 63) + 3 and abs(total) <= E6 + 16
        if not plain or own is not None:
            total = draw(ENERGY if own is None else own)
        e_tot.append(total)
    columns["e_tot"] = np.array(e_tot, dtype=PACKED_DTYPE["e_tot"])
    return ColumnarSegment(header, columns=columns)


#: bounds the rules flip at (the defaults, a code either side), none, and any
BOUNDS = {
    name: st.one_of(st.sampled_from([*edges, 0.0, np.inf, np.nan]), st.floats(0.0, hi))
    for name, edges, hi in (
        ("max_abs_coordinate", [500.0, 499.999, 500.001], 3e6),
        ("max_abs_energy", [1e6, 999_999.9999, 1_000_000.0001], 1e15),
        ("energy_sum_tolerance", [1e-3, 9e-4, 1.1e-3], 1e15),
    )
}


class TestCheckProperties:
    """The range check over packed codes: by the native library where it
    loads; the subclass below runs the same tests without it."""

    # one property run from both classes: a failure either way replays in both
    @settings(max_examples=300, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture, HealthCheck.differing_executors,
    ])
    @given(segment=coded_segments(), ranges=st.builds(ValueRanges, **BOUNDS))
    def test_column_checks_match_the_record_checks(self, segment, ranges):
        with np.errstate(invalid="ignore"):  # inf - inf in the sum rule
            from_columns = check_segment(segment, ranges, name="s")
            from_records = check_table(
                "s", segment.header, unpack_records(segment.packed), ranges
            )
        assert from_columns == from_records

    @pytest.mark.parametrize("passes, fails, problem", [
        ({"x": 500_000}, {"x": 500_001}, "coordinate out of range"),
        ({"z": -500_000}, {"z": -500_001}, "coordinate out of range"),
        ({"e_elec": E6, "e_tot": E6}, {"e_elec": E6 + 1, "e_tot": E6 + 1},
         "energy out of range"),
        ({"e_lj": 10_000, "e_tot": 10_010}, {"e_lj": 10_000, "e_tot": 10_011},
         "energy sum mismatch"),
        ({"y": -(1 << 31) + 3}, {"y": -(1 << 31)}, "non-finite values"),
        ({"irot": 1}, {"irot": 0}, "non-positive indices"),
    ])
    def test_each_rule_flips_at_its_boundary(self, passes, fails, problem):
        verdicts = []
        for codes in (passes, fails):
            rows = np.zeros(1, dtype=PACKED_DTYPE)
            rows["isep"] = rows["irot"] = rows["igamma"] = 1
            for name, code in codes.items():
                rows[name] = code
            header = ResultHeader("R", "L", 1, 1, 1, 1)
            verdicts.append(check_segment(ColumnarSegment(header, rows)))
        assert verdicts[0].ok
        assert verdicts[1].files_with_bad_values == {
            "segment[0] R-L@1": [problem]
        }

    def test_the_native_check_decodes_nothing(self, monkeypatch):
        if _fused.load() is None:
            pytest.skip("the native library does not load here")
        monkeypatch.setattr(store_format, "_decode_column", None)  # a call fails
        rows = np.ones(3, dtype=PACKED_DTYPE)
        rows["y"][1] = -(1 << 31)  # NaN
        segment = ColumnarSegment(ResultHeader("R", "L", 1, 1, 3, 1), rows)
        assert check_segment(segment).files_with_bad_values == {
            "segment[0] R-L@1": ["non-finite values"]
        }


class TestCheckPropertiesDecoded(TestCheckProperties):
    """The same properties where the native library does not load: the
    columns are decoded and ``ValueRanges.violations`` runs over them."""

    @pytest.fixture(autouse=True)
    def _without_the_library(self, monkeypatch):
        monkeypatch.setattr(_fused, "load", lambda: None)

    test_the_native_check_decodes_nothing = None
