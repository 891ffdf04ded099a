"""Text ingest: a canonical data block decodes straight to packed codes.

A data block in ``LINE_FORMAT``'s exact layout is decoded to the store's
fixed-point codes, by the native fixed-column reader when the library
loads and by one integer ``np.loadtxt`` call when it does not; every
other layout goes through the float parser it always did.  Pinned here:

* the bytes ``text_to_store`` writes over a ``gen.py``-shaped dataset,
  planted NaN and short chunks included, as the float path wrote them;
* on arbitrary ``render_lines`` files the segment columns are
  ``pack_records`` of the per-token oracle's records and ``read_results``
  equals that oracle bit for bit;
* a table of non-canonical inputs, each giving the float parser's
  records or its ``ValueError``, which ``read_results`` prefixes with
  the file name (the per-token oracle agrees);
* which path each input takes: canonical files never reach the float
  parser, and every non-canonical case does;
* both code readers agree: the canonical and non-canonical cases above
  run under each, a one-byte fuzz of canonical files gives both the same
  segment or both ``None``, and the native one never calls ``np.loadtxt``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.maxdo.resultfile as resultfile
import repro.store.convert as convert
from repro.maxdo import _fused
from repro.maxdo.resultfile import (
    RESULT_DTYPE,
    ResultHeader,
    read_results,
    render_lines,
    write_results,
)
from repro.store import pack_records, segment_from_text, text_to_store
from repro.store.format import _SCALES
from tests.oracles.resultfile import read_results_reference
from tests.test_faults import corrupt_energies

pytestmark = pytest.mark.store

#: sha256 of ``text_to_store`` over ``dataset()`` as the float parser and
#: ``pack_records`` wrote it before the code decoder existed
DATASET_DIGEST = "696d4bcd749d7801059e8cf45ec8328ca1cd3c34670ae06870cf9ea5efde9260"

ROWS_PER_POSITION = 21


def chunk_records(rng, positions: int, isep_start: int) -> np.ndarray:
    """``positions`` x 21 text-representable rows, shaped like the
    benchmark generator's chunks."""
    n = positions * ROWS_PER_POSITION
    rec = np.zeros(n, dtype=RESULT_DTYPE)
    rec["isep"] = np.repeat(
        np.arange(isep_start, isep_start + positions), ROWS_PER_POSITION
    )
    rec["irot"] = np.tile(np.arange(1, ROWS_PER_POSITION + 1), positions)
    rec["igamma"] = rng.integers(1, 11, size=n)
    for f in ("x", "y", "z"):
        rec[f] = np.round(rng.normal(0.0, 40.0, n), 3)
    for f in ("alpha", "beta", "gamma"):
        rec[f] = np.round(rng.uniform(0.0, 6.2831, n), 4)
    rec["e_lj"] = np.round(rng.normal(-30.0, 12.0, n), 4)
    rec["e_elec"] = np.round(rng.normal(-8.0, 4.0, n), 4)
    rec["e_tot"] = np.round(rec["e_lj"] + rec["e_elec"], 4)
    return rec


def dataset(directory, couples: int = 3, chunks: int = 2, positions: int = 4):
    """Write a chunked upload set; returns the file paths in order.

    The first chunk carries NaN energies, an infinity and negative zeros;
    the second couple's first chunk is one line short.
    """
    rng = np.random.default_rng(7)
    paths = []
    for c in range(couples):
        for k in range(chunks):
            isep_start = 1 + k * positions
            rec = chunk_records(rng, positions, isep_start)
            if c == 0 and k == 0:
                rec["e_lj"][:3] = rec["e_tot"][:3] = np.nan
                rec["e_elec"][3] = np.inf
                rec["x"][4] = rec["alpha"][5] = rec["e_tot"][6] = -0.0
            if c == 1 and k == 0:
                rec = rec[:-1]
            header = ResultHeader(
                receptor=f"p{c:03d}", ligand=f"p{c + 1:03d}",
                isep_start=isep_start, nsep=positions,
                n_couples=ROWS_PER_POSITION, n_gamma=10,
            )
            path = directory / f"p{c:03d}_p{c + 1:03d}_{isep_start}.result"
            write_results(path, header, render_lines(rec))
            paths.append(path)
    return paths


@pytest.fixture
def readers(monkeypatch):
    """``for reader in readers():`` runs its body once per code reader: the
    native one when the library loads, then the ``np.loadtxt`` one."""
    loads = {"native": _fused.load, "loadtxt": lambda: None}
    if _fused.load() is None:  # no compiler: the one reader of the platform
        del loads["native"]

    def each():
        for name, load in loads.items():
            monkeypatch.setattr(_fused, "load", load)
            yield name

    return each


def test_store_bytes_match_the_float_path(tmp_path):
    paths = dataset(tmp_path)
    text_to_store(paths, tmp_path / "s.rcs")
    digest = hashlib.sha256((tmp_path / "s.rcs").read_bytes()).hexdigest()
    assert digest == DATASET_DIGEST


# -- (2) canonical files: codes and records equal the oracle's ---------------

#: each field's widest printable values at its canonical width
WIDEST = {
    "isep": [9_999_999, -999_999], "irot": [999, -99], "igamma": [999, -99],
    **dict.fromkeys(("x", "y", "z"), [999_999.999, -99_999.999]),
    **dict.fromkeys(("alpha", "beta", "gamma"), [999.9999, -99.9999]),
    **dict.fromkeys(("e_lj", "e_elec", "e_tot"), [99_999_999.9999, -9_999_999.9999]),
}
SPECIALS = [-0.0, np.nan, np.inf, -np.inf]


def field_values(name: str):
    """Typical, widest and (for decimal fields) special values of a field."""
    if name in _SCALES:
        scale = _SCALES[name]
        typical = st.integers(-10 * scale, 10 * scale).map(lambda k: k / scale)
        return st.one_of(typical, st.sampled_from(WIDEST[name] + SPECIALS))
    return st.one_of(st.integers(0, 30), st.sampled_from(WIDEST[name]))


@st.composite
def canonical_files(draw):
    """Records ``render_lines`` prints at the canonical widths."""
    n = draw(st.integers(min_value=1, max_value=6))
    rec = np.zeros(n, dtype=RESULT_DTYPE)
    for name in RESULT_DTYPE.names:
        rec[name] = draw(st.lists(field_values(name), min_size=n, max_size=n))
    return rec


PROPERTY = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
HEADER = ResultHeader("RCPT", "LGND", isep_start=1, nsep=2, n_couples=3, n_gamma=10)


@PROPERTY
@given(rec=canonical_files())
def test_canonical_file_decodes_to_the_oracle_codes(rec, tmp_path, readers):
    path = tmp_path / "c.result"
    write_results(path, HEADER, render_lines(rec))
    assert all(len(line) == 117 for line in render_lines(rec))
    oracle = read_results_reference(path)
    for _ in readers():
        parsed = read_results(path)
        assert parsed.header == oracle.header == HEADER
        assert parsed.records.tobytes() == oracle.records.tobytes()
        segment = segment_from_text(path)
        assert segment.packed.tobytes() == pack_records(oracle.records).tobytes()


# -- (3) non-canonical inputs: today's records or today's error --------------


def canonical_records() -> np.ndarray:
    rec = chunk_records(np.random.default_rng(3), 1, 1)[:4]
    rec["x"][1], rec["x"][2], rec["e_tot"][3] = 1.0, 0.0, -0.5
    return rec


def canonical_text(rec: np.ndarray | None = None) -> str:
    rec = canonical_records() if rec is None else rec
    return "".join(ln + "\n" for ln in HEADER.lines() + render_lines(rec))


def _edit_line(k: int, edit):
    """An edit of data line ``k`` of the canonical text."""
    def apply(text: str) -> str:
        lines = text.split("\n")
        lines[len(HEADER.lines()) + k] = edit(lines[len(HEADER.lines()) + k])
        return "\n".join(lines)
    return apply


def _field(k: int, spelled: str):
    """Replace field ``k`` of a line with ``spelled``, right-aligned."""
    def edit(line: str) -> str:
        e = convert._END[k]
        s = e - len(convert._FORMATS[k] % 0)
        return line[:s] + spelled.rjust(e - s) + line[e:]
    return edit


def _widened(text: str) -> str:
    """``corrupt_energies``' ``1e9``: a 15-character ``e_tot`` field."""
    table = resultfile.ResultTable(HEADER, canonical_records())
    corrupt_energies(table, np.random.default_rng(0), n_lines=1)
    return canonical_text(table.records)


DATA_START = len("".join(ln + "\n" for ln in HEADER.lines()))

NON_CANONICAL = {
    # today an error; a decoder that only drops dots would read 7466
    "stray-dot": _edit_line(0, _field(3, ".7.466")),
    "widened-1e9": _widened,
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "tab-separator": _edit_line(1, lambda ln: ln[:7] + "\t" + ln[8:]),
    "tab-padding": _edit_line(1, lambda ln: "\t" + ln[1:]),
    "form-feed": _edit_line(1, lambda ln: ln[:7] + "\f" + ln[8:]),
    "blank-line": lambda t: t[:DATA_START] + "\n" + t[DATA_START:],
    "hash-line": lambda t: t[:DATA_START + 118] + "# note\n" + t[DATA_START + 118:],
    "no-final-newline": lambda t: t[:-1],
    "plus-sign": _edit_line(1, _field(3, "+1.000")),
    "NaN": _edit_line(0, _field(9, "NaN")),
    "Infinity": _edit_line(0, _field(10, "Infinity")),
    "leading-zeros": _edit_line(2, _field(3, "-00.000")),
    "no-integer-digit": _edit_line(3, _field(11, "-.5000")),
    "ragged": _edit_line(2, lambda ln: ln[:-14] + " " * 14),
    "header-only": lambda t: t[:DATA_START],
}


def outcome(parse, path) -> tuple[str, object]:
    """``("records", bytes)`` or ``("error", message)``."""
    try:
        return "records", parse(path).records.tobytes()
    except ValueError as exc:
        return "error", str(exc)


def float_path(path):
    """The float parser, on the bytes of ``path``."""
    return resultfile._parse_floats(path.read_bytes())


@pytest.mark.parametrize("case", sorted(NON_CANONICAL))
def test_non_canonical_input_parses_as_today(case, tmp_path, readers):
    path = tmp_path / "n.result"
    path.write_bytes(NON_CANONICAL[case](canonical_text()).encode("ascii"))
    kind, today = outcome(float_path, path)
    for _ in readers():
        if kind == "error":
            assert outcome(read_results, path) == (kind, f"n.result: {today}")
            assert outcome(read_results_reference, path)[0] == "error"
            with pytest.raises(ValueError) as raised:
                segment_from_text(path)
            assert str(raised.value) == f"n.result: {today}"
        else:
            assert outcome(read_results, path) == (kind, today)
            assert outcome(read_results_reference, path) == (kind, today)
            assert (segment_from_text(path).packed.tobytes()
                    == pack_records(float_path(path).records).tobytes())


def test_stray_dot_is_an_error(tmp_path):
    path = tmp_path / "n.result"
    path.write_text(NON_CANONICAL["stray-dot"](canonical_text()), encoding="ascii")
    with pytest.raises(ValueError, match="unparseable data line"):
        read_results(path)


# -- (4) path isolation -----------------------------------------------------


@pytest.fixture
def decoded(monkeypatch):
    """Whether each decode the two entry points ran took the codes path
    (a ``None`` sends the file to the float parser)."""
    calls = []

    def spy(data, source=None):
        fixed = decode(data, source)
        calls.append(fixed is not None)
        return fixed

    decode = convert._decode_fixed
    monkeypatch.setattr(convert, "_decode_fixed", spy)
    return calls


def test_canonical_files_never_reach_the_float_path(decoded, tmp_path):
    paths = dataset(tmp_path)
    path = tmp_path / "c.result"
    path.write_text(canonical_text(), encoding="ascii")
    for p in [*paths, path]:
        read_results(p)
        segment_from_text(p)
    assert decoded == [True] * 2 * (len(paths) + 1)


@pytest.mark.parametrize("case", sorted(NON_CANONICAL))
def test_non_canonical_input_takes_the_float_path(case, decoded, tmp_path, readers):
    path = tmp_path / "n.result"
    path.write_bytes(NON_CANONICAL[case](canonical_text()).encode("ascii"))
    for _ in readers():
        outcome(read_results, path)
        outcome(segment_from_text, path)
    assert decoded and not any(decoded)


def test_one_decode_attempt_per_text_file(decoded, tmp_path):
    """Each entry point tries the code decoder once; a file it turns down
    goes straight to the float parser, not through a second decode."""
    path = tmp_path / "n.result"
    for text in (canonical_text(), NON_CANONICAL["crlf"](canonical_text())):
        path.write_bytes(text.encode("ascii"))
        for parse in (segment_from_text, read_results):
            decoded.clear()
            parse(path)
            assert len(decoded) == 1, (parse.__name__, decoded)


# -- (5) the two code readers -------------------------------------------------

#: what a one-byte edit writes: the bytes the token rule weighs, and a few it refuses
EDITS = list(b" -.+0123456789x\t\n")


@PROPERTY
@given(rec=canonical_files(), data=st.data())
def test_a_one_byte_edit_reads_alike_under_both_readers(rec, data, readers):
    text = bytearray(canonical_text(rec).encode("ascii"))
    row = data.draw(st.integers(0, len(rec) - 1), label="row")
    k = data.draw(st.integers(0, len(convert._FORMATS) - 1), label="field")
    column = data.draw(st.integers(int(convert._START[k]), int(convert._END[k]) - 1),
                       label="column")
    text[DATA_START + row * resultfile.BYTES_PER_LINE + column] = data.draw(st.sampled_from(EDITS))
    read = []
    for _ in readers():
        segment = convert._decode_fixed(bytes(text))
        read.append(None if segment is None else (segment.header, segment.packed.tobytes()))
    assert all(r == read[0] for r in read)


def test_the_native_reader_never_calls_loadtxt(tmp_path, monkeypatch):
    if _fused.load() is None:
        pytest.skip("the native library does not build on this platform")
    paths = dataset(tmp_path)

    def loadtxt(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    monkeypatch.setattr(np, "loadtxt", loadtxt)
    assert text_to_store(paths, tmp_path / "s.rcs") == len(paths)
    assert hashlib.sha256((tmp_path / "s.rcs").read_bytes()).hexdigest() == DATASET_DIGEST


# -- errors name the file ---------------------------------------------------


def test_ingest_errors_name_the_file(tmp_path, capsys):
    from repro.cli import main

    (tmp_path / "up").mkdir()
    paths = dataset(tmp_path / "up")
    lines = paths[2].read_text(encoding="ascii").split("\n")
    lines[len(HEADER.lines()) + 1] = lines[len(HEADER.lines()) + 1][:-28]
    paths[2].write_text("\n".join(lines), encoding="ascii")
    message = (f"{paths[2].name}: ragged data block: data line 2: "
               "expected 12 columns, got 10")
    with pytest.raises(ValueError) as raised:
        text_to_store(paths, tmp_path / "s.rcs")
    assert str(raised.value) == message
    assert main(["results", "convert", str(tmp_path / "up"), str(tmp_path / "s.rcs")]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "s.rcs").exists()


def test_text_decimals_are_the_store_scales():
    decimals = {
        name: len((fmt % 0).partition(".")[2])
        for name, fmt in zip(RESULT_DTYPE.names, convert._FORMATS)
    }
    assert {n: 10 ** decimals[n] for n in _SCALES} == _SCALES
    assert not any(decimals[n] for n in RESULT_DTYPE.names if n not in _SCALES)
    # the layout the checked columns expect: separators, newline, dots, digits
    n_fields, n_dec = len(convert._END), len(convert._DEC)
    assert convert._LAYOUT.tobytes() == (
        b" " * (n_fields - 1) + b"\n" + b"." * n_dec
    ).ljust(len(convert._CHECKED), b"0")
