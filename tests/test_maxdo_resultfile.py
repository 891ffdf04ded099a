"""Tests for repro.maxdo.resultfile: the text result format."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.maxdo.resultfile import (
    BYTES_PER_LINE,
    ResultHeader,
    expected_line_count,
    read_results,
    write_results,
)
from tests.oracles.resultfile import format_record, read_results_reference


def _header(nsep=3, n_couples=4):
    return ResultHeader(
        receptor="P001", ligand="P002", isep_start=1, nsep=nsep,
        n_couples=n_couples, n_gamma=10,
    )


def _line(isep=1, irot=1, igamma=1, e_lj=-1.25, e_elec=0.5):
    return format_record(
        isep, irot, igamma,
        np.array([10.0, -2.0, 3.5]), np.array([0.1, 0.2, 0.3]), e_lj, e_elec,
    )


class TestFormat:
    def test_line_width_matches_volume_constant(self):
        # The dataset volume model (123 GB) relies on this width.
        assert len(_line()) + 1 == BYTES_PER_LINE

    def test_width_stable_under_extreme_values(self):
        line = format_record(
            9_999_999, 21, 10,
            np.array([-499.999, 499.999, 0.0]),
            np.array([-3.1416, 3.1416, -3.1416]),
            -99999.9999, 99999.9999,
        )
        assert len(line) + 1 == BYTES_PER_LINE

    def test_expected_line_count(self):
        # One line per (position, orientation couple): the paper's volume.
        assert expected_line_count(nsep=5, n_couples=21) == 105


class TestRoundtrip:
    def test_write_read(self, tmp_path):
        path = tmp_path / "r.result"
        lines = [_line(isep=i + 1, irot=j + 1) for i in range(3) for j in range(4)]
        n = write_results(path, _header(), lines)
        assert n == 12
        table = read_results(path)
        assert table.header == _header()
        assert len(table) == 12
        assert table.records["isep"].tolist() == sorted(table.records["isep"].tolist())

    def test_values_roundtrip(self, tmp_path):
        path = tmp_path / "r.result"
        write_results(path, _header(nsep=1, n_couples=1), [_line(e_lj=-123.4567)])
        rec = read_results(path).records[0]
        assert rec["e_lj"] == pytest.approx(-123.4567)
        assert rec["e_tot"] == pytest.approx(-123.4567 + 0.5)
        assert rec["x"] == pytest.approx(10.0)

    def test_empty_file_keeps_header(self, tmp_path):
        path = tmp_path / "r.result"
        write_results(path, _header(), [])
        table = read_results(path)
        assert len(table) == 0
        assert table.header.receptor == "P001"

    @settings(max_examples=15, deadline=None)
    @given(
        st.floats(min_value=-9e4, max_value=9e4, allow_nan=False),
        st.floats(min_value=-9e4, max_value=9e4, allow_nan=False),
    )
    def test_energy_roundtrip_property(self, tmp_path_factory, e_lj, e_elec):
        path = tmp_path_factory.mktemp("rf") / "r.result"
        write_results(
            path, _header(nsep=1, n_couples=1), [_line(e_lj=e_lj, e_elec=e_elec)]
        )
        rec = read_results(path).records[0]
        assert rec["e_lj"] == pytest.approx(e_lj, abs=1e-4)
        assert rec["e_elec"] == pytest.approx(e_elec, abs=1e-4)


#: a data block whose middle row lost its last column
RAGGED = f"{_line(irot=1)}\n{_line(irot=2)[:-14]}\n{_line(irot=3)}\n"


class TestPerTokenOracleEquivalence:
    """The bulk ``read_results`` against the per-token ``float()`` oracle.

    ``read_results_reference`` parses one token at a time with Python's
    own conversion: the ``np.loadtxt`` parser must return the same header
    and bit-identical records on well-formed files, and reject the same
    malformed ones.
    """

    def _golden(self, tmp_path, nsep=4, n_couples=3):
        rng = np.random.default_rng(7)
        lines = []
        for i in range(nsep):
            for j in range(n_couples):
                lines.append(format_record(
                    i + 1, j + 1, int(rng.integers(1, 11)),
                    rng.normal(0.0, 50.0, 3), rng.uniform(-3.14, 3.14, 3),
                    float(np.round(rng.normal(-30.0, 10.0), 4)),
                    float(np.round(rng.normal(-5.0, 3.0), 4)),
                ))
        path = tmp_path / "g.result"
        write_results(path, _header(nsep=nsep, n_couples=n_couples), lines)
        return path

    def test_bitwise_identical_on_golden_file(self, tmp_path):
        path = self._golden(tmp_path)
        fast = read_results(path)
        slow = read_results_reference(path)
        assert fast.header == slow.header
        assert len(fast) == len(slow)
        for name in fast.records.dtype.names:
            assert np.array_equal(fast.records[name], slow.records[name]), name

    def test_identical_on_empty_file(self, tmp_path):
        path = tmp_path / "e.result"
        write_results(path, _header(), [])
        fast = read_results(path)
        slow = read_results_reference(path)
        assert fast.header == slow.header
        assert len(fast) == len(slow) == 0

    def test_wide_extreme_values_parse_identically(self, tmp_path):
        line = format_record(
            9_999_999, 21, 10,
            np.array([-499.999, 499.999, 0.0]),
            np.array([-3.1416, 3.1416, -3.1416]),
            -99999.9999, 99999.9999,
        )
        path = tmp_path / "w.result"
        write_results(path, _header(nsep=1, n_couples=1), [line])
        fast = read_results(path).records
        slow = read_results_reference(path).records
        assert fast.tobytes() == slow.tobytes()

    def _write(self, tmp_path, body):
        path = tmp_path / "f.result"
        path.write_text(
            "\n".join(_header().lines()) + "\n" + body, encoding="ascii"
        )
        return path

    @pytest.mark.parametrize("payload", [
        "1 2 3 4\n",                        # wrong column count
        "not numbers at all here pal\n",    # garbage tokens
        pytest.param(RAGGED, id="ragged-row-mid-file"),
        pytest.param(f"{_line()}  # note\n", id="trailing-comment"),
        pytest.param(f"{_line()[:-1]}#\n", id="hash-inside-a-token"),
    ])
    def test_both_reject_malformed(self, tmp_path, payload):
        path = self._write(tmp_path, payload)
        with pytest.raises(ValueError):
            read_results(path)
        with pytest.raises(ValueError):
            read_results_reference(path)

    def test_ragged_row_is_named(self, tmp_path):
        with pytest.raises(ValueError, match="ragged data block: data line 2"):
            read_results(self._write(tmp_path, RAGGED))

    @pytest.mark.parametrize("body", [
        pytest.param(
            f"{_line(irot=1)}\n   \n\t\n{_line(irot=2)}\n  \n",
            id="whitespace-only-lines",
        ),
        # '#' lines placed after data are header lines too
        pytest.param(
            f"{_line(irot=1)}\n# a note\n{_line(irot=2)}\n# trailer\n",
            id="hash-lines-after-data",
        ),
        # the signs and specials the text format can carry
        pytest.param(
            _line(e_lj=-0.0, e_elec=-0.0) + "\n"
            + _line(e_lj=float("nan"), e_elec=float("inf")) + "\n"
            + _line(e_lj=float("-inf"), e_elec=-1e-5) + "\n",
            id="negative-zero-nan-inf",
        ),
        # whitespace that ``str.splitlines`` would break a line at
        *(
            pytest.param(
                f"{_line(irot=1)}\n{_line(irot=2)[:37]}{ws}{_line(irot=2)[38:]}\n",
                id=f"{ws!r}-inside-a-data-line",
            )
            for ws in ("\f", "\v", "\x1c", "\x1d", "\x1e")
        ),
    ])
    def test_both_accept_identically(self, tmp_path, body):
        path = self._write(tmp_path, body)
        fast = read_results(path)
        slow = read_results_reference(path)
        assert fast.header == slow.header == _header()
        assert len(fast) == len(slow) >= 2
        assert fast.records.tobytes() == slow.records.tobytes()

    def test_empty_data_block_raises_no_warning(self, tmp_path):
        path = self._write(tmp_path, "\n  \n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(read_results(path)) == 0


class TestMalformed:
    def test_missing_header_field(self, tmp_path):
        path = tmp_path / "bad.result"
        path.write_text("# receptor P001\n# ligand P002\n", encoding="ascii")
        with pytest.raises(ValueError, match="missing"):
            read_results(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "bad.result"
        header = "\n".join(_header().lines())
        path.write_text(header + "\n1 2 3 4\n", encoding="ascii")
        with pytest.raises(ValueError):
            read_results(path)

    def test_garbage_data(self, tmp_path):
        path = tmp_path / "bad.result"
        header = "\n".join(_header().lines())
        path.write_text(header + "\nnot numbers at all here pal\n", encoding="ascii")
        with pytest.raises(ValueError):
            read_results(path)
