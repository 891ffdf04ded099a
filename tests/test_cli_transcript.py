"""The ``repro-hcmd`` transcript: every subcommand's stdout, stderr and
exit code, replayed in-process against a committed recording.

``tests/cli_transcript.json`` holds one entry per invocation in
:data:`INVOCATIONS` — all fourteen subcommands, every ``--help``, and the
error paths.  The invocations run in order in one temporary directory
(later ones read the trace and stores earlier ones wrote).  Only the
inputs a run chooses are masked: the temporary directory reads
``{tmp}``, the port ``serve`` listens on ``{port}``, and ``{served}`` is
the URL of a campaign served in a thread for that one invocation.

After an intended output change, re-record and review the JSON diff::

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import socket
import sys
import tempfile
from pathlib import Path

import pytest

TRANSCRIPT = Path(__file__).with_name("cli_transcript.json")

COMMANDS = (
    "estimate", "package", "simulate", "compare", "project", "capacity",
    "report", "partners", "sites", "results", "trace", "hosts", "serve",
    "loadgen",
)
T = "{tmp}/t.jsonl"
SMALL = ["--scale", "900", "--proteins", "5"]
INVOCATIONS = [
    ["--help"],
    *([command, "--help"] for command in COMMANDS),
    *(["results", sub, "--help"] for sub in ("convert", "check", "merge", "stats")),
    ["estimate"],
    ["estimate", "--proteins", "12"],
    ["package", "--hours", "10", "--strategy", "merge-tail"],
    ["--seed", "7", "simulate", "--scale", "300", "--proteins", "10",
     "--faults", "crash=5,corrupt=0.05,sabotage=0.02,loss=0.1",
     "--health", "--ledger", "--report", "--trace", T],
    ["simulate", *SMALL, "--horizon-weeks", "3", "--accounting", "boinc"],
    ["simulate", "--campaign", "name=hcmd,scale=900,proteins=5",
     "--campaign", "name=malaria,kind=screening,ligands=60,mean-hours=1,batch=20",
     "--hosts-peak", "10", "--health", "--ledger"],
    ["compare"],
    ["project"],
    ["project", "--proteins", "1000", "--weeks", "20"],
    ["capacity"],
    ["capacity", "--hours", "0.05"],
    ["report"],
    ["report", "--trace", T],
    ["report", "--trace", T, "--markdown"],
    ["partners", "--proteins", "24"],
    ["sites", "--proteins", "20", "--positions", "100", "--keep", "0.1"],
    ["results", "convert", "{tmp}/chunks", "{tmp}/all.rcs"],
    ["results", "check", "{tmp}/all.rcs", "--files-expected", "4"],
    ["results", "merge", "{tmp}/all.rcs", "{tmp}/merged.rcs"],
    ["results", "stats", "{tmp}/merged.rcs"],
    ["results", "convert", "{tmp}/all.rcs", "{tmp}/back"],
    ["trace", T],
    ["trace", T, "--workunit", "3", "--limit", "8"],
    ["trace", T, "--channel", "fault", "--limit", "6"],
    ["trace", "diff", T, T],
    ["hosts", T],
    ["hosts", T, "--format", "md", "--top", "3"],
    ["hosts", T, "--format", "json"],
    ["hosts", T, "--host", "3", "--limit", "6"],
    ["hosts", T, "--host", "3", "--format", "md"],
    ["hosts", T, "--host", "3", "--format", "json"],
    ["serve", *SMALL, "--port", "{port}", "--duration", "0.2",
     "--trace", "{tmp}/serve.jsonl"],
    ["--seed", "11", "loadgen", "{served}", *SMALL, "--horizon-weeks", "30",
     "--reconcile"],
    # error paths
    ["trace", "diff", T, "{tmp}/serve.jsonl"],
    ["simulate", *SMALL, "--faults", "bogus=1"],
    ["simulate", "--proteins", "6", "--shards", "20"],
    ["simulate", "--campaign", "scale=900,proteins=5", "--report"],
    ["package", "--strategy", "magic"],
    ["trace", "diff", T],
    ["trace", T, T],
    ["hosts", "{tmp}/missing.jsonl"],
    ["hosts", T, "--host", "999999"],
    ["hosts", "{tmp}/serve.jsonl"],
    ["results", "convert", "{tmp}/corrupt", "{tmp}/corrupt.rcs"],
    ["results", "check", "{tmp}/corrupt.rcs"],
    ["results", "convert", "{tmp}/empty", "{tmp}/none.rcs"],
    ["results", "merge", "{tmp}/missing.rcs", "{tmp}/out.rcs"],
    ["serve", "--campaign", "kind=screening"],
    ["loadgen", "http://127.0.0.1:1", *SMALL],
]


def write_result_chunks(directory: Path, corrupt: bool = False) -> Path:
    """Four seeded MAXDo text result chunks (two couples, two isep slices
    each); ``corrupt`` puts an out-of-range energy in the first one."""
    import numpy as np

    from repro.maxdo.resultfile import RESULT_DTYPE, ResultHeader, write_results
    from repro.rng import stream
    from repro.store import render_lines

    rng = stream(31, "cli-results")
    directory.mkdir(parents=True)
    for ligand in ("P002", "P003"):
        for k in range(2):
            nsep, n_rot = 3, 4
            n = nsep * n_rot
            rec = np.zeros(n, dtype=RESULT_DTYPE)
            rec["isep"] = np.repeat(np.arange(1 + k * nsep, 1 + (k + 1) * nsep), n_rot)
            rec["irot"] = np.tile(np.arange(1, n_rot + 1), nsep)
            rec["igamma"] = rng.integers(1, 7, size=n)
            for f in ("x", "y", "z"):
                rec[f] = np.round(rng.normal(0.0, 40.0, n), 3)
            for f in ("alpha", "beta", "gamma"):
                rec[f] = np.round(rng.uniform(0.0, 6.28, n), 4)
            rec["e_lj"] = np.round(rng.normal(-30.0, 12.0, n), 4)
            rec["e_elec"] = np.round(rng.normal(-8.0, 4.0, n), 4)
            rec["e_tot"] = np.round(rec["e_lj"] + rec["e_elec"], 4)
            header = ResultHeader(
                receptor="P001", ligand=ligand, isep_start=1 + k * nsep,
                nsep=nsep, n_couples=n_rot, n_gamma=6,
            )
            write_results(
                directory / f"P001_{ligand}_{header.isep_start}.result",
                header, render_lines(rec),
            )
    if corrupt:
        victim = sorted(directory.iterdir())[0]
        lines = victim.read_text(encoding="ascii").splitlines()
        lines[-1] = lines[-1][:-13] + "% 13.4f" % 9.9e6
        victim.write_text("\n".join(lines) + "\n", encoding="ascii")
    return directory


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def invoke(argv: list[str], tmp: Path) -> dict:
    """Run one masked invocation of ``repro-hcmd`` in-process."""
    from repro.cli import main

    masks = {"{tmp}": str(tmp)}
    if "{port}" in argv:
        masks["{port}"] = str(_free_port())
    handle = None
    if "{served}" in argv:
        from repro import scaled_phase1
        from repro.service import serve_in_thread

        handle = serve_in_thread(
            scaled_phase1(scale=900, n_proteins=5, seed=11, horizon_weeks=30.0)
        )
        masks["{served}"] = "http://%s:%d" % handle.address

    def mask(text: str) -> list[str]:
        for placeholder, value in masks.items():
            text = text.replace(value, placeholder)
        return text.splitlines()

    real = []
    for arg in argv:
        for placeholder, value in masks.items():
            arg = arg.replace(placeholder, value)
        real.append(arg)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = main(real)
            except SystemExit as exc:  # --help and argparse usage errors
                status = exc.code or 0
    finally:
        if handle is not None:
            handle.stop()
    return {
        "argv": argv, "exit": status,
        "stdout": mask(out.getvalue()), "stderr": mask(err.getvalue()),
    }


def replay(tmp: Path) -> list[dict]:
    write_result_chunks(tmp / "chunks")
    write_result_chunks(tmp / "corrupt", corrupt=True)
    (tmp / "empty").mkdir()
    return [invoke(argv, tmp) for argv in INVOCATIONS]


RECORDED = json.loads(TRANSCRIPT.read_text()) if TRANSCRIPT.exists() else []


@pytest.fixture(scope="module")
def replayed(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal
        return replay(tmp_path_factory.mktemp("transcript"))


def test_transcript_covers_the_invocations():
    assert [entry["argv"] for entry in RECORDED] == INVOCATIONS
    assert {argv[0] for argv in INVOCATIONS} - {"--seed", "--help"} == set(COMMANDS)
    assert sum(entry["exit"] != 0 for entry in RECORDED) >= 8


@pytest.mark.parametrize(
    "index", range(len(RECORDED)),
    ids=[" ".join(entry["argv"]) for entry in RECORDED],
)
def test_invocation_matches_the_recording(replayed, index):
    assert replayed[index] == RECORDED[index]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as scratch:
        entries = replay(Path(scratch))
    TRANSCRIPT.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"recorded {len(entries)} invocations -> {TRANSCRIPT}", file=sys.stderr)
