"""The JSONL trace writer process behind :class:`repro.obs.JsonlSink`.

Scenarios that could hang on a broken implementation run in a child
interpreter under a timeout.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.maxdo.docking import dock_couple
from repro.obs import Tracer
from repro.proteins.model import synthesize_protein
from repro.rng import stream
from repro.service import SchedulerClient

REPO = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(REPO / "src")}
WRITER = REPO / "src" / "repro" / "obs" / "_jsonl_writer.py"


def run_child(code: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *args],
        env=ENV, capture_output=True, text=True, timeout=60,
    )


def n_lines(path: Path) -> int:
    return len(path.read_bytes().splitlines())


def emit_issues(tracer: Tracer, n: int) -> None:
    for i in range(n):
        tracer.emit("server.issue", t_sim=float(i), wu=i, host=i % 7)


@pytest.mark.parametrize("prelude", ["pass", "sys.modules['_json'] = None"])
def test_a_line_is_json_dumps_sorted_and_compact(prelude):
    """With or without the C accelerator, byte for byte."""
    events = [
        ("server.issue", "server", 1.5, 1e9 + 0.25, {"wu": 3, "host": 7}),
        ("docking.engine", "docking", None, 2.0, {
            "zeta": {"b": 1, "a": [True, None, float("inf")]},
            "name": "\u00e9\n", "n": -0.0, "big": 2**70,
        }),
    ]
    payload = pickle.dumps(events)
    done = subprocess.run(
        [
            sys.executable, "-c",
            f"import runpy, sys; {prelude}; sys.argv = ['writer', '1']; "
            f"runpy.run_path({str(WRITER)!r}, run_name='__main__')",
        ],
        input=len(payload).to_bytes(4, "little") + payload + bytes(4),
        capture_output=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode("ascii").splitlines() == [
        json.dumps(
            {"v": 1, "type": etype, "ch": ch, "t_sim": t_sim, "t_wall": t_wall, **fields},
            sort_keys=True, separators=(",", ":"),
        )
        for etype, ch, t_sim, t_wall, fields in events
    ]


def test_unclosed_sink_reaches_the_file_at_exit(tmp_path):
    path = tmp_path / "t.jsonl"
    done = run_child("""
        import sys
        from repro.obs import Tracer
        tracer = Tracer.to_jsonl(sys.argv[1])
        for i in range(10):
            tracer.emit("server.issue", t_sim=float(i), wu=i, host=1)
    """, str(path))
    assert done.returncode == 0, done.stderr
    assert n_lines(path) == 10


def test_killed_writer_raises_naming_the_path(tmp_path):
    path = tmp_path / "t.jsonl"
    done = run_child("""
        import os, signal, sys
        from repro.obs import Tracer
        tracer = Tracer.to_jsonl(sys.argv[1])
        for i in range(200):
            tracer.emit("server.issue", t_sim=float(i), wu=i, host=1)
        os.kill(tracer.sink._proc.pid, signal.SIGKILL)
        tracer.sink._proc.wait()
        try:
            for i in range(200):
                tracer.emit("server.issue", t_sim=float(i), wu=i, host=1)
            tracer.close()
        except OSError as exc:
            print(exc)
    """, str(path))
    assert done.returncode == 0, done.stderr
    assert str(path) in done.stdout
    assert "exit status -9" in done.stdout


def test_unencodable_field_raises_at_close_and_reaps_the_writer(tmp_path):
    path = tmp_path / "t.jsonl"
    tracer = Tracer.to_jsonl(path)
    tracer.emit("server.issue", wu=object(), host=1)
    with pytest.raises(OSError, match="not JSON serializable") as info:
        tracer.close()
    assert str(path) in str(info.value)
    assert tracer.sink._proc.returncode not in (None, 0)


def test_sigint_to_the_writer_does_not_truncate_the_trace(tmp_path):
    path = tmp_path / "t.jsonl"
    tracer = Tracer.to_jsonl(path)
    deadline = time.monotonic() + 30
    while path.stat().st_size == 0:  # the writer is past its start-up
        assert time.monotonic() < deadline
        emit_issues(tracer, 640)
    os.kill(tracer.sink._proc.pid, signal.SIGINT)
    emit_issues(tracer, 640)
    tracer.close()
    assert n_lines(path) == tracer.n_events


def test_a_forked_copy_leaves_the_stream_to_its_parent(tmp_path):
    path = tmp_path / "t.jsonl"
    tracer = Tracer.to_jsonl(path)
    emit_issues(tracer, 100)  # the last 36 are still buffered
    pid = os.fork()
    if pid == 0:
        try:
            tracer.close()  # the child's copy: must send nothing
        finally:
            os._exit(0)
    os.waitpid(pid, 0)
    emit_issues(tracer, 100)
    tracer.close()
    assert n_lines(path) == tracer.n_events == 200


def test_docking_workers_do_not_write_into_the_parents_trace(tmp_path):
    path = tmp_path / "t.jsonl"
    rec = synthesize_protein("REC", 12, stream(7, "r"))
    lig = synthesize_protein("LIG", 10, stream(7, "l"))
    # Enough positions that an inherited tracer would fill and flush a
    # worker's copy of any buffer the parent's sink holds.
    tracer = Tracer.to_jsonl(path)
    dock_couple(rec, lig, nsep=160, n_couples=2, n_gamma=1,
                max_iterations=1, n_workers=2, tracer=tracer)
    tracer.close()
    lines = path.read_bytes().splitlines()
    assert len(lines) == tracer.n_events == 2
    assert [json.loads(line)["type"] for line in lines] == [
        "docking.engine", "docking.fanout",
    ]


def test_serve_survives_ctrl_c_to_its_process_group(tmp_path):
    path = tmp_path / "serve.jsonl"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "--seed", "11", "serve",
            "--scale", "900", "--proteins", "5", "--horizon-weeks", "30",
            "--port", "0", "--trace", str(path),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=ENV,
        cwd=REPO, start_new_session=True,
    )
    client = None
    try:
        line = proc.stdout.readline()
        match = re.search(r"serving campaign .* at (http://\S+)", line)
        assert match, (line, proc.stderr.read() if proc.poll() is not None else "")
        client = SchedulerClient.from_url(match.group(1), timeout=10)
        for host in range(5):
            client.request_work(host=host, t=10.0 * host)
        client.close()
        client = None
        os.killpg(proc.pid, signal.SIGINT)  # a terminal's Ctrl-C
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        if client is not None:
            client.close()
    assert proc.returncode == 0, err
    n_events = int(re.search(r"trace: ([\d,]+) events", out).group(1).replace(",", ""))
    assert n_events > 5
    assert n_lines(path) == n_events
