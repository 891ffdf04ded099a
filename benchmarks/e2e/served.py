"""The served scheduler subprocess of ``wire_replay`` (``repro-hcmd serve``).

Standard library only, so the worker can launch the server *before* it
pays its own ``import repro``: the two imports then overlap, one per
core, as an operator starting both sides would see.
"""

from __future__ import annotations

import re
import select
import signal
import subprocess
import sys
import time

_URL = re.compile(r"serving campaign .* at (http://\S+)")


class Served:
    """One ``repro-hcmd serve`` process on an OS-picked port."""

    def __init__(self, params: dict, seed: int) -> None:
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "--seed", str(seed), "serve",
                "--scale", str(params["scale"]),
                "--proteins", str(params["n_proteins"]),
                "--horizon-weeks", str(params["horizon_weeks"]),
                "--port", "0",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self._seen: list[str] = []

    def url(self, timeout: float = 120.0) -> str:
        """Block until the server prints its "serving" line."""
        deadline = time.monotonic() + timeout
        out = self.proc.stdout
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([out], [], [], left)[0]:
                raise RuntimeError(
                    f"served process silent for {timeout}s: {self._seen}"
                )
            line = out.readline()
            if not line:
                raise RuntimeError(
                    f"served process exited ({self.proc.wait()}): {self._seen}"
                )
            self._seen.append(line.rstrip())
            match = _URL.search(line)
            if match:
                return match.group(1)

    def stop(self) -> None:
        """SIGTERM (the server drains), then reap; SIGKILL if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
