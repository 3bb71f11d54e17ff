"""Child launcher: runs commands for the benchmark from a small process.

Linux seeds a child's ``ru_maxrss`` with the resident size of the process
that forked it, so a CLI child started from the benchmark process — which
holds the generated graphs — would report the benchmark's memory, not its
own.  This helper stays a few MB, so ``os.wait4`` on its children reads
the child's own peak.

Protocol, one JSON object per line: request ``{"argv", "env", "stdout",
"timeout"}`` on stdin, reply ``{"exit", "wall_s", "maxrss_kb"}`` on stdout.
The child's stdout and stderr go to the file ``stdout`` names.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                req["argv"], stdout=out, stderr=subprocess.STDOUT, env=req["env"]
            )
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            killer.cancel()
        reply = {"exit": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


class Spawner:
    """The benchmark's handle on one launcher process."""

    def __init__(self, env: dict[str, str]):
        self.env = env
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv: list[str], stdout: Path, timeout: float = 150.0) -> dict:
        """Run ``argv`` to completion; returns the reply plus ``output``."""
        req = {"argv": argv, "env": self.env, "stdout": str(stdout), "timeout": timeout}
        self._proc.stdin.write(json.dumps(req) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("the child launcher exited unexpectedly")
        reply = json.loads(line)
        reply["output"] = stdout.read_text(errors="replace")
        return reply

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
