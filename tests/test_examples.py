"""The scripts under ``examples/`` run end to end: each is started as a
subprocess from an empty directory (so it writes nothing into the repo and
reads nothing relative to it) and must exit 0.  ``betweenness_centrality.py``
is left out: it takes seconds where the others take a fraction of one."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "script",
    (
        "codegen_tour",
        "quickstart",
        "shortest_paths_routing",
        "social_network_analysis",
        "web_graph_study",
    ),
)
def test_example_runs(script, tmp_path):
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, str(EXAMPLES / f"{script}.py")],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
