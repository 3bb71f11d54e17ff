"""Golden-artifact regression tests.

AvgTeen's generated Java, executable Python vertex program and master and
canonical Green-Marl, and PageRank's master, are pinned under
``tests/goldens/``.  A failure here means code generation changed — inspect
the diff, and if intentional, regenerate with:

    python - <<'PY'
    from repro.compiler import compile_algorithm
    from pathlib import Path
    r = compile_algorithm("avg_teen_cnt")
    Path("tests/goldens/avg_teen_cnt.java").write_text(r.java_source)
    Path("tests/goldens/avg_teen_cnt.vertex.py").write_text(r.program.vertex_source)
    Path("tests/goldens/avg_teen_cnt.canonical.gm").write_text(r.canonical_source)
    for name in ("avg_teen_cnt", "pagerank"):
        m = compile_algorithm(name, emit_java=False).program.master_source
        Path(f"tests/goldens/{name}.master.py").write_text(m)
    PY
"""

from pathlib import Path

import pytest

from repro.compiler import compile_algorithm

GOLDEN_DIR = Path(__file__).parent / "goldens"


def test_java_golden():
    compiled = compile_algorithm("avg_teen_cnt")
    assert compiled.java_source == (GOLDEN_DIR / "avg_teen_cnt.java").read_text()


def test_vertex_program_golden():
    compiled = compile_algorithm("avg_teen_cnt", emit_java=False)
    assert compiled.program.vertex_source == (
        GOLDEN_DIR / "avg_teen_cnt.vertex.py"
    ).read_text()


@pytest.mark.parametrize("name", ["avg_teen_cnt", "pagerank"])
def test_master_program_golden(name):
    """PageRank's master covers the intra-loop ``_is_first_1`` head, a
    finalize, an ``and`` branch and falling off the end."""
    compiled = compile_algorithm(name, emit_java=False)
    assert compiled.program.master_source == (
        GOLDEN_DIR / f"{name}.master.py"
    ).read_text()


def test_canonical_form_golden():
    compiled = compile_algorithm("avg_teen_cnt", emit_java=False)
    assert compiled.canonical_source == (
        GOLDEN_DIR / "avg_teen_cnt.canonical.gm"
    ).read_text()


def test_compilation_is_deterministic():
    """Two independent compilations emit byte-identical artifacts."""
    a = compile_algorithm("bc_approx")
    b = compile_algorithm("bc_approx")
    assert a.java_source == b.java_source
    assert a.program.vertex_source == b.program.vertex_source
    assert a.program.master_source == b.program.master_source
    assert a.canonical_source == b.canonical_source
