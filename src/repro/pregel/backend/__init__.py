"""Pluggable execution backends for compiled Pregel programs.

A backend decides the *physical* execution of a compiled program — how
vertex properties are stored, how messages are represented in flight, and
which superstep body runs — while the logical model (the IR, the generated
vertex/master code, the metrics ledger) stays fixed.  A backend is its
engine class: ``sim`` is :class:`~repro.pregel.runtime.PregelEngine`, the
dict-based simulator (default, parity oracle); ``columnar`` is
:class:`~repro.pregel.backend.columnar.ColumnarEngine`, which stores vertex
properties in typed arrays and stages messages as packed struct slabs; and
``mp`` is :class:`~repro.pregel.backend.mp.MPEngine`, which runs real worker
processes that exchange those slabs through shared memory.  Each class
converts a program's list columns to its storage (``build_columns``) and
back (``column_values``), takes a program's columns and array code
(``bind_program``), and states the compositions it refuses (``refusal``).
All backends are observationally identical on ``RunMetrics.parity_key()``
and program outputs; select one with
``CompiledProgram.make_engine(backend=...)`` or ``--backend`` on the CLI.
"""

from __future__ import annotations

#: registry keys, in documentation order (sim first: it is the default).
BACKENDS = ("sim", "columnar", "mp")


class BackendUnsupported(ValueError):
    """A feature composition the selected backend deliberately refuses.

    Backends that cannot honor a requested feature (a simulated transport on
    the multiprocessing backend, say) must raise this instead of silently
    computing something different — a clean usage error, never a silent
    wrong answer.
    """


def get_backend(name: str) -> type:
    """The engine class a backend name selects.

    Imports lazily so selecting ``sim`` never loads the array engines
    (``columnar`` / ``mp`` / the codec) — numpy itself is loaded by then:
    importing ``repro`` does not need it, building a ``Graph`` does.  Raises
    ``ValueError`` — a usage error, exit code 2 on the CLI — for unknown
    names.
    """
    if name == "sim":
        from ..runtime import PregelEngine

        return PregelEngine
    if name == "columnar":
        from .columnar import ColumnarEngine

        return ColumnarEngine
    if name == "mp":
        from .mp import MPEngine

        return MPEngine
    raise ValueError(
        f"unknown backend {name!r} (expected one of {', '.join(BACKENDS)})"
    )


__all__ = ["BACKENDS", "BackendUnsupported", "get_backend"]
