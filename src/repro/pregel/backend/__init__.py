"""Pluggable execution backends for compiled Pregel programs.

``sim`` is the dict-based simulator (default, parity oracle), ``columnar``
stores vertex properties in typed arrays and stages messages as packed
struct slabs, and ``mp`` runs real worker processes that exchange those
slabs through shared memory.  All backends are observationally identical
on ``RunMetrics.parity_key()`` and program outputs; select one with
``CompiledProgram.make_engine(backend=...)`` or ``--backend`` on the CLI.
"""

from __future__ import annotations

from .base import BackendUnsupported, ExecutionBackend

#: registry keys, in documentation order (sim first: it is the default).
BACKENDS = ("sim", "columnar", "mp")


def get_backend(backend) -> ExecutionBackend:
    """Resolve a backend name (or pass through an instance) to a backend.

    Imports lazily so selecting ``sim`` never loads the array engines
    (``columnar`` / ``mp`` / the codec) — numpy itself is loaded by then:
    importing ``repro`` does not need it, building a ``Graph`` does.  Raises
    ``ValueError`` — a usage error, exit code 2 on the CLI — for unknown
    names.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend == "sim" or backend is None:
        from .sim import SimBackend

        return SimBackend()
    if backend == "columnar":
        from .columnar import ColumnarBackend

        return ColumnarBackend()
    if backend == "mp":
        from .mp import MPBackend

        return MPBackend()
    raise ValueError(
        f"unknown backend {backend!r} (expected one of {', '.join(BACKENDS)})"
    )


__all__ = [
    "BACKENDS",
    "BackendUnsupported",
    "ExecutionBackend",
    "get_backend",
]
