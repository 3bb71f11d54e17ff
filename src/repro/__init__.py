"""repro — a reproduction of "Simplifying Scalable Graph Processing with a
Domain-Specific Language" (Hong, Salihoglu, Widom, Olukotun; CGO 2014).

The package contains the full system the paper describes, in Python:

* a Green-Marl frontend (``repro.lang``) and reference interpreter
  (``repro.interp``);
* the Pregel-canonical transformations of §4.1 (``repro.transform``) and the
  §3.1 translation rules plus §4.2 optimizations (``repro.translate``);
* code generation (``repro.codegen``): an executable backend and a GPS-style
  Java emitter;
* a GPS/Pregel simulator with message and network-I/O metering
  (``repro.pregel``);
* the paper's six algorithms, hand-written Pregel baselines, workload
  generators and the benchmark harness regenerating every table and figure
  (``repro.algorithms``, ``repro.graphgen``, ``repro.bench``).

Quick start::

    from repro import compile_source, interpret
    from repro.graphgen import twitter_like, attach_standard_props

    graph = attach_standard_props(twitter_like(1000, avg_degree=10))
    compiled = compile_source(open("examples/my_algorithm.gm").read())
    result = compiled.program.run(graph, {"K": 25})
"""

import importlib

__version__ = "1.0.0"

#: where each re-export lives.  Resolved on first access (PEP 562), so
#: ``from repro.graphgen import load_graph`` loads no compiler and
#: ``import repro`` costs what the caller goes on to use.
_EXPORTS = {
    "CompilationResult": ".compiler",
    "compile_algorithm": ".compiler",
    "compile_procedure": ".compiler",
    "compile_source": ".compiler",
    "interpret": ".interp",
    "GreenMarlError": ".lang",
    "NotPregelCanonicalError": ".lang",
    "parse_procedure": ".lang",
    "pretty": ".lang",
    "Graph": ".pregel",
    "PregelEngine": ".pregel",
    "RunMetrics": ".pregel",
}

__all__ = [*sorted(_EXPORTS), "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module, __name__), name)
    return value
