"""Labeled metrics registry: counters, gauges, and log-bucketed histograms.

Where the tracer (:mod:`repro.obs.tracer`) records an *ordered stream* of
events for one run, the registry holds *cumulative quantities*, each
counted in one place:

* the run's ledger totals (every ``RunMetrics`` count, ``ft``/``mem``/
  ``supervisor``/``net`` included, and the simulated transport's
  ``stats``) are exported once, when a run ends, by the table
  ``repro.pregel.runtime.LEDGER_FAMILIES``, so they equal the ledger and
  the trace, rollback replays and all;
* per superstep the engine adds only distributions of its phase clocks
  (``pregel.superstep_seconds``/``phase_seconds``/``frontier_size``);
* what no ledger holds is counted where it happens: ``columnar.*`` by the
  slab plane, ``pregel.loop_vertices`` by the vertex phase, ``mp.*`` and
  ``tcp.*`` by the ``mp`` parent from the counts its workers' replies carry.

The same zero-cost discipline as the tracer applies:

* :class:`MetricsRegistry` — the recording implementation.  ``enabled`` is
  ``True``; instruments are handles (:class:`Counter`, :class:`Gauge`,
  :class:`Histogram`) created once and bumped with plain attribute math.
* :class:`NullRegistry` — every instrument factory returns a shared no-op
  handle and ``enabled`` is ``False``.  The engine treats
  ``metrics_registry=None`` and a disabled registry identically: the hot
  loops are untouched (asserted <5% in ``benchmarks/bench_obs.py``).

Instrument identity is ``(name, sorted(labels))``; asking twice returns the
same handle, asking with a different instrument type raises.  Histograms are
log-bucketed at powers of two (``math.frexp`` exponents), stored sparsely.
Counters add and gauges keep the maximum (every gauge is a peak), so one
registry can meter several runs.

Like trace events' ``det``/``info`` split, every instrument carries a
``det`` flag: deterministic families (message counts, superstep totals)
must be bit-identical across ``sim``/``columnar``/``mp`` on identical runs;
timing families are not.  :func:`deterministic_snapshot` projects a
snapshot down to its deterministic half so tests can assert cross-backend
equality, mirroring ``deterministic_events`` for traces.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: dict) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, amount=1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value merged by ``max`` (peaks / high-water marks)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = 0

    def set(self, value) -> None:
        self.value = value

    def set_max(self, value) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """A log-bucketed distribution: one sparse bucket per power of two.

    ``observe(v)`` files ``v`` under the bucket whose upper bound is the
    smallest power of two >= ``v`` (``math.frexp`` exponent — no log call,
    no bucket-list scan).  Non-positive observations share a single
    underflow bucket with upper bound 0.
    """

    __slots__ = ("count", "total", "vmin", "vmax", "buckets")
    kind = "histogram"

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.vmin = math.inf
        self.vmax = -math.inf
        self.buckets: Dict[int, int] = {}  # frexp exponent -> count

    def observe(self, value) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        if value > 0.0:
            mantissa, exp = math.frexp(value)
            if mantissa == 0.5:  # exact power of two belongs in its own bucket
                exp -= 1
            self.buckets[exp] = self.buckets.get(exp, 0) + 1
        else:
            self.buckets[_UNDERFLOW] = self.buckets.get(_UNDERFLOW, 0) + 1

    def bounds(self) -> Iterator[Tuple[float, int]]:
        """``(upper_bound, count)`` pairs in ascending bound order."""
        for exp in sorted(self.buckets):
            bound = 0.0 if exp == _UNDERFLOW else math.ldexp(1.0, exp)
            yield bound, self.buckets[exp]


#: Sentinel exponent for the <= 0 bucket; far below any frexp result.
_UNDERFLOW = -5000


class _NullInstrument:
    """One shared handle standing in for every disabled instrument."""

    __slots__ = ()

    def inc(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def set_max(self, value) -> None:
        pass

    def observe(self, value) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The do-nothing registry: the default metrics configuration.

    ``enabled`` is ``False`` so instrumented call-sites skip their
    bookkeeping entirely; the factories still hand back a working (no-op)
    instrument so code that holds handles unconditionally stays correct.
    """

    enabled = False

    def counter(self, name, det=False, **labels):
        return _NULL_INSTRUMENT

    def gauge(self, name, det=False, **labels):
        return _NULL_INSTRUMENT

    def histogram(self, name, det=False, **labels):
        return _NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {}


#: Shared no-op instance — safe because NullRegistry holds no state.
NULL_REGISTRY = NullRegistry()


class MetricsRegistry:
    """A recording registry: one per measured execution, or shared by
    several runs whose totals it adds up."""

    enabled = True

    def __init__(self):
        # name -> (kind, det, {label_key: instrument})
        self._families: Dict[str, Tuple[str, bool, Dict[LabelKey, object]]] = {}

    def _instrument(self, name, cls, det, labels):
        family = self._families.get(name)
        if family is None:
            family = (cls.kind, bool(det), {})
            self._families[name] = family
        elif family[0] != cls.kind:
            raise ValueError(
                f"metric {name!r} already registered as {family[0]}, not {cls.kind}"
            )
        series = family[2]
        key = _label_key(labels)
        inst = series.get(key)
        if inst is None:
            inst = series[key] = cls()
        return inst

    def counter(self, name: str, det: bool = False, **labels) -> Counter:
        return self._instrument(name, Counter, det, labels)

    def gauge(self, name: str, det: bool = False, **labels) -> Gauge:
        return self._instrument(name, Gauge, det, labels)

    def histogram(self, name: str, det: bool = False, **labels) -> Histogram:
        return self._instrument(name, Histogram, det, labels)

    def snapshot(self) -> dict:
        """A plain JSON-serializable dict of every family, deterministically
        ordered (names sorted, series sorted by label tuple)."""
        out: dict = {}
        for name in sorted(self._families):
            kind, det, series = self._families[name]
            rows = []
            for key in sorted(series):
                inst = series[key]
                row: dict = {"labels": dict(key)}
                if kind == "histogram":
                    row["count"] = inst.count
                    row["sum"] = inst.total
                    if inst.count:
                        row["min"] = inst.vmin
                        row["max"] = inst.vmax
                    row["buckets"] = [[b, c] for b, c in inst.bounds()]
                else:
                    row["value"] = inst.value
                rows.append(row)
            out[name] = {"kind": kind, "det": det, "series": rows}
        return out


def deterministic_snapshot(snap: dict) -> dict:
    """The deterministic projection of a snapshot: only families flagged
    ``det``, and for histograms only their counts.  This is the dict
    asserted equal across sim/columnar/mp."""
    out = {}
    for name, family in snap.items():
        if not family.get("det"):
            continue
        if family["kind"] == "histogram":
            rows = [
                {"labels": r["labels"], "count": r["count"]}
                for r in family["series"]
            ]
        else:
            rows = [dict(r) for r in family["series"]]
        out[name] = {"kind": family["kind"], "series": rows}
    return out


# -- exposition ----------------------------------------------------------


def _prom_name(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{_prom_name(k)}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _prom_value(v) -> str:
    if isinstance(v, float):
        if v == math.inf:
            return "+Inf"
        return repr(v)
    return str(v)


def prometheus_text(snap: dict) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict in the Prometheus
    text exposition format (histograms as cumulative ``_bucket`` series
    plus ``_sum``/``_count``)."""
    lines = []
    for name in sorted(snap):
        family = snap[name]
        pname = _prom_name(name)
        kind = family["kind"]
        lines.append(f"# TYPE {pname} {kind}")
        for row in family["series"]:
            labels = row["labels"]
            if kind == "histogram":
                cumulative = 0
                for bound, count in row["buckets"]:
                    cumulative += count
                    le = dict(labels)
                    le["le"] = _prom_value(float(bound))
                    lines.append(f"{pname}_bucket{_prom_labels(le)} {cumulative}")
                le = dict(labels)
                le["le"] = "+Inf"
                lines.append(f"{pname}_bucket{_prom_labels(le)} {row['count']}")
                lines.append(f"{pname}_sum{_prom_labels(labels)} {_prom_value(row['sum'])}")
                lines.append(f"{pname}_count{_prom_labels(labels)} {row['count']}")
            else:
                lines.append(f"{pname}{_prom_labels(labels)} {_prom_value(row['value'])}")
    return "\n".join(lines) + "\n"
