"""Spans recorded around the program's public functions, and the per-layer
metrics derived from them.

A ``Tracer`` replaces module-level names with wrappers that record a span
(name, start, end, parent, attributes) per call.  The program looks these
names up through its module globals at call time (``harness`` calls
``sample_batch`` and ``summarize``; ``stats.summarize`` calls ``two_core``,
``kernel``, ``diameter``; ``degset.phi1`` calls ``egf_eval``),
so replacing the global is enough to see every call without editing the
program.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

from degwin import asymptotics, critical, degset, graph, harness, sampler, stats


def _trial_counts(args, result) -> dict:
    graphs, attempts = result
    return {"m": args[1].two_m // 2, "trials": len(graphs), "attempts": sum(attempts)}


def _summary_flags(args, result) -> dict:
    return {
        "m": args[0].m,
        "complex": result.total_excess > 0,
        "lengths": result.complex_longest_path >= 0,
    }


# (span name, attribute-extractor, [(module, global name), ...]).  The same
# function is often reachable under several globals (``harness`` and
# ``sampler`` import ``critical_point`` by name); each gets the same wrapper.
SPANS = (
    ("harness.run_experiment", None, [(harness, "run_experiment")]),
    ("harness.aggregate_rows", None, [(harness, "aggregate_rows")]),
    ("critical.critical_point", None,
     [(critical, "critical_point"), (harness, "critical_point"), (sampler, "critical_point")]),
    ("degset.egf_eval", None, [(degset, "egf_eval"), (critical, "egf_eval")]),
    ("sampler.edges_for_mu", None, [(sampler, "edges_for_mu"), (harness, "edges_for_mu")]),
    ("sampler.build_dp", None, [(sampler, "build_dp")]),
    ("sampler.sample_batch", _trial_counts, [(harness, "sample_batch")]),
    ("stats.summarize", _summary_flags, [(harness, "summarize")]),
    ("graph.component_labels", None, [(stats, "component_labels")]),
    ("graph.two_core", None, [(stats, "two_core")]),
    ("graph.sprout_data", None, [(stats, "sprout_data")]),
    ("graph.kernel", None, [(stats, "kernel")]),
    ("stats.longest_path", None, [(stats, "longest_path")]),
    ("stats.circumference", None, [(stats, "circumference")]),
    ("stats.is_planar", None, [(stats, "is_planar")]),
    ("stats.diameter", None, [(stats, "diameter")]),
    ("asymptotics.predict", None, [(asymptotics, "predict")]),
    ("asymptotics.twopath_constants", None, [(asymptotics, "twopath_constants")]),
)


class Tracer:
    """In-memory span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, attrs)
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str):
        return _Span(self, name)

    def wrap(self, name: str, fn, describe=None):
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
                if describe is not None:
                    s.attrs = describe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, describe, targets in SPANS:
            original = getattr(*targets[0])
            wrapper = self.wrap(name, original, describe)
            for module, attr in targets:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapper)
        # A classmethod is looked up on the class, so it is patched there.
        raw = graph.Graph.__dict__["from_simple_arrays"]
        self._saved.append((graph.Graph, "from_simple_arrays", raw))
        graph.Graph.from_simple_arrays = classmethod(
            self.wrap("graph.from_simple_arrays", raw.__func__)
        )

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **extra,
            "span_fields": ["name", "start_s", "end_s", "parent", "attrs"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


class _Span:
    __slots__ = ("tracer", "name", "attrs", "start", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name, self.attrs = tracer, name, None

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        parent = t._stack[-1] if t._stack else -1
        t.spans[self.index] = (self.name, self.start, end, parent, self.attrs)
        return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[tuple], import_ms: dict[str, float], table_mb: float) -> dict:
    """Per-layer metrics (self times: a span minus its direct children)."""
    child_time = [0.0] * len(spans)
    children: list[list[int]] = [[] for _ in spans]
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            children[parent].append(i)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total(name: str, self_only: bool = False) -> float:
        return sum(
            spans[i][2] - spans[i][1] - (child_time[i] if self_only else 0.0)
            for i in by_name.get(name, ())
        )

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def per_call_ms(name: str) -> float:
        return _ratio(1e3 * total(name), count(name))

    # A critical_point span that evaluated the EGF was a solve; the others
    # were answered from its result cache.
    solves = [
        i for i in by_name.get("critical.critical_point", ())
        if any(spans[c][0] == "degset.egf_eval" for c in children[i])
    ]
    egf = [c for i in solves for c in children[i] if spans[c][0] == "degset.egf_eval"]
    batches = [spans[i][4] for i in by_name.get("sampler.sample_batch", ())]
    trials = sum(b["trials"] for b in batches)
    attempts = sum(b["attempts"] for b in batches)
    flags = [spans[i][4] for i in by_name.get("stats.summarize", ())]
    complex_trials = sum(1 for f in flags if f["complex"])
    with_lengths = sum(1 for f in flags if f["complex"] and f["lengths"])
    setups = [
        sum(spans[c][2] - spans[c][1] for c in children[i] if spans[c][0] == "sampler.build_dp")
        for i in by_name.get("bench.setup", ())
    ]

    out = {
        "degset.egf_evals_per_solve": ("count", _ratio(len(egf), len(solves))),
        "degset.egf_ms_per_solve": (
            "ms", _ratio(1e3 * sum(spans[c][2] - spans[c][1] for c in egf), len(solves))
        ),
        "critical.solve_ms": (
            "ms",
            _ratio(1e3 * sum(spans[i][2] - spans[i][1] - child_time[i] for i in solves),
                   len(solves)),
        ),
        "asymptotics.predict_ms": ("ms", per_call_ms("asymptotics.predict")),
        "asymptotics.twopath_ms": ("ms", per_call_ms("asymptotics.twopath_constants")),
        "sampler.build_dp_s": ("s", statistics.median(setups) if setups else 0.0),
        "sampler.table_mb": ("MB", table_mb),
        "sampler.sample_ms_per_trial": (
            "ms", _ratio(1e3 * total("sampler.sample_batch", self_only=True), trials)
        ),
        "sampler.attempts_per_trial": ("count", _ratio(attempts, trials)),
        "sampler.accept_ratio": ("ratio", _ratio(trials, attempts)),
        "graph.from_arrays_ms_per_trial": (
            "ms", _ratio(1e3 * total("graph.from_simple_arrays"), trials)
        ),
        "graph.component_labels_ms_per_trial": (
            "ms", _ratio(1e3 * total("graph.component_labels"), trials)
        ),
    }
    for name in ("two_core", "sprout_data", "kernel"):
        out[f"graph.{name}_ms_per_complex_trial"] = (
            "ms", _ratio(1e3 * total(f"graph.{name}"), complex_trials)
        )
    out["stats.summarize_ms_per_trial"] = (
        "ms", _ratio(1e3 * total("stats.summarize", self_only=True), trials)
    )
    for name in ("longest_path", "circumference", "is_planar", "diameter"):
        out[f"stats.{name}_ms_per_call"] = ("ms", per_call_ms(f"stats.{name}"))
    out["stats.complex_trials"] = ("count", complex_trials)
    out["stats.lengths_computed_ratio"] = ("ratio", _ratio(with_lengths, complex_trials))
    out["harness.self_ms_per_trial"] = (
        "ms", _ratio(1e3 * total("harness.run_experiment", self_only=True), trials)
    )
    out["harness.aggregate_rows_ms"] = ("ms", per_call_ms("harness.aggregate_rows"))
    for module, ms in import_ms.items():
        out[f"{module}.import_ms"] = ("ms", ms)
    return out


def per_point(spans: list[tuple]) -> dict[int, dict]:
    """Sampling and summarising cost per edge count m, from a traced sweep.

    Sampling time includes graph construction, and summarising time
    includes the graph and stats calls it makes.
    """
    acc: dict[int, dict] = {}
    for name, start, end, _, attrs in spans:
        if name not in ("sampler.sample_batch", "stats.summarize"):
            continue
        a = acc.setdefault(
            attrs["m"], {"trials": 0, "attempts": 0, "complex": 0, "sample_s": 0.0, "summarize_s": 0.0}
        )
        if name == "sampler.sample_batch":
            a["trials"] += attrs["trials"]
            a["attempts"] += attrs["attempts"]
            a["sample_s"] += end - start
        else:
            a["complex"] += attrs["complex"]
            a["summarize_s"] += end - start
    out = {}
    for m, a in sorted(acc.items()):
        t = a["trials"]
        out[m] = {
            "trials": t,
            "sample_ms_per_trial": _ratio(1e3 * a["sample_s"], t),
            "summarize_ms_per_trial": _ratio(1e3 * a["summarize_s"], t),
            "attempts_per_trial": _ratio(a["attempts"], t),
            "complex_share": _ratio(a["complex"], t),
        }
    return out
