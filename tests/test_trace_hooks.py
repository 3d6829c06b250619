"""The benchmark's tracer patches program names by string and reads the
arguments and results of some of them; a rename or a signature change must
fail here, not in the next traced benchmark run."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import tracing  # noqa: E402
from degwin import critical, graph, harness, stats  # noqa: E402


def test_install_wraps_every_hook_and_uninstall_restores():
    originals = {
        (module, attr): getattr(module, attr)
        for _, _, targets in tracing.SPANS
        for module, attr in targets
    }
    raw = graph.Graph.__dict__["from_simple_arrays"]
    assert isinstance(raw, classmethod)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, _, targets in tracing.SPANS:
            first = originals[targets[0]]
            for target in targets:
                # Every global of a span names the same function, so one
                # wrapper sees all of its calls.
                assert originals[target] is first, (name, target)
                assert getattr(*target).__wrapped__ is first, (name, target)
        patched = graph.Graph.__dict__["from_simple_arrays"]
        assert patched.__func__.__wrapped__ is raw.__func__
        # A theta graph plus a pendant vertex: summarize reaches every
        # structure hook through the stats globals.
        u = np.array([1, 1, 1, 2, 3, 4, 5], dtype=np.int64)
        v = np.array([3, 4, 5, 3, 6, 6, 6], dtype=np.int64)
        stats.summarize(graph.Graph.from_simple_arrays(6, u, v))
    finally:
        tracer.uninstall()
    seen = {span[0] for span in tracer.spans}
    assert seen == {
        "graph.from_simple_arrays",
        "graph.component_labels",
        "graph.two_core",
        "graph.sprout_data",
        "graph.kernel",
        "stats.longest_path",
        "stats.circumference",
        "stats.is_planar",
        "stats.diameter",
    }
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original, attr
    assert graph.Graph.__dict__["from_simple_arrays"] is raw


def test_traced_sweep_emits_every_layer_span():
    # An empty cache makes critical_point solve, so its EGF calls show.
    critical.critical_point.cache_clear()
    cfg = harness.ExperimentConfig("1,3", n=30, trials=4, seed=5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        table = harness.run_experiment(cfg)
    finally:
        tracer.uninstall()
    assert len(table.rows) == 4
    spans = tracer.spans
    seen = {span[0] for span in spans}
    assert {
        "harness.run_experiment",
        "harness.aggregate_rows",
        "sampler.edges_for_mu",
        "sampler.sample_batch",
        "critical.critical_point",
        "degset.egf_eval",
        "stats.summarize",
    } <= seen
    batches = [span[4] for span in spans if span[0] == "sampler.sample_batch"]
    assert sum(b["trials"] for b in batches) == 4
    assert sum(b["attempts"] for b in batches) >= 4
    assert {b["m"] for b in batches} == {table.rows[0].m}
    metrics = tracing.layer_metrics(spans, {}, 0.0)
    assert metrics["sampler.attempts_per_trial"][1] >= 1.0
    assert metrics["degset.egf_evals_per_solve"][1] > 0
