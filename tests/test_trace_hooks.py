"""The benchmark's tracer patches program names by string; a rename in
``graph`` or ``stats`` must fail here, not in the next traced benchmark run."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmark"))

import tracing  # noqa: E402
from degwin import graph, stats  # noqa: E402


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
