"""The benchmark's checks accept right outputs and reject wrong ones.

    PYTHONPATH=src python3 -m pytest -q benchmark
"""

from __future__ import annotations

import dataclasses
import math

import pytest

import checks
from degwin import asymptotics, critical, sampler, stats
from degwin.degset import parse_degree_set
from degwin.harness import TrialRow

# K4 on 1..4 (excess 2) and the path 5-6-7.
K4_PLUS_PATH = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (5, 6), (6, 7)]
K4_ROW = TrialRow(
    trial=0, n=7, m=8, realized_mu=0.0, attempts=1, largest_component=4,
    largest_excess=2, total_excess=2, complex_size=4, complex_diameter=1,
    complex_longest_path=3, complex_circumference=4, planar=True,
)
K5 = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]


def problems(row, edges=K4_PLUS_PATH, n=7, m=8, degrees=(1, 2, 3), guard=12):
    return checks.check_trial(row, edges, n, m, degrees, guard)


def test_right_row_passes():
    assert problems(K4_ROW) == []


@pytest.mark.parametrize(
    "field, value",
    [
        ("total_excess", 3),
        ("largest_component", 3),
        ("largest_excess", 1),
        ("complex_size", 5),
        ("complex_diameter", 2),
        ("complex_longest_path", 4),
        ("complex_circumference", 3),
        ("planar", False),
    ],
)
def test_corrupted_field_fails(field, value):
    found = problems(dataclasses.replace(K4_ROW, **{field: value}))
    assert any(p.startswith(field) for p in found), found


def test_graph_outside_the_ensemble_fails():
    assert any("degrees" in p for p in problems(K4_ROW, degrees=(1, 3)))
    assert any("edges" in p for p in problems(K4_ROW, m=9))
    assert "graph is not simple" in problems(K4_ROW, edges=K4_PLUS_PATH + [(2, 1)], m=9)


def test_non_planar_graph():
    row = TrialRow(0, 5, 10, 0.0, 1, 5, 5, 5, 5, 1, 4, 5, True)
    assert problems(dataclasses.replace(row, planar=False), K5, 5, 10, (4,)) == []
    assert any(p.startswith("planar") for p in problems(row, K5, 5, 10, (4,)))


def test_length_sentinel_exactly_above_the_guard():
    refused = dataclasses.replace(K4_ROW, complex_longest_path=-1, complex_circumference=-1)
    assert problems(refused, guard=1) == []
    assert any(p.startswith("complex_longest_path") for p in problems(K4_ROW, guard=1))
    assert any(p.startswith("complex_longest_path") for p in problems(refused, guard=2))


def test_brute_force_lengths():
    cycle = [(i, i % 6 + 1) for i in range(1, 7)]
    assert checks._brute_lengths(checks.nx.Graph(cycle), range(1, 7)) == (5, 6)
    path = [(i, i + 1) for i in range(1, 6)]
    assert checks._brute_lengths(checks.nx.Graph(path), range(1, 7)) == (5, 0)


def test_sampled_rows_pass():
    ds = parse_degree_set("1,3")
    n, m = 300, 240  # above the window at this n, so complex parts are common
    dp = sampler.build_dp(ds, n, 2 * m)
    seen_complex = 0
    for t in range(6):
        g, attempts = sampler.sample_simple_graph(ds, n, m, sampler.trial_generator(3, t), dp=dp)
        row = TrialRow.from_summary(t, n, m, 0.0, stats.summarize(g, attempts))
        seen_complex += row.total_excess > 0
        assert checks.check_trial(row, g.edges, n, m, ds.degrees, stats.MAX_KERNEL_EXCESS) == []
        bad = dataclasses.replace(row, total_excess=row.total_excess + 1)
        assert checks.check_trial(bad, g.edges, n, m, ds.degrees, stats.MAX_KERNEL_EXCESS)
    assert seen_complex


@pytest.mark.parametrize("family", ["0,1,4,5", "pow2:64", "all:60", "1,3,5,7", "1,3"])
def test_thresholds(family):
    ds = parse_degree_set(family)
    cp = critical.critical_point(ds)
    assert checks.check_threshold(family, ds.degrees, cp) == []
    off = dataclasses.replace(cp, alpha=cp.alpha + 1e-6)
    assert any("alpha" in p for p in checks.check_threshold(family, ds.degrees, off))


def test_own_threshold_closed_form():
    zhat, alpha = checks.own_threshold((1, 3))
    assert zhat == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert alpha == pytest.approx(0.75, rel=1e-14)


def test_published_alpha_is_checked():
    ds = parse_degree_set("0,1,4,5")
    cp = dataclasses.replace(critical.critical_point(ds), alpha=0.3825)
    found = checks.check_threshold("0,1,4,5", (0, 1, 4, 5), cp)
    assert any("published" in p for p in found)


@pytest.fixture(scope="module")
def classical():
    cp = critical.critical_point(parse_degree_set("all:60"))
    return (
        asymptotics.predict(cp, 0.0, "scaled", 20),
        asymptotics.predict(cp, 0.0, "plain", 20),
    )


def test_right_prediction_passes(classical):
    scaled, plain = classical
    assert checks.check_prediction("all:60", scaled, plain) == []
    assert not checks.truncated(scaled)


def _moved(pred, q_from, q_to, amount):
    dist = list(pred.excess_dist)
    dist[q_from] -= amount
    dist[q_to] += amount
    return dataclasses.replace(pred, excess_dist=tuple(dist), survival=dist[0])


def test_survival_not_jklp_fails(classical):
    scaled, _ = classical
    found = checks.check_prediction("all:60", _moved(scaled, 0, 5, 1e-5))
    assert any("sqrt(2/3)" in p for p in found)
    assert any("5/36" in p for p in found)


def test_broken_identities_fail(classical):
    scaled, plain = classical
    cases = {
        "sums to": dataclasses.replace(
            scaled, excess_dist=(scaled.excess_dist[0] + 1e-6,) + scaled.excess_dist[1:],
            survival=scaled.excess_dist[0] + 1e-6,
        ),
        "survival": dataclasses.replace(scaled, survival=scaled.survival + 1e-12),
        "exceeds P(q <= 4)": dataclasses.replace(scaled, planarity=sum(scaled.excess_dist[:5]) + 1e-6),
    }
    for text, pred in cases.items():
        assert any(text in p for p in checks.check_prediction("1,3", pred)), text
    moved = _moved(plain, 1, 2, 1e-6)
    assert any("plain" in p for p in checks.check_prediction("1,3", scaled, moved))


@pytest.mark.filterwarnings("ignore:excess-distribution tail weight")
def test_truncated_prediction_is_detected():
    cp = critical.critical_point(parse_degree_set("1,3,5,7"))
    assert checks.truncated(asymptotics.predict(cp, 2.0, "scaled", 20))


def test_inconsistent_twopath_fails():
    cp = critical.critical_point(parse_degree_set("1,3"))
    two = asymptotics.twopath_constants(cp, 0.0, 1)
    assert checks.check_twopath("1,3", 0.0, two) == []
    assert checks.check_twopath("1,3", 0.0, dataclasses.replace(two, b2=two.b2 * 1.01))
