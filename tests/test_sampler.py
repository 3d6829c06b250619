"""Degree-sequence DP, stub pairing, and the rejection sampler."""

import itertools
import math
import re
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from degwin import sampler
from degwin.degset import parse_degree_set
from degwin.errors import InfeasibleError, MaxAttemptsError, OutOfRangeError
from degwin.sampler import (
    DEFAULT_MAX_ATTEMPTS,
    _simple_pairs_or_none,
    _stub_pairs,
    build_dp,
    edges_for_mu,
    sample_batch,
    sample_degree_sequence,
    sample_simple_graph,
    step_distribution,
    trial_generator,
)
from degwin.verify import _exact_weight_sum

from oracles import (
    enumerate_matchings,
    enumerate_sequences,
    enumerate_simple_graphs,
    full_table_walk,
    logaddexp_table,
)

FAMILIES = ("1,3", "1,2,3", "0,1,4,5")


def simple_edges(seq, perm, n):
    """The pairing's edges (u < v) as a list, or None on a loop or double edge."""
    pairs = _simple_pairs_or_none(seq, perm, n)
    return None if pairs is None else list(zip(pairs[0].tolist(), pairs[1].tolist()))

# (degrees, n, m) triples that admit plenty of simple graphs.
SAMPLE_CONFIGS = (
    ("1,3", 8, 5),
    ("1,2,3", 9, 7),
    ("0,1,4,5", 10, 6),
    ("1,3,5,7", 10, 9),
)


def _bucket_total(degrees, i, j):
    return sum(
        enumerate_sequences(degrees, i).get(j, {}).values(), Fraction(0)
    )


def sequence_law(degrees, n, two_m):
    """P(seq) of every length-n sequence over ``degrees`` summing to two_m,
    by exhaustive enumeration."""
    total = _bucket_total(degrees, n, two_m)
    return {seq: w / total for seq, w in enumerate_sequences(degrees, n)[two_m].items()}


class TestWeightTable:
    def test_prefix_weights(self):
        ds = parse_degree_set("1,3")
        dp = build_dp(ds, 4, 6)
        assert math.exp(dp.log_weight(2, 2)) == pytest.approx(1.0, rel=1e-12)
        assert math.exp(dp.log_weight(4, 6)) == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert dp.feasible

    @pytest.mark.parametrize("spec", FAMILIES)
    def test_matches_enumeration(self, spec):
        ds = parse_degree_set(spec)
        for n in range(2, 7):
            buckets = enumerate_sequences(ds.degrees, n)
            for two_m, table in buckets.items():
                if two_m == 0 or two_m > 16:
                    continue
                dp = build_dp(ds, n, two_m)
                want = float(sum(table.values(), Fraction(0)))
                assert math.exp(dp.log_weight(n, two_m)) == pytest.approx(want, rel=1e-12)

    def test_parity_infeasible(self):
        with pytest.raises(InfeasibleError, match="sums to"):
            build_dp(parse_degree_set("1,3"), 2, 3)

    def test_argument_validation(self):
        ds = parse_degree_set("1,3")
        with pytest.raises(ValueError, match="n must be"):
            build_dp(ds, 0, 2)
        with pytest.raises(ValueError, match="two_m must be"):
            build_dp(ds, 2, -2)
        with pytest.raises(InfeasibleError, match="exceeds"):
            build_dp(ds, 2, 8)

    def test_unreachable_state_raises(self):
        # From (n, 2m) = (4, 6) with min(D) = 1, row 2 is reached with at
        # most 6 - 2*1 = 4 stubs; S[2][6] is positive but never read.
        ds = parse_degree_set("1,3")
        dp = build_dp(ds, 4, 6)
        assert math.exp(dp.log_weight(2, 4)) == pytest.approx(1.0 / 3.0, rel=1e-12)
        for i, j in ((2, 5), (2, 6), (0, 3), (3, 6), (4, 7)):
            with pytest.raises(OutOfRangeError, match="unreachable"):
                dp.log_weight(i, j)
        for i in (-1, 5):
            with pytest.raises(OutOfRangeError, match="outside"):
                dp.log_weight(i, 0)
        with pytest.raises(OutOfRangeError, match="unreachable"):
            step_distribution(dp, ds, 2, 6)

    @pytest.mark.parametrize("spec", ("1,3", "1,3,5,7", "0,1,4,5", "pow2:16", "all:60"))
    def test_table_is_the_reachable_band(self, spec):
        ds = parse_degree_set(spec)
        n = ORACLE_N
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            m, _ = edges_for_mu(ds, n, 0.0)
        dp = build_dp(ds, n, 2 * m)
        low, high = ds.degrees[0], ds.degrees[-1]
        p = math.gcd(*(d - low for d in ds.degrees))
        assert (2 * m - n * low) % p == 0
        pad, c_max = (high - low) // p, (2 * m - n * low) // p
        assert dp.logw.shape == (n + 1, pad + c_max + 1)
        assert np.isneginf(dp.logw[:, :pad]).all()

    def test_window_table_size(self):
        ds = parse_degree_set("1,3,5,7")
        m, _ = edges_for_mu(ds, 1000, 2.0)
        assert build_dp(ds, 1000, 2 * m).logw.nbytes < 3.0e6

    def test_unallocatable_table_is_a_package_error(self):
        # 8e14 bytes, beyond any address space, so the request fails at
        # once without touching memory.
        with pytest.raises(OutOfRangeError, match=r"shape \(10000001, 10000061\) \(7.45e\+05 GiB\)"):
            build_dp(parse_degree_set("all:60"), 10_000_000, 10_000_000)


# Families for the comparison with the logaddexp-chain table: a parity
# family, one with degree 0 and gaps, the paper's window family, a sparse
# rule set and the 61-degree unconstrained set.
ORACLE_FAMILIES = ("1,3", "0,1,4,5", "1,3,5,7", "pow2:16", "all:60")
ORACLE_N = 300


def _oracle_table(spec, n=ORACLE_N, mu=0.0):
    ds = parse_degree_set(spec)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m, _ = edges_for_mu(ds, n, mu)
    return ds, build_dp(ds, n, 2 * m)


def _reachable(dp, i):
    """The stub sums j of row i that a walk from (n, 2m) can reach."""
    return range(dp.two_m - (dp.n - i) * dp.low + 1)


# The oracle families at n = 300, mu = 0, and the paper's window family at
# the largest table of the window sweep.
DRAW_CASES = [pytest.param(spec, ORACLE_N, 0.0, id=spec) for spec in ORACLE_FAMILIES] + [
    pytest.param("1,3,5,7", 1000, 2.0, id="1,3,5,7-n1000-mu+2")
]


class TestLogSumExpRows:
    @pytest.mark.parametrize("spec", ORACLE_FAMILIES)
    def test_matches_logaddexp_chain(self, spec):
        ds, dp = _oracle_table(spec)
        want = logaddexp_table(ds.degrees, dp.n, dp.two_m)
        worst = 0.0
        for i in range(dp.n + 1):
            for j in _reachable(dp, i):
                got = dp.log_weight(i, j)
                assert np.isfinite(got) == np.isfinite(want[i, j]), (i, j)
                if np.isfinite(got):
                    worst = max(worst, abs(got - want[i, j]))
        assert worst <= 1e-10

    @pytest.mark.parametrize("spec, n, mu", DRAW_CASES)
    def test_draws_match_logaddexp_chain(self, spec, n, mu):
        ds, dp = _oracle_table(spec, n, mu)
        chain = logaddexp_table(ds.degrees, dp.n, dp.two_m)
        degs, logfact = sampler._degree_arrays(ds, dp.two_m)
        u_block = np.random.default_rng(2017).random((512, dp.n))
        got = sampler._walk_batch(dp, degs, logfact, u_block)
        assert np.array_equal(got, full_table_walk(chain, degs, logfact, u_block))

    @pytest.mark.parametrize("spec, n, mu", DRAW_CASES)
    def test_draws_match_full_table_walk_on_the_same_cells(self, spec, n, mu):
        # The band spread back out to the (n+1) x (2m+1) table: the banded
        # walk does the same float operations on the same cells.
        ds, dp = _oracle_table(spec, n, mu)
        full = np.full((dp.n + 1, dp.two_m + 1), -np.inf)
        for i in range(dp.n + 1):
            for j in _reachable(dp, i):
                full[i, j] = dp.log_weight(i, j)
        degs, logfact = sampler._degree_arrays(ds, dp.two_m)
        u_block = np.random.default_rng(2018).random((512, dp.n))
        got = sampler._walk_batch(dp, degs, logfact, u_block)
        assert np.array_equal(got, full_table_walk(full, degs, logfact, u_block))

    @pytest.mark.parametrize("spec", ("1,3", "1,2,3", "0,1,4,5", "all:10"))
    def test_every_cell_is_exact_at_small_n(self, spec):
        ds = parse_degree_set(spec)
        n = 8
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dp = build_dp(ds, n, n * ds.max_degree)
        for i in range(n + 1):
            for j in range(dp.two_m + 1):
                exact = _exact_weight_sum(ds.degrees, i, j)
                if j not in _reachable(dp, i):
                    # At 2m = n*max(D) the band holds every positive cell.
                    assert exact == 0, (i, j)
                elif exact == 0:
                    assert dp.log_weight(i, j) == -np.inf, (i, j)
                else:
                    assert math.exp(dp.log_weight(i, j)) == pytest.approx(float(exact), rel=1e-12), (i, j)

    def test_no_degree_fits_the_budget(self):
        # 2m = 0 is below min(D) = 1: no degree survives the d <= 2m filter.
        with pytest.raises(InfeasibleError):
            build_dp(parse_degree_set("1,3"), 2, 0)

    def test_single_vertex(self):
        dp = build_dp(parse_degree_set("1,3"), 1, 3)
        assert math.exp(dp.log_weight(1, 3)) == pytest.approx(1.0 / 6.0, rel=1e-15)
        assert dp.log_weight(1, 0) == dp.log_weight(1, 2) == -np.inf

    def test_parity_cells_build_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dp = build_dp(parse_degree_set("1,3"), 9, 9)
        assert dp.feasible
        # Odd rows hold odd sums only, even rows even sums.
        assert all(dp.log_weight(9, j) == -np.inf for j in range(0, 10, 2))
        assert np.isfinite(dp.log_weight(9, 9))
        assert all(dp.log_weight(8, j) == -np.inf for j in range(1, 9, 2))


class TestStepDistribution:
    def test_first_step_marginal(self):
        ds = parse_degree_set("1,3")
        dp = build_dp(ds, 4, 6)
        law = step_distribution(dp, ds, 4, 6)
        assert law[1] == pytest.approx(0.75, rel=1e-12)
        assert law[3] == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize(
        "spec, two_m", [("1,3", 9), ("1,2,3", 8), ("0,1,4,5", 8)]
    )
    def test_all_states_match_enumeration(self, spec, two_m):
        ds = parse_degree_set(spec)
        n = 5
        dp = build_dp(ds, n, two_m)
        for i in range(1, n + 1):
            for j in _reachable(dp, i):
                if not np.isfinite(dp.log_weight(i, j)):
                    continue
                law = step_distribution(dp, ds, i, j)
                weights = {
                    d: _bucket_total(ds.degrees, i - 1, j - d)
                    / math.factorial(d)
                    for d in ds.degrees
                    if d <= j
                }
                total = sum(weights.values(), Fraction(0))
                for d, w in weights.items():
                    want = float(w / total)
                    assert law.get(d, 0.0) == pytest.approx(want, abs=1e-12)

    def test_domain_errors(self):
        ds = parse_degree_set("1,3")
        dp = build_dp(ds, 4, 6)
        with pytest.raises(OutOfRangeError, match="outside"):
            step_distribution(dp, ds, 0, 6)
        with pytest.raises(OutOfRangeError, match="outside"):
            step_distribution(dp, ds, 4, 7)
        with pytest.raises(InfeasibleError, match="zero weight"):
            step_distribution(dp, ds, 1, 2)


class TestSequenceSampling:
    def test_exact_probability_example(self):
        law = sequence_law((1, 3), 4, 6)
        assert law[(3, 1, 1, 1)] == Fraction(1, 4)
        assert set(law) == set(itertools.permutations((3, 1, 1, 1)))
        assert sum(law.values()) == 1

    def test_empirical_frequencies(self):
        ds = parse_degree_set("1,3")
        dp = build_dp(ds, 4, 6)
        rng = trial_generator(12345, 0)
        counts = Counter(
            tuple(sample_degree_sequence(dp, ds, rng)) for _ in range(10_000)
        )
        law = sequence_law(ds.degrees, 4, 6)
        assert set(counts) == set(law)
        for seq, k in counts.items():
            assert k / 10_000 == pytest.approx(float(law[seq]), abs=0.02)

    def test_consumes_exactly_one_uniform_block(self):
        ds = parse_degree_set("1,3")
        dp = build_dp(ds, 6, 8)
        rng = trial_generator(9, 1)
        sample_degree_sequence(dp, ds, rng)
        ref = trial_generator(9, 1)
        ref.random(dp.n)
        assert np.array_equal(rng.random(5), ref.random(5))


class TestPairing:
    def test_single_edge(self):
        u, v = _stub_pairs(np.array([1, 1]), trial_generator(0, 0).permutation(2))
        assert (u.tolist(), v.tolist()) == ([1], [2])

    def test_single_loop(self):
        u, v = _stub_pairs(np.array([2]), trial_generator(0, 0).permutation(2))
        assert (u.tolist(), v.tolist()) == ([1], [1])

    def test_edges_ordered_and_degrees_preserved(self):
        seq = (2, 3, 1, 2)
        u, v = _stub_pairs(np.array(seq), trial_generator(7, 0).permutation(sum(seq)))
        edges = list(zip(u.tolist(), v.tolist()))
        assert len(edges) == sum(seq) // 2
        deg = [0] * (len(seq) + 1)
        for u, v in edges:
            assert 1 <= u <= v <= len(seq)
            deg[u] += 1
            deg[v] += 1
        assert tuple(deg[1:]) == seq

    def test_matching_counts_star(self):
        # Four vertices with degrees (3,1,1,1): 15 stub matchings, 6 simple.
        matchings = enumerate_matchings([1, 1, 1, 2, 3, 4])
        assert len(matchings) == 15
        simple = [
            m
            for m in matchings
            if all(u != v for u, v in m) and len(set(m)) == len(m)
        ]
        assert len(simple) == 6
        assert set(simple) == {((1, 2), (1, 3), (1, 4))}

    def test_exhaustive_conditional_uniformity(self):
        # All 720 stub permutations of (1,1,2,2): the two simple graphs on
        # that sequence are hit exactly equally often.
        seq = np.array([1, 1, 2, 2])
        hits = Counter()
        for perm in itertools.permutations(range(6)):
            edges = simple_edges(seq, np.array(perm), 4)
            if edges is not None:
                hits[frozenset(edges)] += 1
        want = {frozenset(g) for g in enumerate_simple_graphs((1, 1, 2, 2))}
        assert set(hits) == want
        assert len(hits) == 2
        assert len(set(hits.values())) == 1


class TestRejectionSampler:
    @pytest.mark.parametrize("spec, n, m", SAMPLE_CONFIGS)
    def test_sampled_graph_postconditions(self, spec, n, m):
        ds = parse_degree_set(spec)
        g, attempts = sample_simple_graph(ds, n, m, trial_generator(42, 0))
        assert attempts >= 1
        assert g.n == n
        assert len(g.edges) == m
        allowed = set(ds.degrees)
        deg = [0] * (n + 1)
        for u, v in g.edges:
            assert 1 <= u < v <= n
            deg[u] += 1
            deg[v] += 1
        assert len(set(g.edges)) == m
        assert all(d in allowed for d in deg[1:])

    def test_batch_equals_sequential(self):
        ds = parse_degree_set("1,3")
        dp = build_dp(ds, 8, 10)
        rngs = [trial_generator(3, t) for t in range(6)]
        graphs, attempts = sample_batch(ds, dp, rngs)
        for t in range(6):
            g, a = sample_simple_graph(ds, 8, 5, trial_generator(3, t), dp=dp)
            assert g.edges == graphs[t].edges
            assert a == attempts[t]

    def test_no_simple_graph_exists(self):
        # Degrees (3,3,3,1) force a double edge on four vertices.
        ds = parse_degree_set("1,3")
        with pytest.raises(MaxAttemptsError, match="no simple graph"):
            sample_simple_graph(ds, 4, 5, trial_generator(0, 0), max_attempts=64)

    def test_mismatched_table(self):
        ds = parse_degree_set("1,3")
        dp = build_dp(ds, 8, 10)
        with pytest.raises(ValueError, match="table is for"):
            sample_simple_graph(ds, 6, 4, trial_generator(0, 0), dp=dp)

    def test_trial_generator_contract(self):
        got = trial_generator(5, 7, 2).random(4)
        ref = np.random.default_rng(
            np.random.SeedSequence(5, spawn_key=(2, 7))
        ).random(4)
        assert np.array_equal(got, ref)

    @settings(max_examples=20, deadline=None)
    @given(
        config=st.sampled_from(SAMPLE_CONFIGS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        trial=st.integers(min_value=0, max_value=50),
    )
    def test_reproducible_and_simple(self, config, seed, trial):
        spec, n, m = config
        ds = parse_degree_set(spec)
        g1, a1 = sample_simple_graph(ds, n, m, trial_generator(seed, trial))
        g2, a2 = sample_simple_graph(ds, n, m, trial_generator(seed, trial))
        assert g1.edges == g2.edges
        assert a1 == a2
        assert len(set(g1.edges)) == m
        assert all(u != v for u, v in g1.edges)


def reference_attempts(ds, dp, rng, max_attempts):
    """One attempt at a time, as the contract states it: a ``random(n)`` walk,
    then a ``permutation(2m)`` pairing, until the pairing is simple.

    Returns (edges or None, attempts drawn)."""
    for attempt in range(1, max_attempts + 1):
        seq = sample_degree_sequence(dp, ds, rng)
        edges = simple_edges(seq, rng.permutation(dp.two_m), dp.n)
        if edges is not None:
            return edges, attempt
    return None, max_attempts


# 12 trials of 1,3,5,7 at n = 20, m = 25 need 2 to 54 attempts each.
HARD_CONFIG = ("1,3,5,7", 20, 25)


class TestRoundsOfAttempts:
    """``sample_batch`` draws attempts ahead in rounds; nothing it returns or
    leaves in a generator may depend on how many it draws per round."""

    @pytest.mark.parametrize("round_rows", [1, 64, 10**4])
    @pytest.mark.parametrize(
        "spec, n, m", [HARD_CONFIG, ("1,3,5,7", 10, 9), ("1,3", 8, 5)]
    )
    def test_matches_one_attempt_at_a_time(self, monkeypatch, round_rows, spec, n, m):
        monkeypatch.setattr(sampler, "_ROUND_ROWS", round_rows)
        ds = parse_degree_set(spec)
        dp = build_dp(ds, n, 2 * m)
        rngs = [trial_generator(4, t) for t in range(12)]
        graphs, attempts = sample_batch(ds, dp, rngs)
        for t in range(12):
            ref = trial_generator(4, t)
            edges, want = reference_attempts(ds, dp, ref, DEFAULT_MAX_ATTEMPTS)
            assert list(graphs[t].edges) == sorted(edges)
            assert attempts[t] == want
            assert np.array_equal(rngs[t].random(3), ref.random(3))

    @pytest.mark.parametrize("round_rows", [1, 64, 10**4])
    def test_success_on_the_last_allowed_attempt(self, monkeypatch, round_rows):
        monkeypatch.setattr(sampler, "_ROUND_ROWS", round_rows)
        spec, n, m = HARD_CONFIG
        ds = parse_degree_set(spec)
        dp = build_dp(ds, n, 2 * m)
        ref = trial_generator(4, 0)
        _, need = reference_attempts(ds, dp, ref, DEFAULT_MAX_ATTEMPTS)
        assert need == 54
        rng = trial_generator(4, 0)
        _, attempts = sample_batch(ds, dp, [rng], max_attempts=need)
        assert attempts == [need]
        assert np.array_equal(rng.random(3), ref.random(3))
        with pytest.raises(MaxAttemptsError, match="1 of 1 trials"):
            sample_batch(ds, dp, [trial_generator(4, 0)], max_attempts=need - 1)

    @pytest.mark.parametrize("round_rows", [1, 64, 10**4])
    def test_exhausted_trials_draw_exactly_the_budget(self, monkeypatch, round_rows):
        monkeypatch.setattr(sampler, "_ROUND_ROWS", round_rows)
        spec, n, m = HARD_CONFIG
        ds = parse_degree_set(spec)
        dp = build_dp(ds, n, 2 * m)
        budget = 20
        rngs = [trial_generator(4, t) for t in range(12)]
        refs = [trial_generator(4, t) for t in range(12)]
        failed = sum(
            reference_attempts(ds, dp, ref, budget)[0] is None for ref in refs
        )
        assert failed == 6
        message = (
            f"{failed} of 12 trials found no simple graph in {budget} attempts "
            f"(n={n}, m={m}, degrees={ds})"
        )
        with pytest.raises(MaxAttemptsError, match=re.escape(message)):
            sample_batch(ds, dp, rngs, max_attempts=budget)
        # Every generator stops where the one-at-a-time loop leaves it: after
        # the accepted attempt, or after exactly ``budget`` attempts.
        for rng, ref in zip(rngs, refs):
            assert np.array_equal(rng.random(3), ref.random(3))

    def test_no_budget_fails_every_trial(self):
        ds = parse_degree_set("1,3")
        dp = build_dp(ds, 8, 10)
        rngs = [trial_generator(0, t) for t in range(3)]
        with pytest.raises(MaxAttemptsError, match="3 of 3 trials .* in 0 attempts"):
            sample_batch(ds, dp, rngs, max_attempts=0)


class TestEdgesForMu:
    def test_unconstrained_centre(self):
        m, realized = edges_for_mu(parse_degree_set("all:60"), 1000, 0.0)
        assert m == 500
        assert realized == pytest.approx(0.0, abs=1e-12)

    def test_adjusted_with_warning(self):
        ds = parse_degree_set("1,3")
        with pytest.warns(UserWarning, match="not admissible"):
            m, realized = edges_for_mu(ds, 4, -2.0)
        assert m == 3
        assert realized == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("mu, expected", [(1e9, 1499), (-1e9, 501)])
    def test_far_target_takes_the_window_edge(self, mu, expected):
        # The search starts inside the window, so its cost does not grow
        # with the distance of the target.
        with pytest.warns(UserWarning, match="not admissible"):
            m, _ = edges_for_mu(parse_degree_set("1,3"), 1000, mu)
        assert m == expected

    def test_too_small_infeasible(self):
        with pytest.raises(InfeasibleError, match="no admissible edge count"):
            edges_for_mu(parse_degree_set("1,3"), 1, 0.0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf])
    def test_non_finite_mu_is_out_of_range(self, mu):
        with pytest.raises(OutOfRangeError, match="mu must be finite"):
            edges_for_mu(parse_degree_set("1,3"), 50, mu)

    def test_realized_mu_consistent(self):
        from degwin.critical import critical_point

        ds = parse_degree_set("1,3,5,7")
        cp = critical_point(ds)
        m, realized = edges_for_mu(ds, 1000, 0.7)
        want = (m / (cp.alpha * 1000) - 1.0) * 1000.0 ** (1.0 / 3.0)
        assert realized == pytest.approx(want, rel=1e-12)
        assert abs(realized - 0.7) < 0.05
