"""Tests for the seeded experiment driver and its result tables.

Covers config parsing (file and mapping forms), sweep-point resolution,
deterministic parallel execution, aggregate recomputation, the CSV/JSON
round trip, and the theory-comparison report.  Expected aggregate values
are computed by hand from fabricated rows; everything stochastic is pinned
by seed and checked for bit-identical reproduction rather than by value.
"""

import hashlib
import json
import math

import pytest
from scipy import stats as scipy_stats

from degwin.critical import critical_point
from degwin.degset import parse_degree_set
from degwin.errors import InfeasibleError, MaxAttemptsError, OutOfRangeError
from degwin.harness import (
    ACCEPT_SLACK,
    CSV_COLUMNS,
    ExperimentConfig,
    PointAggregate,
    ResultTable,
    TrialRow,
    aggregate_rows,
    chi2_pvalue,
    compare_theory,
    config_from_mapping,
    load_config_file,
    parse_csv,
    render_csv,
    render_json,
    resolve_points,
    run_experiment,
)
from degwin.sampler import (
    DEFAULT_MAX_ATTEMPTS,
    build_dp,
    edges_for_mu,
    sample_batch,
    trial_generator,
)
from degwin.stats import summarize


def assert_consistent(table: ResultTable) -> None:
    """Every row passes its own checks, and the aggregates are the rows'."""
    for row in table.rows:
        row.validate()
    assert aggregate_rows(table.rows) == table.aggregates


def tiny_config(**overrides) -> ExperimentConfig:
    """A fast, always-feasible run: perfect matchings on eight vertices."""
    kwargs = dict(degrees="1,3", n=8, ms=(4,), trials=12, seed=3)
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# make_row and make_empty_row share one point, n = m = 15, at which both rows
# can occur: the excesses of a graph sum to m - n = 0.


def make_row(**overrides) -> TrialRow:
    """A row whose graph is a 12-vertex complex part of excess 3 and three
    isolated vertices, with self-consistent statistics."""
    kwargs = dict(
        trial=0,
        n=15,
        m=15,
        realized_mu=0.0,
        attempts=5,
        largest_component=8,
        largest_excess=2,
        total_excess=3,
        complex_size=12,
        complex_diameter=3,
        complex_longest_path=7,
        complex_circumference=6,
        planar=True,
    )
    kwargs.update(overrides)
    return TrialRow(**kwargs)


def make_empty_row(**overrides) -> TrialRow:
    """A row whose graph is all unicycles, so it has no complex part (all
    length sentinels -1)."""
    kwargs = dict(
        trial=0,
        n=15,
        m=15,
        realized_mu=0.0,
        attempts=1,
        largest_component=6,
        largest_excess=0,
        total_excess=0,
        complex_size=0,
        complex_diameter=-1,
        complex_longest_path=-1,
        complex_circumference=-1,
        planar=True,
    )
    kwargs.update(overrides)
    return TrialRow(**kwargs)


class TestExperimentConfig:
    def test_defaults_to_single_centre_point(self):
        cfg = ExperimentConfig(degrees="1,3")
        assert cfg.mus == (0.0,)
        assert cfg.ms == ()
        assert cfg.max_attempts == DEFAULT_MAX_ATTEMPTS

    def test_mu_and_m_lists_are_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            ExperimentConfig(degrees="1,3", mus=(0.0,), ms=(6,))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"degrees": ""}, "non-empty"),
            ({"n": 0}, "n must be"),
            ({"trials": 0}, "trials must be"),
            ({"jobs": 0}, "jobs must be"),
            ({"n": (8, 0)}, "n must be"),
            ({"n": ()}, "n must be"),
            ({"n": (8, 8)}, "n must be"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"max_attempts": 0}, "max_attempts must be >= 1, got 0"),
        ],
    )
    def test_rejects_bad_fields(self, overrides, message):
        kwargs = dict(degrees="1,3")
        kwargs.update(overrides)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kwargs)


class TestConfigFile:
    def test_parses_keys_comments_and_blanks(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "# window sweep\n"
            "degrees = 1,3,5,7\n"
            "n = 2000\n"
            "\n"
            "mu = -2,0,2   # window locations\n"
            "trials = 500\n"
            "seed = 42\n"
            "jobs = 2\n",
            encoding="utf-8",
        )
        mapping = load_config_file(path)
        assert mapping == {
            "degrees": "1,3,5,7",
            "n": "2000",
            "mu": "-2,0,2",
            "trials": "500",
            "seed": "42",
            "jobs": "2",
        }
        cfg = config_from_mapping(mapping)
        assert cfg == ExperimentConfig(
            degrees="1,3,5,7",
            n=2000,
            mus=(-2.0, 0.0, 2.0),
            trials=500,
            seed=42,
            jobs=2,
        )

    def test_unknown_key_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("degrees = 1,3\nwat = 7\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"bad\.cfg:2: unknown key 'wat'"):
            load_config_file(path)

    def test_variant_key_is_unknown(self, tmp_path):
        # The printed form of the window function cancels in every number
        # the comparison reads, so a sweep has no variant setting.
        path = tmp_path / "old.cfg"
        path.write_text("degrees = 1,3\nvariant = plain\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"old\.cfg:2: unknown key 'variant'"):
            load_config_file(path)

    def test_repeated_key_reports_location(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("degrees = 1,3\nn = 50\n\nn = 60\n", encoding="utf-8")
        with pytest.raises(OutOfRangeError, match=r"twice\.cfg:4: key 'n' given twice"):
            load_config_file(path)

    def test_unreadable_file_is_a_package_error(self, tmp_path):
        with pytest.raises(OutOfRangeError, match="cannot read config file"):
            load_config_file(tmp_path / "absent.cfg")
        with pytest.raises(OutOfRangeError, match="cannot read config file"):
            load_config_file(tmp_path)
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(b"degrees = 1,3\nout = caf\xe9.csv\n")
        with pytest.raises(OutOfRangeError, match="cannot read config file .*utf-8"):
            load_config_file(latin1)

    def test_missing_equals_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("degrees 1,3\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected key=value"):
            load_config_file(path)

    def test_size_list(self, tmp_path):
        path = tmp_path / "sizes.cfg"
        path.write_text(
            "degrees = 1,3\nn = 512,1024\nmu = 0\ntrials = 2\n", encoding="utf-8"
        )
        cfg = config_from_mapping(load_config_file(path))
        assert cfg.n == (512, 1024)
        ds = parse_degree_set("1,3")
        table = run_experiment(cfg)
        assert [(r.n, r.m) for r in table.rows] == [
            (n, edges_for_mu(ds, n, 0.0)[0]) for n in (512, 1024) for _ in range(2)
        ]

    def test_m_list_maps_to_ms(self):
        cfg = config_from_mapping({"degrees": "1,3", "m": "10,12"})
        assert cfg.ms == (10, 12)
        assert cfg.mus == ()

    def test_empty_list_is_refused(self):
        # An empty file value and an empty flag list alike, for mu and m.
        for key in ("mu", "m"):
            for value in ("", " , ", ()):
                with pytest.raises(OutOfRangeError, match=f"{key!r} names no"):
                    config_from_mapping({"degrees": "1,3", key: value})

    def test_no_list_means_mu_zero(self):
        assert config_from_mapping({"degrees": "1,3"}).mus == (0.0,)

    def test_typed_values_pass_through(self):
        cfg = config_from_mapping({"degrees": "1,3", "n": 64, "mu": (1.0,)})
        assert cfg.n == (64,)
        assert cfg.mus == (1.0,)

    def test_unknown_mapping_key(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_mapping({"degrees": "1,3", "colour": "red"})


class TestResolvePoints:
    def test_explicit_edge_counts_back_out_mu(self):
        ds = parse_degree_set("1,3")
        cfg = ExperimentConfig(degrees="1,3", n=8, ms=(5, 6, 7))
        points = resolve_points(cfg, ds)
        alpha = critical_point(ds).alpha
        assert [p.index for p in points] == [0, 1, 2]
        for p, m in zip(points, (5, 6, 7)):
            assert p.m == m
            expected = (m / (alpha * 8) - 1.0) * 8 ** (1.0 / 3.0)
            assert p.realized_mu == pytest.approx(expected, rel=1e-8)

    def test_window_locations_use_edges_for_mu(self):
        ds = parse_degree_set("1,3")
        cfg = ExperimentConfig(degrees="1,3", n=30, mus=(-0.5, 0.0, 0.5))
        points = resolve_points(cfg, ds)
        for p, mu in zip(points, cfg.mus):
            m, realized = edges_for_mu(ds, 30, mu)
            assert p.m == m
            assert p.realized_mu == pytest.approx(realized, abs=1e-9)

    @pytest.mark.parametrize(
        "sweep, text",
        [
            (dict(ms=(30, 31, 30)), "m[0] = 30 and m[2] = 30 both give m = 30 at n = 50"),
            (dict(mus=(0.0, 0.01)), "mu[0] = 0.0 and mu[1] = 0.01 both give m = 38 at n = 50"),
        ],
    )
    def test_two_entries_at_one_edge_count_are_refused(self, sweep, text):
        # Their rows would share (n, m) and merge into one aggregate.
        cfg = ExperimentConfig(degrees="1,3", n=50, trials=5, seed=1, **sweep)
        with pytest.raises(OutOfRangeError) as excinfo:
            run_experiment(cfg)
        assert str(excinfo.value) == text

    def test_centre_point_is_exact_for_integer_target(self):
        ds = parse_degree_set("1,3")
        cfg = ExperimentConfig(degrees="1,3", n=8)
        (point,) = resolve_points(cfg, ds)
        assert (point.m, point.realized_mu) == (6, 0.0)


class TestRunExperiment:
    def test_row_schema_and_validation(self):
        table = run_experiment(tiny_config())
        assert table.degrees == "1,3"
        assert table.seed == 3
        assert len(table.rows) == 12
        assert [r.trial for r in table.rows] == list(range(12))
        assert all(r.n == 8 and r.m == 4 for r in table.rows)
        # 2m = n forces a perfect matching: always simple, never complex.
        assert all(r.attempts == 1 and r.total_excess == 0 for r in table.rows)
        assert len(table.aggregates) == 1
        assert_consistent(table)

    def test_rows_reproduce_the_sampler_streams(self):
        cfg = tiny_config(ms=(5,), trials=6)
        table = run_experiment(cfg)
        ds = parse_degree_set(cfg.degrees)
        dp = build_dp(ds, 8, 10)
        for row in table.rows:
            rng = trial_generator(cfg.seed, row.trial, 0)
            graphs, attempts = sample_batch(
                ds, dp, [rng], max_attempts=DEFAULT_MAX_ATTEMPTS
            )
            assert row == TrialRow.from_summary(
                row.trial, row.n, row.m, row.realized_mu,
                summarize(graphs[0], attempts=attempts[0]),
            )

    def test_sweep_points_get_independent_streams(self):
        cfg = ExperimentConfig(
            degrees="1,3", n=30, mus=(-0.5, 0.0, 0.5), trials=5, seed=11
        )
        table = run_experiment(cfg)
        ds = parse_degree_set(cfg.degrees)
        points = resolve_points(cfg, ds)
        assert len(table.rows) == 15
        assert len(table.aggregates) == 3
        for agg, point in zip(table.aggregates, points):
            assert (agg.m, agg.realized_mu) == (point.m, point.realized_mu)
        # Trial 1 of the third point must come from generator (seed, 1, 2).
        point = points[2]
        row = [r for r in table.rows if r.m == point.m][1]
        dp = build_dp(ds, point.n, 2 * point.m)
        graphs, attempts = sample_batch(
            ds, dp, [trial_generator(cfg.seed, 1, 2)], max_attempts=DEFAULT_MAX_ATTEMPTS
        )
        assert row == TrialRow.from_summary(
            row.trial, row.n, row.m, row.realized_mu,
            summarize(graphs[0], attempts=attempts[0]),
        )
        assert_consistent(table)

    PINNED = ExperimentConfig(
        degrees="1,3,5,7", n=400, mus=(-1.0, 0.0, 2.5), trials=120, seed=20260825
    )

    def test_seeded_csv_is_pinned(self):
        # Digest of the CSV this config produced before the sampling and
        # summary stages were optimised (a weight table per chunk,
        # pure-Python components, all-pairs BFS diameter).  Any rewrite of
        # those stages must reproduce it byte for byte.  The three points
        # give 129 complex and 120 non-planar graphs among the 360 rows.
        text = render_csv(run_experiment(self.PINNED))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "bbd21eed113f8ab73c0fe09c40e1d8890a18b9be8501feb9d9ed7d9d2e0b1c1f"
        )

    def test_seeded_json_is_pinned(self):
        # Digest of the JSON document (rows and aggregates) for the same
        # config, computed before the row schema was derived from TrialRow's
        # fields, less the document's "variant" line, which went with the
        # variant setting of the harness.
        text = render_json(run_experiment(self.PINNED))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "decb494b976da0e95d17d26e2a04c8927e0796226b18acba27222f699832f21c"
        )

    def test_parallel_run_is_bit_identical(self):
        # 300 trials spans two chunks, so jobs=2 really exercises the pool.
        for sweep in ({}, {"n": (8, 10), "ms": (5,)}):
            sequential = run_experiment(tiny_config(trials=300, jobs=1, **sweep))
            parallel = run_experiment(tiny_config(trials=300, jobs=2, **sweep))
            assert sequential == parallel

    def test_size_list_concatenates_single_size_runs(self):
        # The stream of a point depends on its place in the mu list, not on
        # n, so each size reproduces its own single-size run.
        sweep = dict(degrees="1,3", mus=(-0.5, 0.5), trials=40, seed=5)
        both = run_experiment(ExperimentConfig(n=(30, 60), **sweep))
        small, large = (run_experiment(ExperimentConfig(n=n, **sweep)) for n in (30, 60))
        rows = small.rows + large.rows
        assert both == ResultTable(
            degrees="1,3", seed=5, rows=rows,
            aggregates=aggregate_rows(rows),
        )
        assert [a.n for a in both.aggregates] == [30, 30, 60, 60]

    def test_infeasible_point_names_the_point(self):
        # The first point samples; the second has no degree sequence.
        cfg = tiny_config(ms=(4, 3))
        with pytest.raises(InfeasibleError, match=r"^point 1 \(n=8, m=3\): ") as excinfo:
            run_experiment(cfg)
        assert isinstance(excinfo.value.__cause__, InfeasibleError)

    def test_unreachable_simple_graph_names_the_point(self):
        cfg = ExperimentConfig(
            degrees="1,3", n=4, ms=(5,), trials=3, seed=0, max_attempts=64
        )
        with pytest.raises(MaxAttemptsError, match=r"^point 0 \(n=4, m=5\): ") as excinfo:
            run_experiment(cfg)
        assert isinstance(excinfo.value.__cause__, MaxAttemptsError)

    def test_infeasible_sweep_fails_before_sampling(self):
        cfg = ExperimentConfig(degrees="1,3", n=1, mus=(0.0,), trials=3)
        with pytest.raises(InfeasibleError, match="no admissible edge count"):
            run_experiment(cfg)


class TestAggregates:
    def test_hand_computed_point(self):
        rows = (
            make_empty_row(trial=0),
            make_row(trial=1, complex_diameter=4, attempts=3, planar=False),
            make_empty_row(trial=2, attempts=2),
            make_row(
                trial=3,
                total_excess=1,
                largest_excess=1,
                complex_diameter=6,
                complex_longest_path=-1,
                complex_circumference=-1,
                attempts=4,
            ),
            make_empty_row(trial=4),
        )
        (agg,) = aggregate_rows(rows)
        assert agg.n == 15
        assert agg.m == 15
        assert agg.trials == 5
        assert agg.survival_rate == pytest.approx(3 / 5)
        assert agg.excess_histogram == ((0, 3), (1, 1), (3, 1))
        assert agg.nonplanar_rate == pytest.approx(1 / 5)
        assert agg.mean_attempts == pytest.approx((1 + 3 + 2 + 4 + 1) / 5)
        assert agg.complex_trials == 2
        assert agg.mean_diameter == pytest.approx(5.0)
        assert agg.se_diameter == pytest.approx(1.0)
        # The -1 "not computed" sentinels are skipped, leaving one value each.
        assert agg.mean_longest_path == pytest.approx(7.0)
        assert agg.se_longest_path is None
        assert agg.mean_circumference == pytest.approx(6.0)
        assert agg.se_circumference is None

    def test_default_rows_validate(self):
        # Rows that no run can emit would test the aggregates on impossible
        # data.
        make_row().validate()
        make_empty_row().validate()

    def test_no_complex_trials_yields_none_means(self):
        (agg,) = aggregate_rows([make_empty_row(trial=t) for t in range(4)])
        assert agg.complex_trials == 0
        assert agg.survival_rate == 1.0
        assert agg.mean_diameter is None
        assert agg.se_diameter is None

    def test_groups_in_first_appearance_order(self):
        rows = (
            make_row(trial=0, n=8, m=6, complex_size=8, largest_component=8),
            make_empty_row(trial=0, n=10, m=5, largest_component=5),
            make_row(trial=1, n=8, m=6, complex_size=8, largest_component=8),
        )
        aggs = aggregate_rows(rows)
        assert [(a.n, a.m) for a in aggs] == [(8, 6), (10, 5)]
        assert [a.trials for a in aggs] == [2, 1]

    def test_inconsistent_realized_mu_is_rejected(self):
        rows = (make_row(trial=0), make_row(trial=1, realized_mu=0.5))
        with pytest.raises(ValueError, match="inconsistent realized_mu"):
            aggregate_rows(rows)


class TestEmitAndParse:
    def test_csv_round_trip_is_exact(self):
        table = run_experiment(tiny_config(ms=(5,), trials=8))
        assert parse_csv(render_csv(table)) == table.rows

    def test_csv_cell_encoding(self):
        row = make_row(realized_mu=-0.123456789, planar=False)
        text = render_csv(
            ResultTable(
                degrees="1,3",
                seed=0,
                rows=(row,),
                aggregates=aggregate_rows((row,)),
            )
        )
        header, line = text.strip().split("\n")
        assert header == ",".join(CSV_COLUMNS)
        assert line == "0,15,15,-0.123456789,5,8,2,3,12,3,7,6,0"

    def test_emit_csv_and_read_back(self, tmp_path):
        table = run_experiment(tiny_config(ms=(5,), trials=8))
        path = tmp_path / "rows.csv"
        path.write_text(render_csv(table), encoding="utf-8")
        assert parse_csv(path) == table.rows

    def test_emit_json_document(self):
        table = run_experiment(tiny_config(ms=(5,), trials=8))
        doc = json.loads(render_json(table))
        assert doc["degrees"] == "1,3"
        assert doc["seed"] == 3
        assert doc["columns"] == list(CSV_COLUMNS)
        assert len(doc["rows"]) == 8
        first = table.rows[0]
        assert doc["rows"][0] == [
            first.trial,
            first.n,
            first.m,
            first.realized_mu,
            first.attempts,
            first.largest_component,
            first.largest_excess,
            first.total_excess,
            first.complex_size,
            first.complex_diameter,
            first.complex_longest_path,
            first.complex_circumference,
            1 if first.planar else 0,
        ]
        agg_doc = doc["aggregates"][0]
        agg = table.aggregates[0]
        assert agg_doc["trials"] == agg.trials
        assert agg_doc["survival_rate"] == agg.survival_rate
        assert agg_doc["excess_histogram"] == [list(h) for h in agg.excess_histogram]

    def test_parse_rejects_wrong_header(self):
        with pytest.raises(ValueError, match="unexpected CSV header"):
            parse_csv("a,b,c\n1,2,3\n")

    def test_header_only_text_has_no_rows(self):
        # A one-line str is CSV text, not a path.
        assert parse_csv(",".join(CSV_COLUMNS)) == ()

    def test_parse_rejects_short_row(self):
        text = ",".join(CSV_COLUMNS) + "\n1,2,3\n"
        with pytest.raises(ValueError, match="bad CSV row"):
            parse_csv(text)

    def test_parse_validates_row_consistency(self):
        good = make_row()
        table = ResultTable(
            degrees="1,3",
            seed=0,
            rows=(good,),
            aggregates=aggregate_rows((good,)),
        )
        text = render_csv(table)
        # A nonempty complex part cannot report the empty-part sentinel.
        corrupted = text.replace(",12,3,7,6,", ",12,-1,7,6,")
        assert corrupted != text
        with pytest.raises(ValueError, match="complex"):
            parse_csv(corrupted)
        # One cell that no run can emit in an otherwise valid row.  The last
        # row has no complex part, so its total excess 0 needs m <= n = 15.
        for row, column, cell, message in (
            (good, "planar", "7", "bad bool cell '7'"),
            (good, "trial", "-4", "out of range"),
            (good, "attempts", "0", "out of range"),
            (good, "realized_mu", "inf", "out of range"),
            (make_empty_row(), "m", "18", "total excess below m - n = 3"),
        ):
            cells = {k: str(int(v) if isinstance(v, bool) else v) for k, v in vars(row).items()}
            parse_csv(",".join(CSV_COLUMNS) + "\n" + ",".join(cells.values()))
            cells[column] = cell
            with pytest.raises(ValueError, match=message):
                parse_csv(",".join(CSV_COLUMNS) + "\n" + ",".join(cells.values()))

    def test_parse_rejects_sizes_beyond_n(self):
        # Self-consistent statistics, but 900- and 800-vertex parts of a
        # 12-vertex graph.
        text = ",".join(CSV_COLUMNS) + "\n0,12,15,0.5,1,900,2,3,800,3,7,6,1\n"
        with pytest.raises(ValueError, match="component sizes"):
            parse_csv(text)
        with pytest.raises(ValueError, match="component sizes"):
            make_empty_row(largest_component=0).validate()


def synthetic_aggregate(**overrides) -> PointAggregate:
    kwargs = dict(
        n=512,
        m=256,
        realized_mu=0.0,
        trials=2000,
        survival_rate=0.8,
        excess_histogram=((0, 1600), (1, 300), (2, 100)),
        nonplanar_rate=0.05,
        nonplanar_rate_low_excess=0.05,
        mean_attempts=1.5,
        complex_trials=400,
        mean_diameter=10.0,
        se_diameter=0.2,
        mean_longest_path=12.0,
        se_longest_path=0.3,
        mean_circumference=6.0,
        se_circumference=0.1,
    )
    kwargs.update(overrides)
    return PointAggregate(**kwargs)


def table_of(aggregates) -> ResultTable:
    """Aggregate-only table; compare_theory never touches the rows."""
    return ResultTable(degrees="1,3", seed=0, rows=(), aggregates=tuple(aggregates))


@pytest.fixture(scope="module")
def report_and_table():
    cfg = ExperimentConfig(degrees="1,3", n=200, mus=(0.0,), trials=1000, seed=7, jobs=2)
    table = run_experiment(cfg)
    cp = critical_point(parse_degree_set("1,3"))
    return compare_theory(table, cp), table


class TestCompareTheory:
    def test_point_comparison_is_self_consistent(self, report_and_table):
        report, table = report_and_table
        (point,) = report.points
        (agg,) = table.aggregates
        assert (point.n, point.m, point.trials) == (agg.n, agg.m, agg.trials)
        assert point.survival_obs == agg.survival_rate
        low = [r for r in table.rows if r.total_excess <= 4]
        assert point.nonplanar_obs == sum(not r.planar for r in low) / len(low)
        assert 0.0 < point.survival_pred < 1.0
        assert 0.0 <= point.nonplanar_pred < 1.0
        assert 0.0 <= point.excess_pvalue <= 1.0
        # The non-planarity rate is among the trials of excess <= 4, so its
        # sigma divides by their count, not by all trials.
        for pred, obs, z, trials in [
            (point.survival_pred, point.survival_obs, point.survival_z, agg.trials),
            (point.nonplanar_pred, point.nonplanar_obs, point.nonplanar_z, len(low)),
        ]:
            sigma = math.sqrt(pred * (1.0 - pred) / trials)
            assert z == pytest.approx((obs - pred) / sigma, rel=1e-12)
        # Non-planarity is the one verdict.
        pred, obs = point.nonplanar_pred, point.nonplanar_obs
        sigma = math.sqrt(pred * (1.0 - pred) / len(low))
        assert point.nonplanar_ok == (abs(obs - pred) <= 3.0 * sigma + ACCEPT_SLACK)

    def test_excess_pvalue_matches_direct_chi_square(self, report_and_table):
        report, table = report_and_table
        from degwin.asymptotics import predict

        (point,) = report.points
        (agg,) = table.aggregates
        cp = critical_point(parse_degree_set("1,3"))
        dist = predict(cp, agg.realized_mu, "scaled", 20).excess_dist
        hist = dict(agg.excess_histogram)
        observed = [hist.get(q, 0) for q in range(5)]
        expected = [p / sum(dist[:5]) * sum(observed) for p in dist[:5]]
        pvalue = float(scipy_stats.chisquare(observed, expected).pvalue)
        assert point.excess_pvalue == pytest.approx(pvalue, rel=1e-12)

    @pytest.mark.parametrize(
        "observed, expected",
        [
            ([1040, 960], None),
            ([9, 0, 14, 11], None),
            ([500, 80, 30, 12, 6], [489.5, 88.0, 33.25, 14.0, 3.25]),
        ],
    )
    def test_chi2_pvalue_matches_scipy(self, observed, expected):
        # Uniform expectation when none is given, as verify's uniformity
        # sections use it.
        want = float(scipy_stats.chisquare(observed, expected).pvalue)
        assert chi2_pvalue(observed, expected) == pytest.approx(want, rel=1e-12, abs=0)

    def test_underpowered_point_warns(self):
        cfg = ExperimentConfig(degrees="1,3", n=30, mus=(0.0,), trials=20, seed=5)
        table = run_experiment(cfg)
        cp = critical_point(parse_degree_set("1,3"))
        with pytest.warns(UserWarning, match="lacks power"):
            compare_theory(table, cp)

    def test_scaling_pairs_matching_window_locations(self):
        aggs = [
            synthetic_aggregate(),
            synthetic_aggregate(n=4096, m=2048, mean_diameter=20.0),
            synthetic_aggregate(n=4096, m=2100, realized_mu=0.3, mean_diameter=99.0),
        ]
        cp = critical_point(parse_degree_set("1,3"))
        report = compare_theory(table_of(aggs), cp)
        (scaling,) = report.scalings
        assert (scaling.n_small, scaling.n_large) == (512, 4096)
        assert scaling.ratio == pytest.approx(2.0)
        assert scaling.expected_ratio == pytest.approx(8.0 ** (1.0 / 3.0))

    def test_scaling_skips_points_without_diameters(self):
        aggs = [
            synthetic_aggregate(
                survival_rate=1.0,
                excess_histogram=((0, 2000),),
                complex_trials=0,
                mean_diameter=None,
                se_diameter=None,
                mean_longest_path=None,
                se_longest_path=None,
                mean_circumference=None,
                se_circumference=None,
            ),
            synthetic_aggregate(n=4096, m=2048, mean_diameter=20.0),
        ]
        cp = critical_point(parse_degree_set("1,3"))
        assert compare_theory(table_of(aggs), cp).scalings == ()

    def test_unrepresented_excess_range_fails_the_fit(self):
        agg = synthetic_aggregate(
            survival_rate=0.0, excess_histogram=((7, 2000),), complex_trials=2000
        )
        cp = critical_point(parse_degree_set("1,3"))
        (point,) = compare_theory(table_of([agg]), cp).points
        assert point.excess_pvalue == 0.0

    def test_nonplanar_sigma_counts_only_low_excess_trials(self):
        # 500 of the 2000 trials have excess >= 5; the conditional rate is
        # over the other 1500, and so is its binomial sigma.
        agg = synthetic_aggregate(
            excess_histogram=((0, 1200), (1, 200), (2, 100), (6, 500)),
            nonplanar_rate_low_excess=0.01,
        )
        cp = critical_point(parse_degree_set("1,3"))
        (point,) = compare_theory(table_of([agg]), cp).points
        pred = point.nonplanar_pred
        sigma = math.sqrt(pred * (1.0 - pred) / 1500)
        assert point.nonplanar_z == pytest.approx((0.01 - pred) / sigma, rel=1e-12)
