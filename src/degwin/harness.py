"""Seeded Monte Carlo experiments over the critical window.

The driver resolves each requested size n and window location mu to an
admissible edge count, samples ``trials`` graphs per point with per-trial
generator streams, summarises each graph, and aggregates per point.  Sizes
are the outer loop and the mu (or m) list the inner one.  Trial t of the
k-th mu (or m) draws from ``trial_generator(seed, t, k)``, with k the index
in that list and the same at every n, so the emitted rows are bit-identical
across chunkings and process counts, and a run over several n equals the
single-n runs concatenated.

One row per trial: the fields of ``TrialRow``, in declaration order, are
the CSV columns and the JSON row cells (``planar`` encoded 1/0).
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .asymptotics import PLANAR_Q_MAX, predict
from .critical import CriticalPoint, critical_point
from .degset import DegreeSet, parse_degree_set
from .errors import InfeasibleError, MaxAttemptsError, OutOfRangeError
from .sampler import (
    DEFAULT_MAX_ATTEMPTS,
    DPTable,
    build_dp,
    edges_for_mu,
    sample_batch,
    trial_generator,
)
from .stats import GraphSummary, summarize

CHUNK_TRIALS = 256
ACCEPT_SLACK = 0.02
CHI2_MIN_P = 1e-3
MIN_TRIALS_FOR_COMPARISON = 1_000
EXCESS_CHI2_RANGE = 5  # chi-square over total excess q = 0..4


def _round9(x: float) -> float:
    """Round to the CSV precision so emit/parse is an exact roundtrip."""
    return float(f"{x:.9g}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a degree family at one or more n, each swept over
    the same window locations.

    ``n`` is a tuple of sizes; a single int is taken as a 1-tuple.  Exactly
    one of ``mus`` (window locations, converted via edges_for_mu) and ``ms``
    (explicit edge counts) may be non-empty; both empty means the single
    point mu = 0.
    """

    degrees: str
    n: tuple[int, ...] = (1000,)
    mus: tuple[float, ...] = ()
    ms: tuple[int, ...] = ()
    trials: int = 1000
    seed: int = 0
    jobs: int = 1
    out: str | None = None
    max_attempts: int = DEFAULT_MAX_ATTEMPTS

    def __post_init__(self):
        if not self.degrees:
            raise OutOfRangeError("degrees specification must be non-empty")
        object.__setattr__(
            self, "n", (self.n,) if isinstance(self.n, int) else tuple(self.n)
        )
        if not self.n or min(self.n) < 1 or len(set(self.n)) < len(self.n):
            raise OutOfRangeError(
                f"n must be one or more distinct sizes >= 1, got {self.n}"
            )
        if self.trials < 1:
            raise OutOfRangeError(f"trials must be >= 1, got {self.trials}")
        if self.jobs < 1:
            raise OutOfRangeError(f"jobs must be >= 1, got {self.jobs}")
        if self.seed < 0:
            raise OutOfRangeError(f"seed must be >= 0, got {self.seed}")
        if self.max_attempts < 1:
            raise OutOfRangeError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.mus and self.ms:
            raise OutOfRangeError("give a mu-list or an m-list, not both")
        if not self.mus and not self.ms:
            object.__setattr__(self, "mus", (0.0,))


def _comma_list(convert):
    """Parser of a comma list into a tuple of ``convert``-ed items, skipping
    empty items; the config file and the CLI flags share it."""
    return lambda text: tuple(convert(x) for x in text.split(",") if x.strip())


_CONFIG_CONVERTERS = {
    "degrees": str,
    "n": _comma_list(int),
    "mu": _comma_list(float),
    "m": _comma_list(int),
    "trials": int,
    "seed": int,
    "jobs": int,
    "out": str,
    "max_attempts": int,
}
_CONFIG_FIELDS = {"mu": "mus", "m": "ms"}


def load_config_file(path) -> dict[str, str]:
    """Flat key=value text; blank lines and '#' comments are ignored, and a
    key may be given once."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise OutOfRangeError(f"cannot read config file {path}: {reason}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise OutOfRangeError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_CONVERTERS:
            raise OutOfRangeError(f"{path}:{lineno}: unknown key {key!r}")
        if key in out:
            raise OutOfRangeError(f"{path}:{lineno}: key {key!r} given twice")
        out[key] = value
    return out


def config_from_mapping(mapping: dict[str, object]) -> ExperimentConfig:
    """Build a config from string-valued (file) or typed (flag) entries.

    A ``mu`` or ``m`` entry must name at least one value; leaving both out
    gives the config's default, the single point mu = 0.
    """
    kwargs = {}
    for key, value in mapping.items():
        if key not in _CONFIG_CONVERTERS:
            raise OutOfRangeError(f"unknown config key {key!r}")
        if isinstance(value, str):
            try:
                value = _CONFIG_CONVERTERS[key](value)
            except ValueError:
                raise OutOfRangeError(f"config key {key!r}: bad value {value!r}") from None
        if key in _CONFIG_FIELDS and not value:
            noun = "window location" if key == "mu" else "edge count"
            raise OutOfRangeError(f"config key {key!r} names no {noun}")
        kwargs[_CONFIG_FIELDS.get(key, key)] = value
    if "degrees" not in kwargs:
        raise OutOfRangeError("no degrees: give --degrees or a degrees = ... config line")
    return ExperimentConfig(**kwargs)


@dataclass(frozen=True)
class ExperimentPoint:
    """A resolved sweep point: size n, admissible m and the mu it realises.

    ``index`` is the position of the point's mu (or m) in the config list.
    """

    index: int
    n: int
    nominal_mu: float | None
    m: int
    realized_mu: float


def resolve_points(cfg: ExperimentConfig, ds: DegreeSet) -> tuple[ExperimentPoint, ...]:
    """Every (n, list entry) of the sweep with its edge count; two entries
    that give one m at some n are refused, since their rows would merge."""
    cp = critical_point(ds)
    key, values = ("m", cfg.ms) if cfg.ms else ("mu", cfg.mus)
    points = []
    for n in cfg.n:
        scale = float(n) ** (1.0 / 3.0)
        first: dict[int, int] = {}
        for i, value in enumerate(values):
            if cfg.ms:
                m, mu = value, (value / (cp.alpha * n) - 1.0) * scale
            else:
                m, mu = edges_for_mu(ds, n, value)
            j = first.setdefault(m, i)
            if j != i:
                raise OutOfRangeError(
                    f"{key}[{j}] = {values[j]} and {key}[{i}] = {value} "
                    f"both give m = {m} at n = {n}"
                )
            points.append(ExperimentPoint(i, n, None if cfg.ms else value, m, _round9(mu)))
    return tuple(points)


@dataclass(frozen=True)
class _RowKey:
    """The sweep point and trial a row belongs to."""

    trial: int
    n: int
    m: int
    realized_mu: float


@dataclass(frozen=True)
class TrialRow(GraphSummary, _RowKey):
    """One sampled graph: the point key, then its ``GraphSummary`` fields.

    Dataclass fields follow the reversed MRO, so the key comes first; the
    field order is the CSV column order.
    """

    @classmethod
    def from_summary(
        cls, trial: int, n: int, m: int, realized_mu: float, s: GraphSummary
    ) -> "TrialRow":
        return cls(trial, n, m, realized_mu, **vars(s))

    def validate(self) -> None:
        if self.trial < 0 or self.attempts < 1 or not math.isfinite(self.realized_mu):
            raise ValueError(f"trial, attempts or realized_mu out of range: {self}")
        if not (
            1 <= self.largest_component <= self.n and 0 <= self.complex_size <= self.n
        ):
            raise ValueError(f"component sizes inconsistent with n = {self.n}: {self}")
        # All excesses sum to m - n, and those of trees and unicycles are <= 0.
        if self.total_excess < self.m - self.n:
            raise ValueError(f"total excess below m - n = {self.m - self.n}: {self}")
        super().validate()


def _bool_cell(cell: str) -> bool:
    if cell not in ("0", "1"):
        raise ValueError(f"bad bool cell {cell!r}: expected 0 or 1")
    return cell == "1"


CSV_COLUMNS = tuple(f.name for f in fields(TrialRow))
_CELL_PARSERS = tuple(
    _bool_cell if t is bool else t
    for t in map(get_type_hints(TrialRow).get, CSV_COLUMNS)
)


@dataclass(frozen=True)
class PointAggregate:
    """Per-point empirical summaries, recomputable exactly from the rows.

    ``nonplanar_rate_low_excess`` is the non-planar fraction among the trials
    with total excess <= PLANAR_Q_MAX, the range the planar-kernel
    prediction covers (None when no trial falls in it).  Length
    means/standard errors are over trials with a complex part only, skipping
    -1 not-computed length sentinels (None when no trial contributes, or too
    few for a standard error).
    """

    n: int
    m: int
    realized_mu: float
    trials: int
    survival_rate: float
    excess_histogram: tuple[tuple[int, int], ...]
    nonplanar_rate: float
    nonplanar_rate_low_excess: float | None
    mean_attempts: float
    complex_trials: int
    mean_diameter: float | None
    se_diameter: float | None
    mean_longest_path: float | None
    se_longest_path: float | None
    mean_circumference: float | None
    se_circumference: float | None


def _mean_se(values: list[int]) -> tuple[float | None, float | None]:
    k = len(values)
    if k == 0:
        return None, None
    mean = math.fsum(values) / k
    if k == 1:
        return mean, None
    var = math.fsum((v - mean) ** 2 for v in values) / (k - 1)
    return mean, math.sqrt(var / k)


def aggregate_rows(rows) -> tuple[PointAggregate, ...]:
    """Group rows by (n, m) in first-appearance order and aggregate."""
    groups: dict[tuple[int, int], list[TrialRow]] = {}
    for row in rows:
        groups.setdefault((row.n, row.m), []).append(row)
    out = []
    for (n, m), grp in groups.items():
        trials = len(grp)
        mus = {r.realized_mu for r in grp}
        if len(mus) != 1:
            raise ValueError(f"inconsistent realized_mu within point (n={n}, m={m})")
        hist = Counter(r.total_excess for r in grp)
        complex_rows = [r for r in grp if r.total_excess > 0]
        low_rows = [r for r in grp if r.total_excess <= PLANAR_Q_MAX]
        mean_d, se_d = _mean_se([r.complex_diameter for r in complex_rows])
        mean_l, se_l = _mean_se(
            [r.complex_longest_path for r in complex_rows if r.complex_longest_path >= 0]
        )
        mean_c, se_c = _mean_se(
            [r.complex_circumference for r in complex_rows if r.complex_circumference >= 0]
        )
        out.append(
            PointAggregate(
                n=n,
                m=m,
                realized_mu=mus.pop(),
                trials=trials,
                survival_rate=hist.get(0, 0) / trials,
                excess_histogram=tuple(sorted(hist.items())),
                nonplanar_rate=sum(1 for r in grp if not r.planar) / trials,
                nonplanar_rate_low_excess=(
                    sum(1 for r in low_rows if not r.planar) / len(low_rows)
                    if low_rows
                    else None
                ),
                mean_attempts=math.fsum(r.attempts for r in grp) / trials,
                complex_trials=len(complex_rows),
                mean_diameter=mean_d,
                se_diameter=se_d,
                mean_longest_path=mean_l,
                se_longest_path=se_l,
                mean_circumference=mean_c,
                se_circumference=se_c,
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class ResultTable:
    """All trial rows of an experiment plus their per-point aggregates."""

    degrees: str
    seed: int
    rows: tuple[TrialRow, ...]
    aggregates: tuple[PointAggregate, ...]

    def validate(self) -> None:
        """Row-level invariants plus exact aggregate reproducibility."""
        for row in self.rows:
            row.validate()
        if aggregate_rows(self.rows) != self.aggregates:
            raise ValueError("aggregates do not match their rows")


def _sample_summaries(
    ds: DegreeSet,
    dp: DPTable,
    seed: int,
    point_index: int,
    lo: int,
    hi: int,
    max_attempts: int,
) -> list[GraphSummary]:
    """Sample and summarise trials [lo, hi) of one point."""
    rngs = [trial_generator(seed, t, point_index) for t in range(lo, hi)]
    graphs, attempts = sample_batch(ds, dp, rngs, max_attempts=max_attempts)
    return [summarize(g, attempts=a) for g, a in zip(graphs, attempts)]


# Set once per worker process by the pool initializer, so the weight table
# of the point is built once in the parent and reaches each worker once
# (inherited on fork, pickled once per worker otherwise), not once per chunk.
_worker_table: tuple[DegreeSet, DPTable] | None = None


def _init_worker(degrees: str, dp: DPTable) -> None:
    global _worker_table
    _worker_table = (parse_degree_set(degrees), dp)


def _worker_chunk(args) -> list[GraphSummary]:
    return _sample_summaries(*_worker_table, *args)


def _run_point(
    cfg: ExperimentConfig, ds: DegreeSet, point: ExperimentPoint
) -> list[GraphSummary]:
    dp = build_dp(ds, point.n, 2 * point.m)
    chunk_args = [
        (cfg.seed, point.index, lo, min(lo + CHUNK_TRIALS, cfg.trials), cfg.max_attempts)
        for lo in range(0, cfg.trials, CHUNK_TRIALS)
    ]
    if cfg.jobs == 1 or len(chunk_args) == 1:
        parts = [_sample_summaries(ds, dp, *a) for a in chunk_args]
    else:
        with ProcessPoolExecutor(
            max_workers=min(cfg.jobs, len(chunk_args)),
            initializer=_init_worker,
            initargs=(cfg.degrees, dp),
        ) as pool:
            parts = list(pool.map(_worker_chunk, chunk_args))
    return [s for part in parts for s in part]


def run_experiment(cfg: ExperimentConfig) -> ResultTable:
    """Sample every point of the sweep; deterministic for fixed (cfg, seed).

    On a sampler/infeasibility error at some point, the same error is
    re-raised with the completed points attached as ``exc.partial_table``.
    """
    ds = parse_degree_set(cfg.degrees)
    points = resolve_points(cfg, ds)
    rows: list[TrialRow] = []

    def table() -> ResultTable:
        return ResultTable(cfg.degrees, cfg.seed, tuple(rows), aggregate_rows(rows))

    for point in points:
        try:
            summaries = _run_point(cfg, ds, point)
        except (InfeasibleError, MaxAttemptsError) as exc:
            err = type(exc)(f"point {point.index} (n={point.n}, m={point.m}): {exc}")
            err.partial_table = table()
            raise err from exc
        rows.extend(
            TrialRow.from_summary(t, point.n, point.m, point.realized_mu, s)
            for t, s in enumerate(summaries)
        )
    return table()


@dataclass(frozen=True)
class PointComparison:
    """Empirical vs predicted at one point; ok-flags use 3 sigma + slack.

    The non-planarity fields are P(non-planar | total excess <= 4), the
    event the planar-kernel prediction covers exactly.
    """

    n: int
    m: int
    realized_mu: float
    trials: int
    survival_pred: float
    survival_obs: float
    survival_z: float
    survival_ok: bool
    excess_pvalue: float
    excess_ok: bool
    nonplanar_pred: float
    nonplanar_obs: float
    nonplanar_z: float
    nonplanar_ok: bool


@dataclass(frozen=True)
class DiameterScaling:
    """Mean complex diameter ratio between two n at matching mu."""

    n_small: int
    n_large: int
    ratio: float
    expected_ratio: float


@dataclass(frozen=True)
class TheoryReport:
    points: tuple[PointComparison, ...]
    scalings: tuple[DiameterScaling, ...]


def _rate_check(pred: float, obs: float | None, trials: int) -> tuple[float, bool]:
    if obs is None or trials == 0:
        return math.nan, False
    sigma = math.sqrt(max(pred * (1.0 - pred), 0.0) / trials)
    diff = obs - pred
    z = diff / sigma if sigma > 0 else (0.0 if diff == 0 else math.inf)
    return z, abs(diff) <= 3.0 * sigma + ACCEPT_SLACK


def chi2_pvalue(observed, expected=None) -> float:
    """Pearson chi-square p-value of observed counts against expected ones
    (uniform over the cells when ``expected`` is None), with k - 1 degrees
    of freedom for k cells."""
    from scipy.special import chdtrc

    observed = np.asarray(observed, dtype=float)
    if expected is None:
        expected = np.full(observed.shape, observed.mean())
    stat = float(np.sum((observed - expected) ** 2 / expected))
    return float(chdtrc(observed.size - 1, stat))


def _excess_chi2(agg: PointAggregate, excess_dist) -> float:
    """Chi-square p-value over q = 0..4, renormalised to that range."""
    hist = dict(agg.excess_histogram)
    observed = np.array([hist.get(q, 0) for q in range(EXCESS_CHI2_RANGE)], dtype=float)
    captured = observed.sum()
    if captured == 0:
        return 0.0
    mass = sum(excess_dist[:EXCESS_CHI2_RANGE])
    expected = np.array(excess_dist[:EXCESS_CHI2_RANGE]) / mass * captured
    return chi2_pvalue(observed, expected)


def compare_theory(
    rt: ResultTable,
    cp: CriticalPoint,
    q_max: int = 20,
) -> TheoryReport:
    """Z-scores and chi-square fits of the table against window predictions.

    Survival and non-planarity use the binomial 3 sigma + 0.02 slack rule
    (the predictions are asymptotic, with unquantified O(n^{-1/3})
    corrections); the excess distribution is tested over q = 0..4.
    Non-planarity is compared conditionally on total excess <= 4, over the
    trials in that range: the planar-kernel weights stop at q = 4, so every
    graph of excess >= 5 would otherwise count as non-planar.  A point with
    no trial in that range fails the non-planarity check (z is NaN).  Warns
    rather than fails below 1000 trials per point.
    """
    comparisons = []
    for agg in rt.aggregates:
        if agg.trials < MIN_TRIALS_FOR_COMPARISON:
            warnings.warn(
                f"only {agg.trials} trials at (n={agg.n}, m={agg.m}); "
                f"comparison lacks power",
                stacklevel=2,
            )
        pred = predict(cp, agg.realized_mu, q_max=q_max)
        survival_z, survival_ok = _rate_check(
            pred.survival, agg.survival_rate, agg.trials
        )
        hist = dict(agg.excess_histogram)
        low_trials = sum(hist.get(q, 0) for q in range(PLANAR_Q_MAX + 1))
        nonplanar_pred = pred.nonplanar_low_excess
        nonplanar_obs = agg.nonplanar_rate_low_excess
        nonplanar_z, nonplanar_ok = _rate_check(nonplanar_pred, nonplanar_obs, low_trials)
        pvalue = _excess_chi2(agg, pred.excess_dist)
        comparisons.append(
            PointComparison(
                n=agg.n,
                m=agg.m,
                realized_mu=agg.realized_mu,
                trials=agg.trials,
                survival_pred=pred.survival,
                survival_obs=agg.survival_rate,
                survival_z=survival_z,
                survival_ok=survival_ok,
                excess_pvalue=pvalue,
                excess_ok=pvalue > CHI2_MIN_P,
                nonplanar_pred=nonplanar_pred,
                nonplanar_obs=math.nan if nonplanar_obs is None else nonplanar_obs,
                nonplanar_z=nonplanar_z,
                nonplanar_ok=nonplanar_ok,
            )
        )
    scalings = []
    for a in rt.aggregates:
        for b in rt.aggregates:
            if (
                a.n < b.n
                and abs(a.realized_mu - b.realized_mu) <= 0.25
                and a.mean_diameter is not None
                and b.mean_diameter is not None
            ):
                scalings.append(
                    DiameterScaling(
                        n_small=a.n,
                        n_large=b.n,
                        ratio=b.mean_diameter / a.mean_diameter,
                        expected_ratio=(b.n / a.n) ** (1.0 / 3.0),
                    )
                )
    return TheoryReport(points=tuple(comparisons), scalings=tuple(scalings))


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return f"{value:.9g}"


def _values(row: TrialRow) -> list:
    return [getattr(row, name) for name in CSV_COLUMNS]


def render_csv(rt: ResultTable) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for r in rt.rows:
        lines.append(",".join(_cell(v) for v in _values(r)))
    return "\n".join(lines) + "\n"


def render_json(rt: ResultTable) -> str:
    doc = {
        "degrees": rt.degrees,
        "seed": rt.seed,
        "columns": list(CSV_COLUMNS),
        "rows": [
            [int(v) if isinstance(v, bool) else v for v in _values(r)]
            for r in rt.rows
        ],
        "aggregates": [asdict(a) for a in rt.aggregates],
    }
    return json.dumps(doc, indent=1) + "\n"


def emit(rt: ResultTable, fmt: str, path) -> Path:
    """Write the table as csv or json; returns the path written."""
    if fmt == "csv":
        text = render_csv(rt)
    elif fmt == "json":
        text = render_json(rt)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected csv or json")
    path = Path(path)
    try:
        path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    return path


def parse_csv(source: str | Path) -> tuple[TrialRow, ...]:
    """Read rows back from a CSV file (a ``Path``) or CSV text (a ``str``).

    Validates each row.
    """
    text = source.read_text(encoding="utf-8") if isinstance(source, Path) else source
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(CSV_COLUMNS):
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for parts in reader:
        if not parts:
            continue
        if len(parts) != len(CSV_COLUMNS):
            raise ValueError(f"bad CSV row: {parts!r}")
        row = TrialRow(*(parse(cell) for parse, cell in zip(_CELL_PARSERS, parts)))
        row.validate()
        rows.append(row)
    return tuple(rows)
