"""The benchmark's workloads and the timed rounds they run.

Every workload does the same three kinds of operation, in different
proportions, so that a gain in one layer that costs another shows:

* sweep trials: ``harness.run_experiment`` at one point on a seeded
  config, with the weight tables built beforehand (their cost is
  ``setup_s``);
* threshold solves: ``critical.critical_point`` with its result cache
  cleared before each solve;
* prediction rows: ``asymptotics.predict`` + ``twopath_constants``, as
  ``degwin predict`` computes one row (``scaled``, q_max = 20).

A run repeats whole rounds, each doing a fixed set of these operations,
until ``--seconds`` have passed.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import checks
from degwin import asymptotics, critical, harness, sampler, stats
from degwin.degset import parse_degree_set
from tracing import Tracer, layer_metrics, per_point

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
Q_MAX = 20  # as `degwin predict` uses it
MODULES = ("degset", "critical", "asymptotics", "sampler", "graph", "stats", "harness", "cli")
# The lru-cached solver itself: its cache is cleared through this name even
# while the module global is wrapped by the tracer.
SOLVE = critical.critical_point


@dataclass(frozen=True)
class Workload:
    name: str
    degrees: str  # sampled family
    n: int
    mus: tuple[float, ...]
    trials: int  # per sweep unit
    units: int  # sweep units per point per round
    families: tuple[str, ...]  # solved and predicted each round
    predict_mus: tuple[float, ...]
    solves: int  # per family per round
    row_repeats: int  # runs of each prediction row per round
    checked_trials: int  # per point per run, regenerated and recomputed
    setup: str  # "tables": solve + edge counts + weight tables; "import": CLI start-up


WORKLOADS = {
    w.name: w
    for w in (
        Workload("window", "1,3,5,7", 1000, (-2.0, 0.0, 2.0), 32, 1,
                 ("1,3,5,7",), (0.0,), 30, 8, 1, "tables"),
        Workload("unconstrained", "all:60", 2048, (0.0,), 128, 1,
                 ("all:60",), (0.0,), 20, 15, 2, "tables"),
        Workload("theory", "1,3", 1000, (0.0,), 64, 3,
                 ("0,1,4,5", "pow2:64", "all:60", "1,3,5,7", "1,3"),
                 (-2.0, -1.0, 0.0, 1.0, 2.0), 50, 1, 2, "import"),
    )
}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI module."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import degwin.cli"], env=_env(), check=True)
    return time.perf_counter() - t0


def import_ms() -> dict[str, float]:
    """Cumulative import time per degwin module, from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import degwin.cli"],
        env=_env(), check=True, capture_output=True, text=True,
    )
    found = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip().startswith("degwin."):
            module = parts[2].strip()[len("degwin."):]
            found.setdefault(module, int(parts[1]) / 1e3)
    return {m: found[m] for m in MODULES}


def _seed(seed: int, unit: int) -> int:
    """Experiment seed of sweep unit ``unit``: every unit samples new graphs."""
    return seed * 1000 + unit


class Run:
    """One invocation: set-up, timed rounds, checks and metrics."""

    def __init__(self, w: Workload, seed: int, seconds: float, tracer: Tracer | None):
        self.w, self.seed, self.seconds, self.tracer = w, seed, seconds, tracer
        self.ds = parse_degree_set(w.degrees)
        self.family_sets = {f: parse_degree_set(f) for f in w.families}
        self.tables = {}
        self.setup_s: list[float] = []
        self.rounds: list[dict] = []
        self.units: list[dict] = []  # point, unit number, table, seconds
        self.problems: list[str] = []

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def build_tables(self) -> None:
        """Threshold solve, edge counts and weight tables; timed SETUP_REPEATS
        times for the sweeps (built once, untimed, for ``theory``)."""
        repeats = SETUP_REPEATS if self.w.setup == "tables" else 1
        for _ in range(repeats):
            self.tables = {}  # frees the previous tables before building
            SOLVE.cache_clear()
            with self.span("bench.setup"):
                t0 = time.perf_counter()
                critical.critical_point(self.ds)
                for mu in self.w.mus:
                    m, _ = sampler.edges_for_mu(self.ds, self.w.n, mu)
                    self.tables[2 * m] = sampler.build_dp(self.ds, self.w.n, 2 * m)
                self.setup_s.append(time.perf_counter() - t0)
        if self.w.setup == "import":
            self.setup_s = [import_seconds() for _ in range(SETUP_REPEATS)]

    def sweep(self, unit: int, mu: float):
        """``run_experiment`` at one point, in this process, with the set-up's
        weight tables."""
        w = self.w
        cfg = harness.ExperimentConfig(
            w.degrees, n=w.n, mus=(mu,), trials=w.trials, seed=_seed(self.seed, unit), jobs=1
        )
        real = harness.build_dp
        harness.build_dp = lambda ds, n, two_m: self.tables[two_m]
        try:
            return harness.run_experiment(cfg)
        finally:
            harness.build_dp = real

    def round(self) -> dict:
        """The sweep units of every point, then the threshold solves, then
        the prediction rows.  Solves and rows are the same work every time,
        so each keeps its shortest time over the run: the machine's speed
        swings only ever add time."""
        w = self.w
        out = {"solve_s": {}, "row_s": {}, "cps": {}, "preds": {}}
        with self.span("bench.round"):
            for k, mu in enumerate(w.mus):
                for _ in range(w.units):
                    unit = len(self.units)
                    t0 = time.perf_counter()
                    table = self.sweep(unit, mu)
                    self.units.append({"point": k, "unit": unit, "table": table,
                                       "seconds": time.perf_counter() - t0})
            for family, fds in self.family_sets.items():
                times = []
                for _ in range(w.solves):
                    SOLVE.cache_clear()
                    t0 = time.perf_counter()
                    out["cps"][family] = critical.critical_point(fds)
                    times.append(time.perf_counter() - t0)
                out["solve_s"][family] = min(times)
            for family in w.families:
                cp = out["cps"][family]
                for mu in w.predict_mus:
                    times = []
                    for _ in range(w.row_repeats):
                        t0 = time.perf_counter()
                        out["preds"][family, mu] = (
                            asymptotics.predict(cp, mu, "scaled", Q_MAX),
                            asymptotics.twopath_constants(cp, mu, 1),
                        )
                        times.append(time.perf_counter() - t0)
                    out["row_s"][family, mu] = min(times)
        out["attempted"] = (
            len(w.mus) * w.units * w.trials
            + w.solves * len(w.families)
            + w.row_repeats * len(out["preds"])
        )
        out["failed"] = w.row_repeats * sum(checks.truncated(p) for p, _ in out["preds"].values())
        return out

    def execute(self) -> None:
        self.build_tables()
        start = time.perf_counter()
        while not self.rounds or time.perf_counter() - start < self.seconds:
            self.rounds.append(self.round())
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    # ------------------------------------------------------------ checks

    def check(self) -> None:
        first = self.rounds[0]
        for family, cp in first["cps"].items():
            self.problems += checks.check_threshold(family, self.family_sets[family].degrees, cp)
        for (family, mu), (pred, two) in first["preds"].items():
            if checks.truncated(pred):
                continue  # counted as failed
            plain = None
            if mu == 0.0:
                plain = asymptotics.predict(first["cps"][family], mu, "plain", Q_MAX)
            self.problems += checks.check_prediction(family, pred, plain)
            self.problems += checks.check_twopath(family, mu, two)
        for r in self.rounds[1:]:
            if r["cps"] != first["cps"] or r["preds"] != first["preds"]:
                self.problems.append("threshold or prediction differs between rounds")
        self.check_sweeps()

    def check_sweeps(self) -> None:
        """Rows follow the config; at every point a seeded choice of trials,
        plus the one with the smallest complex part, is regenerated from its
        generator stream and recomputed."""
        w = self.w
        points = [sampler.edges_for_mu(self.ds, w.n, mu)[0] for mu in w.mus]
        if sorted(2 * m for m in points) != sorted(self.tables):
            self.problems.append(f"edge counts {points} differ from the set-up's tables")
        pick = random.Random(self.seed)
        for k, m in enumerate(points):
            units = [u for u in self.units if u["point"] == k]
            for u in units:
                rows = u["table"].rows
                if [(x.trial, x.n, x.m) for x in rows] != [(t, w.n, m) for t in range(w.trials)]:
                    self.problems.append(f"unit {u['unit']}: rows do not follow the config")
            chosen = {
                (pick.randrange(len(units)), pick.randrange(w.trials))
                for _ in range(w.checked_trials)
            }
            complex_rows = [
                (row.complex_size, i, row.trial)
                for i, u in enumerate(units) for row in u["table"].rows if row.complex_size
            ]
            if complex_rows:
                chosen.add(min(complex_rows)[1:])
            for i, t in sorted(chosen):
                row = units[i]["table"].rows[t]
                unit = units[i]["unit"]
                g, attempts = sampler.sample_simple_graph(
                    self.ds, w.n, m, sampler.trial_generator(_seed(self.seed, unit), t),
                    dp=self.tables[2 * m],
                )
                found = checks.check_trial(
                    row, g.edges, w.n, m, self.ds.degrees, stats.MAX_KERNEL_EXCESS
                )
                if attempts != row.attempts:
                    found.append(f"attempts {row.attempts}, regenerated {attempts}")
                self.problems += [f"unit {unit} trial {t}: {p}" for p in found]

    # ----------------------------------------------------------- metrics

    def end_to_end(self) -> dict:
        # Per point, the median sweep unit: a unit that drew one of the rare
        # graphs whose exhaustive path search takes up to a second, or a long
        # rejection tail, counts as one unit, not by its length.
        rounds = self.rounds
        sweep_s = sum(
            statistics.median(u["seconds"] for u in self.units if u["point"] == k)
            for k in range(len(self.w.mus))
        )
        solve_s = sum(min(r["solve_s"][f] for r in rounds) for f in self.w.families)
        row_s = sum(min(r["row_s"][key] for r in rounds) for key in rounds[0]["row_s"])
        return {
            "trials_per_s": ("trials/s", len(self.w.mus) * self.w.trials / sweep_s),
            "setup_s": ("s", statistics.median(self.setup_s)),
            "peak_rss_mb": ("MB", self.peak_rss_mb),
            "predict_rows_per_s": ("rows/s", len(rounds[0]["row_s"]) / row_s),
            "threshold_solves_per_s": ("solves/s", len(self.w.families) / solve_s),
        }


def run(w: Workload, seed: int, seconds: float, traced: bool) -> dict:
    warnings.simplefilter("ignore")  # truncation is counted by the checks
    tracer = Tracer() if traced else None
    job = Run(w, seed, seconds, tracer)
    if tracer:
        tracer.install()
    try:
        job.execute()
    finally:
        if tracer:
            tracer.uninstall()
    job.check()
    e2e = job.end_to_end()
    first = [u for u in job.units if u["unit"] < len(w.mus) * w.units]  # round 0
    if tracer:
        # The traced sweeps must emit exactly the rows of untraced ones.
        for u in first:
            again = job.sweep(u["unit"], w.mus[u["point"]])
            if harness.render_csv(again) != harness.render_csv(u["table"]):
                job.problems.append(f"unit {u['unit']}: traced rows differ from untraced rows")
        table_mb = max(dp.logw.nbytes for dp in job.tables.values()) / 1e6
        metrics = layer_metrics(tracer.spans, import_ms(), table_mb)
        tracer.write(
            OUT / f"trace-{w.name}-seed{seed}.json",
            {
                "workload": w.name,
                "seed": seed,
                "rounds": len(job.rounds),
                "end_to_end_traced": {k: v for k, (_, v) in e2e.items()},
                "per_point": per_point(tracer.spans),
                "per_layer": {k: v for k, (_, v) in metrics.items()},
            },
        )
    else:
        metrics = e2e
    for p in job.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    digest = hashlib.sha256(
        "".join(harness.render_csv(u["table"]) for u in first).encode()
    ).hexdigest()
    print(f"{w.name} seed {seed}: {len(job.rounds)} rounds; round-0 csv sha256 {digest}",
          file=sys.stderr)
    for k, mu in enumerate(w.mus):
        rates = [round(w.trials / u["seconds"], 2) for u in job.units if u["point"] == k]
        print(f"  mu {mu:+g}: trials/s per unit {rates}", file=sys.stderr)
    return {
        "correct": not job.problems,
        "attempted": sum(r["attempted"] for r in job.rounds),
        "failed": sum(r["failed"] for r in job.rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }
