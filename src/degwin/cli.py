"""Command-line interface.

Subcommands: threshold (critical constants of a degree family), predict
(window predictions over a mu list), sample (graphs as JSONL), experiment
(Monte Carlo sweep to CSV/JSON), verify (invariant suite).

Exit codes: 0 success; 2 infeasible configuration or any other error of the
package (degwin.errors), reported in one line; 3 statistical acceptance
failure in verify.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .asymptotics import check_q_max, predict, twopath_constants
from .critical import critical_point
from .degset import parse_degree_set
from .errors import DegwinError, InfeasibleError, MaxAttemptsError, OutOfRangeError
from .graph import to_jsonl_line
from .harness import (
    _CONFIG_CONVERTERS,
    _comma_list,
    CHUNK_TRIALS,
    compare_theory,
    config_from_mapping,
    load_config_file,
    render_csv,
    render_json,
    run_experiment,
)
from .sampler import (
    DEFAULT_MAX_ATTEMPTS,
    build_dp,
    edges_for_mu,
    sample_batch,
    trial_generator,
)

THRESHOLD_FIELDS = ("zhat", "alpha", "t3", "c2", "c3", "rho")
PREDICT_Q_SHOWN = 6


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degwin",
        description="Critical-window structure of random graphs with constrained degrees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="critical constants of a degree family")
    p.add_argument("--degrees", required=True, help="degree set, e.g. '1,3,5,7' or 'pow2:64'")
    p.add_argument("--json", action="store_true", help="emit a JSON object")

    p = sub.add_parser(
        "predict",
        help="window predictions over a mu list",
        description=(
            "n -> infinity window predictions: survival, the total-excess "
            "distribution P(q), planarity and the 2-path constants.  The planar "
            "kernel weights stop at excess 4, so 'planarity' is "
            "P(planar and excess <= 4), a lower bound on P(planar); the "
            "remainder is at most P(excess >= 5) = 1 - P(0) - ... - P(4)."
        ),
    )
    p.add_argument("--degrees", required=True)
    p.add_argument("--mu", required=True, type=_comma_list(float),
                   help="comma list; use --mu=-2,0,2 for negative values")
    p.add_argument("--qmax", default=20, type=int,
                   help="truncation of the excess distribution, 4 to 1200")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")

    p = sub.add_parser("sample", help="sample graphs as JSONL")
    p.add_argument("--degrees", required=True)
    p.add_argument("--n", required=True, type=int)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int, help="edge count")
    group.add_argument("--mu", type=float, help="window location (sets m)")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--count", default=1, type=int, help="number of graphs")
    p.add_argument("--max-attempts", default=DEFAULT_MAX_ATTEMPTS, type=int)
    p.add_argument("--out", help="output path (default: stdout)")

    p = sub.add_parser("experiment", help="Monte Carlo sweep; rows as CSV/JSON")
    p.add_argument("--config", help="flat key=value config file; flags override")
    p.add_argument("--degrees")
    p.add_argument("--n", type=_comma_list(int), help="comma list of sizes")
    p.add_argument("--mu", type=_comma_list(float),
                   help="comma list of window locations (--mu=-2,0,2 form for negatives)")
    p.add_argument("--m", type=_comma_list(int),
                   help="comma list of edge counts (alternative to --mu)")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int)
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--format", default="csv", choices=("csv", "json"))
    p.add_argument("--qmax", default=20, type=int)
    p.add_argument("--no-compare", action="store_true",
                   help="skip the theory comparison printed to stderr")

    p = sub.add_parser("verify", help="run the invariant suite")
    p.add_argument("--seed", default=0, type=int)
    p.add_argument("--trials", default=400, type=int,
                   help="Monte Carlo trials for the statistical sections")
    p.add_argument("--skip-monte-carlo", action="store_true",
                   help="only the fast deterministic sections")
    return parser


def _check_out(path) -> None:
    """Refuse an unwritable output path before any work; leave a file there as it is."""
    target = Path(path)
    if target.is_dir() or not os.access(target if target.exists() else target.parent, os.W_OK):
        raise OutOfRangeError(f"cannot write {path}: not a writable file path")


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out`` (UTF-8, '\\n' line ends), or to stdout."""
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)


def _cmd_threshold(args) -> int:
    ds = parse_degree_set(args.degrees)
    cp = critical_point(ds)
    values = dict(zip(THRESHOLD_FIELDS, (cp.zhat, cp.alpha, cp.t3, cp.c2, cp.c3, cp.rho)))
    if args.json:
        print(json.dumps({"degrees": str(ds), **values}))
    else:
        for name in THRESHOLD_FIELDS:
            print(f"{name} = {values[name]:.12g}")
    return 0


def _predict_row(cp, mu: float, qmax: int) -> dict:
    pred = predict(cp, mu, q_max=qmax)
    two = twopath_constants(cp, mu, q=1)
    return {
        "mu": mu,
        "survival": pred.survival,
        **{f"p{q}": pred.excess_dist[q] for q in range(PREDICT_Q_SHOWN + 1)},
        "planarity": pred.planarity,
        "b1": two.b1,
        "b2": two.b2,
    }


def _cmd_predict(args) -> int:
    if not args.mu:
        raise OutOfRangeError("--mu names no window location")
    ds = parse_degree_set(args.degrees)
    cp = critical_point(ds)
    rows = [_predict_row(cp, mu, args.qmax) for mu in args.mu]
    if args.json:
        print(json.dumps(rows, indent=1))
    elif args.csv:
        cols = list(rows[0])
        print(",".join(cols))
        for row in rows:
            print(",".join(f"{row[c]:.9g}" if isinstance(row[c], float) else str(row[c])
                           for c in cols))
    else:
        for row in rows:
            print(f"mu = {row['mu']:+g}")
            print(f"  survival  = {row['survival']:.6f}")
            dist = "  ".join(f"P({q})={row[f'p{q}']:.5f}" for q in range(PREDICT_Q_SHOWN + 1))
            print(f"  excess    : {dist}")
            print(f"  planarity = {row['planarity']:.6f}")
            print(f"  2-path    : b1 = {row['b1']:.6f}, b2 = {row['b2']:.6f} (q=1)")
    return 0


def _cmd_sample(args) -> int:
    if args.count < 0:
        raise OutOfRangeError(f"count must be >= 0, got {args.count}")
    if args.seed < 0:
        raise OutOfRangeError(f"seed must be >= 0, got {args.seed}")
    if args.max_attempts < 1:
        raise OutOfRangeError(f"max_attempts must be >= 1, got {args.max_attempts}")
    if args.out:
        _check_out(args.out)
    ds = parse_degree_set(args.degrees)
    if args.m is not None:
        m = args.m
    else:
        m, realized = edges_for_mu(ds, args.n, args.mu)
        print(f"m = {m} (realized mu = {realized:.6g})", file=sys.stderr)
    dp = build_dp(ds, args.n, 2 * m)
    lines = []
    for lo in range(0, args.count, CHUNK_TRIALS):
        hi = min(lo + CHUNK_TRIALS, args.count)
        rngs = [trial_generator(args.seed, t) for t in range(lo, hi)]
        graphs, _ = sample_batch(ds, dp, rngs, max_attempts=args.max_attempts)
        lines.extend(to_jsonl_line(g) for g in graphs)
    _write("".join(line + "\n" for line in lines), args.out)
    return 0


def _cmd_experiment(args) -> int:
    mapping: dict[str, object] = load_config_file(args.config) if args.config else {}
    for key in _CONFIG_CONVERTERS:
        if key == "max_attempts":  # a config-file key with no flag
            continue
        value = getattr(args, key)
        if value is not None:
            mapping[key] = value
    cfg = config_from_mapping(mapping)
    if cfg.out:
        _check_out(cfg.out)
    if not args.no_compare:
        check_q_max(args.qmax)
    rt = run_experiment(cfg)
    _write(render_csv(rt) if args.format == "csv" else render_json(rt), cfg.out)
    if cfg.out:
        print(f"wrote {len(rt.rows)} rows to {cfg.out}", file=sys.stderr)
    if not args.no_compare:
        cp = critical_point(parse_degree_set(cfg.degrees))
        report = compare_theory(rt, cp, q_max=args.qmax)
        for pt in report.points:
            print(
                f"n={pt.n} mu={pt.realized_mu:+.4f} m={pt.m}: "
                f"survival {pt.survival_obs:.4f} vs {pt.survival_pred:.4f} "
                f"(z={pt.survival_z:+.2f}), excess chi2 p={pt.excess_pvalue:.3g}, "
                f"nonplanar|q<=4 {pt.nonplanar_obs:.4f} vs {pt.nonplanar_pred:.4f} "
                f"(z={pt.nonplanar_z:+.2f})",
                file=sys.stderr,
            )
        for sc in report.scalings:
            exponent = math.log(sc.ratio) / math.log(sc.n_large / sc.n_small)
            print(
                f"diameter scaling n={sc.n_small}->{sc.n_large}: ratio "
                f"{sc.ratio:.3f} (n^(1/3) predicts {sc.expected_ratio:.3f}), "
                f"exponent {exponent:.3f} (1/3 predicted)",
                file=sys.stderr,
            )
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verify

    report = run_verify(
        seed=args.seed,
        trials=args.trials,
        monte_carlo=not args.skip_monte_carlo,
        log=print,
    )
    return 0 if report.ok else 3


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "threshold": _cmd_threshold,
        "predict": _cmd_predict,
        "sample": _cmd_sample,
        "experiment": _cmd_experiment,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except MaxAttemptsError as exc:
        print(f"no simple graph within the attempt budget: {exc}", file=sys.stderr)
        return 2
    except DegwinError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
