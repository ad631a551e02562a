"""Command-line entry point wiring models, estimators, regions, and runs.

Subcommands: estimate, region, classify, predict, risk-table (the exact
risks; ``--reps`` adds a seeded Monte Carlo check), converge, validate.
Every run writes its reports as CSV plus a mirrored JSON document into the
output directory, with a manifest of the resolved configuration, seed,
artifact paths and wall time, written even when the run fails.  An argv
that argparse rejects exits 2 before any run and writes no manifest.
Exit codes: 0 success, 2 validation error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InvariantViolation, ModelSpecError, RelBeliefError
from .estimators import bayes_rule, lrse, map_estimate
from .losses import parse_loss, parse_number
from .model import belief_tables, sample_space_tables
from .modelfile import load_model
from .regions import eta_sweep, hpd_region, lpl_region, rs_region
from .reporting import write_report, write_text


def _float_list(text: str) -> list[float]:
    return [parse_number(v) for v in text.replace(";", ",").split(",") if v.strip()]


def _matrix(text: str) -> np.ndarray:
    rows = [[parse_number(v) for v in row.split(",")] for row in text.split(";")]
    if len({len(row) for row in rows}) != 1:
        raise InvariantViolation(f"design rows differ in length: {text!r}")
    return np.array(rows)


class _Parser(argparse.ArgumentParser):
    """``ArgumentParser`` whose subparsers read negative numbers as values.

    argparse's own pattern takes ``-7.3e-05`` or ``-inf`` for an option and
    then reports "expected one argument".  Here a token is a value when a
    digit, a point and a digit, ``inf`` or ``nan`` follows its minus sign:
    every negative number ``float`` reads, and number lists such as ``-1,2``.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    Parsing keeps no state in the parser: each ``parse_args`` call returns a
    fresh namespace filled from the defaults, so one run cannot leak its
    arguments into the next.
    """
    parser = _Parser(
        prog="relbelief",
        description="Relative-belief inference: estimators, regions, and experiments.",
    )
    parser.add_argument("--output-dir", default=".", help="directory for reports and manifest")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized subcommands")
    parser.add_argument("--threads", type=int, default=1, help="worker cap; never changes results")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("estimate", help="point estimate on a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True, help="observed sample point (label or index)")
    p.add_argument("--estimator", choices=("lrse", "map", "bayes"), required=True)
    p.add_argument("--loss", default=None, help="loss spec, required for bayes")

    p = sub.add_parser("region", help="credible region on a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--family", choices=("hpd", "rs", "lpl"), required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--loss", default=None, help="loss spec for the lpl family")
    p.add_argument("--sweep", default=None, help="eta=V1,V2,... for a capped-loss sweep")

    p = sub.add_parser("classify", help="two-class closed-form classifier")
    p.add_argument("--psi1", type=float, required=True)
    p.add_argument("--psi2", type=float, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--x", type=int, choices=(0, 1), required=True)
    p.add_argument("--method", choices=("map", "lrse"), required=True)
    p.add_argument("--risks", action="store_true", help="include conditional error rates")

    p = sub.add_parser("predict", help="closed-form prediction")
    p.add_argument("--kind", choices=("class", "regression"), required=True)
    p.add_argument("--method", choices=("map", "lrse"), default="lrse")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--cbar", type=float, default=0.0)
    p.add_argument("--mu", type=float, default=None, help="class-1 shift for the f-ratio")
    p.add_argument("--x-next", type=float, default=None, help="new observation")
    p.add_argument("--f-ratio", type=float, default=None, help="explicit likelihood ratio")
    p.add_argument("--design", default=None, help="rows 'a,b;c,d' of the design matrix")
    p.add_argument("--y", default=None, help="responses v1,v2,...")
    p.add_argument("--w", default=None, help="predictor setting v1,v2,...")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--tau2", type=float, default=1.0)

    p = sub.add_parser("risk-table", help="exact conditional risk table")
    p.add_argument("--reps", type=int, help="add a seeded Monte Carlo check, REPS draws per class")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--betas", default="1,14,32,100")

    p = sub.add_parser("converge", help="grid refinement on the normal-normal testbed")
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--x", type=float, default=1.0)
    p.add_argument("--lambdas", default="0.2,0.1,0.05,0.025")
    p.add_argument("--etas", default="0.01,0.001")
    p.add_argument("--gamma", type=float, default=0.9)

    p = sub.add_parser("validate", help="strict schema check of a model file")
    p.add_argument("--model", required=True)
    return parser


def _run_estimate(args, outdir: Path) -> list[Path]:
    model = load_model(args.model)
    tables = belief_tables(model, args.x)
    if args.estimator == "lrse":
        result = lrse(tables)
    elif args.estimator == "map":
        result = map_estimate(tables)
    else:
        if not args.loss:
            raise InvariantViolation("the bayes estimator needs --loss")
        result = bayes_rule(parse_loss(args.loss, Path(args.model).parent), tables)
    print(result.psi_label)
    columns = ["estimator", "loss", "x", "psi_index", "psi_label",
               "criterion_value", "tie", "argmax_set"]
    rows = [[args.estimator, args.loss or "", args.x, result.psi_index,
             result.psi_label, result.criterion_value, result.tie,
             "|".join(str(i) for i in result.argmax_set)]]
    return write_report(outdir / "estimate", columns, rows)


def _run_region(args, outdir: Path) -> list[Path]:
    model = load_model(args.model)
    tables = belief_tables(model, args.x)
    loss = parse_loss(args.loss, Path(args.model).parent) if args.loss else None
    artifacts: list[Path] = []
    if args.sweep:
        key, _, values = args.sweep.partition("=")
        if key.strip() != "eta":
            raise InvariantViolation("--sweep expects eta=V1,V2,...")
        report = eta_sweep(tables, args.gamma, _float_list(values))
        columns = ["eta", "members", "threshold", "attained_mass",
                   "contains_rs", "within_next", "equals_rs"]
        rows = [[row.eta,
                 "|".join(tables.psi_labels[i] for i in row.region.members),
                 row.region.threshold, row.region.attained_mass,
                 row.contains_rs, row.within_next, row.equals_rs]
                for row in report.rows]
        artifacts += write_report(outdir / "region_sweep", columns, rows)
        print(f"sweep gamma={args.gamma:g} next_gamma={report.next_gamma:g} "
              f"final_equals_rs={report.final_equals_rs}")
        return artifacts
    if args.family == "hpd":
        region = hpd_region(tables, args.gamma)
    elif args.family == "rs":
        region = rs_region(tables, args.gamma)
    else:
        if loss is None:
            raise InvariantViolation("the lpl family needs --loss")
        region = lpl_region(loss, tables, args.gamma)
    labels = [tables.psi_labels[i] for i in region.members]
    print(f"members: {{{', '.join(labels)}}} attained={region.attained_mass:.6g}")
    columns = ["family", "gamma", "threshold", "attained_mass", "member_index", "member_label"]
    rows = [[args.family, args.gamma, region.threshold, region.attained_mass, i,
             tables.psi_labels[i]] for i in region.members]
    return write_report(outdir / "region", columns, rows)


def _run_classify(args, outdir: Path) -> list[Path]:
    from .closed_form import BinomialClassifier, classifier_risks, classify

    model = BinomialClassifier(psi1=args.psi1, psi2=args.psi2, epsilon=args.epsilon)
    decision = classify(model, args.x, args.method)
    print(decision.psi_label)
    columns = ["psi1", "psi2", "epsilon", "x", "method", "decision", "tie"]
    rows = [[args.psi1, args.psi2, args.epsilon, args.x, args.method,
             decision.psi_label, decision.tie]]
    if args.risks:
        report = classifier_risks(model, args.method)
        columns += ["error_psi1", "error_psi2", "unweighted_sum", "prior_weighted_sum"]
        rows[0] += [float(report.per_class_error[0]), float(report.per_class_error[1]),
                    report.unweighted_sum, report.prior_weighted_sum]
    return write_report(outdir / "classify", columns, rows)


def _run_predict(args, outdir: Path) -> list[Path]:
    from .closed_form import (
        BetaBernoulliPredictor, GaussianRegression, gaussian_likelihood_ratio, predict_class,
        regression_estimates, regression_predict,
    )

    if args.kind == "class":
        if args.f_ratio is not None:
            f_ratio = args.f_ratio
        elif args.mu is not None and args.x_next is not None:
            f_ratio = gaussian_likelihood_ratio(args.mu, args.x_next)
        else:
            raise InvariantViolation("class prediction needs --f-ratio or --mu with --x-next")
        model = BetaBernoulliPredictor(
            alpha=args.alpha, beta=args.beta, n=args.n, cbar=args.cbar, f_ratio=f_ratio
        )
        decision = predict_class(model, args.method)
        print(decision)
        columns = ["alpha", "beta", "n", "cbar", "f_ratio", "method", "decision"]
        rows = [[args.alpha, args.beta, args.n, args.cbar, f_ratio, args.method, decision]]
        return write_report(outdir / "predict", columns, rows)
    if not (args.design and args.y and args.w):
        raise InvariantViolation("regression prediction needs --design, --y and --w")
    model = GaussianRegression(
        X=_matrix(args.design), y=_float_list(args.y), w=_float_list(args.w),
        sigma2=args.sigma2, tau2=args.tau2,
    )
    est = regression_estimates(model)
    pred = regression_predict(model)
    print(f"psi_map={est.psi_map:.6g} psi_lrse={est.psi_lrse:.6g} "
          f"z_map={pred.z_map:.6g} z_lrse={pred.z_lrse:.6g}")
    columns = ["sigma2", "tau2", "psi_map", "psi_lrse", "z_map", "z_lrse"]
    rows = [[args.sigma2, args.tau2, est.psi_map, est.psi_lrse, pred.z_map, pred.z_lrse]]
    return write_report(outdir / "predict", columns, rows)


def _run_risk_table(args, outdir: Path) -> list[Path]:
    from .simulate import risk_table

    rows_data = risk_table(
        reps=args.reps, seed=args.seed, mu=args.mu, n=args.n,
        alpha=args.alpha, betas=_float_list(args.betas), threads=args.threads,
    )
    if args.reps is None:
        columns = ["beta", "method", "exact_M0", "exact_M1", "exact_sum"]
        rows = [[r.beta, r.method, r.exact_m0, r.exact_m1, r.exact_m0 + r.exact_m1]
                for r in rows_data]
        for beta, method, m0, m1, total in rows:
            print(f"beta={beta:g} {method}: exact {m0:.3f}+{m1:.3f}={total:.3f}")
        return write_report(outdir / "risk_table", columns, rows)
    columns = ["beta", "method", "M0", "M1", "sum", "se", "exact_M0", "exact_M1", "z_M0", "z_M1"]
    rows = [[r.beta, r.method, r.m0, r.m1, r.risk_sum, r.se,
             r.exact_m0, r.exact_m1, r.z_m0, r.z_m1] for r in rows_data]
    for r in rows_data:
        print(f"beta={r.beta:g} {r.method}: {r.m0:.3f}+{r.m1:.3f}={r.risk_sum:.3f} (se {r.se:.4f}; "
              f"exact {r.exact_m0:.3f}+{r.exact_m1:.3f}, z {r.z_m0:+.2f} {r.z_m1:+.2f})")
    return write_report(outdir / "risk_table", columns, rows)


def _run_converge(args, outdir: Path) -> list[Path]:
    from .closed_form import NormalNormalTestbed
    from .discretize import refinement_experiments

    testbed = NormalNormalTestbed(tau=args.tau, sigma=args.sigma)
    cmodel = testbed.continuous_model()
    target = testbed.psi_lrse(args.x)
    lambdas = _float_list(args.lambdas)
    etas = _float_list(args.etas)
    columns = ["kind", "lambda", "eta", "estimate", "error", "within_lambda", "distance"]
    capped_rows, lrse_rows, region_rows = refinement_experiments(
        cmodel, args.x, args.gamma, lambdas, etas, target
    )
    rows = []
    for row in capped_rows:
        rows.append(["capped-bayes", row.lam, row.eta, row.estimate, row.error,
                     row.within_lambda, ""])
    for row in lrse_rows:
        rows.append(["grid-lrse", row.lam, "", row.estimate, row.error,
                     row.within_lambda, ""])
    for row in region_rows:
        rows.append(["region-rs", row.lam, "", "", "", "", row.rs_distance])
        for eta, dist in row.capped_distances:
            rows.append(["region-capped", row.lam, eta, "", "", "", dist])
    for r in rows:
        print(" ".join(format(v, ".6g") if isinstance(v, float) else str(v) for v in r if v != ""))
    return write_report(outdir / "converge", columns, rows)


def _run_validate(args, outdir: Path) -> list[Path]:
    model = load_model(args.model, strict=True)
    if model.is_table:  # refused as any query would refuse it
        sample_space_tables(model)
    print("ok")
    return write_report(outdir / "validate", ["model", "status"], [[args.model, "ok"]])


_RUNNERS = {
    "estimate": _run_estimate,
    "region": _run_region,
    "classify": _run_classify,
    "predict": _run_predict,
    "risk-table": _run_risk_table,
    "converge": _run_converge,
    "validate": _run_validate,
}


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    outdir = Path(args.output_dir)
    started = time.perf_counter()
    manifest = {
        "subcommand": args.subcommand,
        "config": {k: v for k, v in vars(args).items() if k != "subcommand"},
        "seed": args.seed,
        "version": __version__,
        "artifacts": [],
        "status": "running",
        "error": None,
        "wall_time_s": None,
    }
    code = 0
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        manifest["artifacts"] = [str(p) for p in _RUNNERS[args.subcommand](args, outdir)]
        manifest["status"] = "ok"
    except (RelBeliefError, OSError) as exc:
        invalid = isinstance(exc, (ModelSpecError, InvariantViolation))
        manifest.update(status="validation-error" if invalid else "error", error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        code = 2 if invalid else 1
    finally:
        manifest["wall_time_s"] = time.perf_counter() - started
        try:
            write_text(outdir / "manifest.json", json.dumps(manifest, indent=2, default=str) + "\n")
        except OSError as exc:
            print(f"error: manifest not written: {exc}", file=sys.stderr)
            code = code or 1  # a run that already failed keeps its own code
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
