"""Worker process for the in-process workloads.

``python perfbench/worker.py '<json config>'`` imports relbelief from the
checkout's ``src/``, builds its inputs from the seed, runs one warm-up
operation and prints ``READY``.  In ``probe`` mode it stops there, so the
harness can time set-up several times.  In ``run`` mode it then times
operations in a closed loop until both ``seconds`` have passed and
``min_ops`` operations are done, checking every output outside the timing.
In ``layers`` mode it times ``ops`` traced operations plus the layer
micro-measurements.  The last line of standard output is one JSON object.

Each timed operation is bracketed by the workload's reference kernel
(``pin.py``) so that the harness can rescale it to a nominal machine speed.
With tracing on, odd operations run with spans and counting wrappers and
even operations without, so the run measures its own overhead.  Spans are
kept in memory and returned when the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checks
import pin

perf = time.perf_counter


class Untraced:
    """The tracing interface with nothing behind it."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def span(self, name):
        return contextlib.nullcontext()


class Tracer:
    """Spans ``(op, name, start, end)`` and counters, kept in memory."""

    enabled = True

    def __init__(self):
        self.op = -1
        self.spans: list[tuple[int, str, float, float]] = []
        self.counts: dict[tuple[int, str], float] = {}

    def call(self, name, fn, *args):
        start = perf()
        out = fn(*args)
        self.spans.append((self.op, name, start, perf()))
        return out

    @contextlib.contextmanager
    def span(self, name):
        start = perf()
        try:
            yield
        finally:
            self.spans.append((self.op, name, start, perf()))

    def count(self, name, n=1):
        key = (self.op, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def durations(self, name) -> list[float]:
        return [end - start for _, n, start, end in self.spans if n == name]

    def per_op(self, name) -> list[float]:
        """Total span time of ``name`` in each traced operation."""
        ops: dict[int, float] = {}
        for op, n, start, end in self.spans:
            if n == name:
                ops[op] = ops.get(op, 0.0) + end - start
        return list(ops.values())

    def counts_per_op(self, name, traced_ops) -> list[float]:
        return [self.counts.get((op, name), 0) for op in traced_ops]


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def cli_run(argv) -> int:
    """``relbelief.cli.run``, imported on first use so that only the
    workloads that run the CLI import it."""
    from relbelief.cli import run

    return run(argv)


def read_manifest_ok(outdir: Path, rc: int, what: str) -> None:
    if rc != 0:
        raise RuntimeError(f"{what} exited {rc}")
    status = json.loads((outdir / "manifest.json").read_text())["status"]
    if status != "ok":
        raise checks.CheckFailed(f"{what}: manifest status {status!r}")


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- sample-space -------------------------------------------------------------------


class SampleSpace:
    """Full audit of one finite model of 400 theta, 50 psi and 100 x."""

    N_THETA, N_PSI, N_X = 400, 50, 100

    def __init__(self, cfg):
        import relbelief as rb

        self.rb = rb
        self.rng = np.random.default_rng([cfg["seed"], 2])
        self.losses = (rb.LossSpec.prior_based(), rb.LossSpec.zero_one())

    def inputs(self):
        rng, nt, npsi, nx = self.rng, self.N_THETA, self.N_PSI, self.N_X
        prior = rng.dirichlet(np.ones(nt))
        lik = rng.dirichlet(np.ones(nx), size=nt)
        psi_map = np.concatenate([np.arange(npsi), rng.integers(0, npsi, size=nt - npsi)])
        rng.shuffle(psi_map)
        gamma = float(rng.uniform(0.5, 0.9))
        model = self.rb.FiniteModel(
            theta_labels=tuple(f"t{i}" for i in range(nt)),
            prior=prior,
            likelihood=lik,
            psi_map=psi_map,
            psi_labels=tuple(f"p{j}" for j in range(npsi)),
        )
        return model, gamma

    def op(self, inp, t):
        rb = self.rb
        model, gamma = inp
        pb, zo = self.losses
        points = []
        with t.span("sample_space.pointwise"):
            for x in range(model.n_x):
                tab = t.call("model.belief_tables", rb.belief_tables, model, x)
                points.append((
                    t.call("estimators.lrse", rb.lrse, tab),
                    t.call("estimators.map_estimate", rb.map_estimate, tab),
                    t.call("estimators.bayes_rule", rb.bayes_rule, pb, tab),
                    t.call("regions.rs_region", rb.rs_region, tab, gamma),
                    t.call("regions.lpl_region", rb.lpl_region, pb, tab, gamma),
                ))
        with t.span("sample_space.sweep"):
            lrse_rule = t.call("estimators.lrse_rule", rb.lrse_rule, model)
            map_rule = t.call("estimators.map_rule", rb.map_rule, model)
            risk_pb = t.call("losses.prior_risk.prior-based", rb.prior_risk, pb, lrse_rule, model)
            risk_zo = t.call("losses.prior_risk.zero-one", rb.prior_risk, zo, map_rule, model)
            gap = t.call("estimators.unbiasedness_gap", rb.unbiasedness_gap, pb, lrse_rule, model)
            uniform = t.call(
                "estimators.uniform_unbiasedness_check",
                rb.uniform_unbiasedness_check, lrse_rule, model,
            )
        return points, lrse_rule, map_rule, risk_pb, risk_zo, gap, uniform

    def check(self, inp, out):
        model, gamma = inp
        points, lrse_rule, map_rule, risk_pb, risk_zo, gap, uniform = out
        marg_prior, joint, evidence, post, rb = checks.sample_space_tables(
            model.prior, model.likelihood, model.psi_map, model.n_psi
        )
        for x, (lr, mp, bayes, rs, lpl) in enumerate(points):
            checks.check_in_argmax(lr.psi_index, rb[:, x], f"lrse at x={x}")
            checks.check_in_argmax(mp.psi_index, post[:, x], f"map_estimate at x={x}")
            if bayes.psi_index not in lr.argmax_set:
                raise checks.CheckFailed(f"prior-based bayes_rule at x={x} is outside the LRSE argmax set")
            checks.check_in_argmax(bayes.psi_index, rb[:, x], f"bayes_rule at x={x}")
            checks.check_ratio_region(rs.members, rb[:, x], post[:, x], gamma, f"rs_region at x={x}")
            if lpl.members != rs.members:
                raise checks.CheckFailed(f"lpl_region differs from rs_region at x={x}")
        checks.check_rule(lrse_rule, rb, "lrse_rule")
        checks.check_rule(map_rule, post, "map_rule")
        for report, rule, kind in ((risk_pb, lrse_rule, "prior-based"), (risk_zo, map_rule, "zero-one")):
            want = checks.dense_prior_risk(joint, model.psi_map, marg_prior, rule, kind)
            checks.check_close(report.prior_risk, want, 1e-10, f"{kind} prior_risk")
        if gap < -1e-12:
            raise checks.CheckFailed(f"LRSE unbiasedness gap {gap!r} is negative")
        want = checks.unbiasedness_gap_oracle(evidence, post, marg_prior, lrse_rule)
        checks.check_close(gap, want, 1e-10, "unbiasedness_gap")
        if not np.all(uniform):
            raise checks.CheckFailed("uniform_unbiasedness_check failed for the LRSE rule")

    def layer_metrics(self, tracer, traced_ops):
        ms, us = 1e3, 1e6
        prior_based = tracer.durations("losses.prior_risk.prior-based")
        out = {
            "model.belief_tables_us": (median(tracer.durations("model.belief_tables")) * us, "us"),
            "estimators.bayes_rule_us": (median(tracer.durations("estimators.bayes_rule")) * us, "us"),
            "regions.rs_region_us": (median(tracer.durations("regions.rs_region")) * us, "us"),
            "regions.lpl_region_us": (median(tracer.durations("regions.lpl_region")) * us, "us"),
            "sample_space.pointwise_ms": (median(tracer.per_op("sample_space.pointwise")) * ms, "ms"),
            "sample_space.sweep_ms": (median(tracer.per_op("sample_space.sweep")) * ms, "ms"),
            "losses.prior_risk.cells_per_s": (
                self.N_THETA * self.N_X / median(prior_based) if prior_based else 0.0, "1/s"),
        }
        for name in ("estimators.lrse_rule", "estimators.map_rule", "estimators.unbiasedness_gap",
                     "estimators.uniform_unbiasedness_check", "losses.prior_risk.prior-based",
                     "losses.prior_risk.zero-one"):
            out[f"{name}_ms"] = (median(tracer.durations(name)) * ms, "ms")
        return out


# -- grid-refinement ------------------------------------------------------------------


class GridRefinement:
    """``converge`` in-process on the normal-normal testbed, lambdas 0.2,0.1,0.05."""

    LAMBDAS = (0.2, 0.1, 0.05)
    TAU = SIGMA = 1.0

    def __init__(self, cfg):
        import relbelief as rb
        from relbelief.closed_form import NormalNormalTestbed

        self.rb = rb
        self.testbed_cls = NormalNormalTestbed
        self.rng = np.random.default_rng([cfg["seed"], 3])
        self.out = Path(cfg["work"]) / "converge"

    def inputs(self):
        return float(self.rng.uniform(-1.5, 1.5)), float(self.rng.uniform(0.6, 0.95))

    def argv(self, x, gamma):
        return ["--output-dir", str(self.out), "--threads", "1", "converge",
                "--tau", repr(self.TAU), "--sigma", repr(self.SIGMA), "--x", repr(x),
                "--lambdas", ",".join(map(repr, self.LAMBDAS)), "--gamma", repr(gamma)]

    def op(self, inp, t):
        if not t.enabled:
            return cli_run(self.argv(*inp))
        with self.counting_wrappers(t):
            return cli_run(self.argv(*inp))

    @contextlib.contextmanager
    def counting_wrappers(self, t):
        """Count ``build_grid`` calls and bins, and density evaluations."""
        import relbelief.discretize as discretize

        build_grid = discretize.build_grid
        continuous_model = self.testbed_cls.continuous_model

        def traced_build_grid(*args):
            out = t.call("discretize.build_grid", build_grid, *args)
            t.count("discretize.build_grid.calls")
            t.count("discretize.build_grid.bins", out[1].n_bins)
            return out

        evals = [0, 0]  # calls, points

        def counted(fn):
            def wrapper(theta, *rest):
                evals[0] += 1
                evals[1] += np.size(theta)
                return fn(theta, *rest)
            return wrapper

        def traced_continuous_model(testbed):
            cm = continuous_model(testbed)
            return dataclasses.replace(
                cm, prior_density=counted(cm.prior_density), likelihood=counted(cm.likelihood)
            )

        discretize.build_grid = traced_build_grid
        self.testbed_cls.continuous_model = traced_continuous_model
        try:
            yield
        finally:
            discretize.build_grid = build_grid
            self.testbed_cls.continuous_model = continuous_model
            t.count("quadrature.density_calls", evals[0])
            t.count("quadrature.density_evals", evals[1])

    def check(self, inp, rc):
        x, gamma = inp
        read_manifest_ok(self.out, rc, "converge")
        rows = read_csv(self.out / "converge.csv")
        finest = min(float(r["lambda"]) for r in rows)
        for kind in ("capped-bayes", "grid-lrse"):
            (row,) = [r for r in rows if r["kind"] == kind and float(r["lambda"]) == finest]
            if abs(float(row["estimate"]) - x) > finest:
                raise checks.CheckFailed(
                    f"{kind} estimate {row['estimate']} is more than lambda={finest:g} from x={x!r}"
                )
        # The finest grid itself, against the normal CDF and the analytic region.
        cmodel = self.testbed_cls(tau=self.TAU, sigma=self.SIGMA).continuous_model()
        tables, grid = self.rb.grid_tables(cmodel, x, min(self.LAMBDAS))
        checks.check_bin_masses(grid.edges, grid.bin_prior, tables.marg_post,
                                x, self.TAU, self.SIGMA, "finest grid")
        region = self.rb.rs_region(tables, gamma)
        checks.check_grid_region(region.members, grid.edges, x, self.TAU, self.SIGMA, gamma,
                                 "finest-grid rs_region")

    def layer_metrics(self, tracer, traced_ops):
        from relbelief.discretize import (
            build_grid, capped_rule_refinement, grid_lrse_refinement, region_refinement,
        )

        cmodel = self.testbed_cls(tau=self.TAU, sigma=self.SIGMA).continuous_model()
        x, gamma = 1.0, 0.9

        def best_of(fn, *args, reps=3):
            times = []
            for _ in range(reps):
                gc.collect()
                start = perf()
                fn(*args)
                times.append(perf() - start)
            return median(times) * 1e3

        bins = sum(tracer.counts_per_op("discretize.build_grid.bins", traced_ops))
        busy = sum(tracer.durations("discretize.build_grid"))
        return {
            "discretize.build_grid.640bins_ms": (best_of(build_grid, cmodel, x, 16.0 / 640), "ms"),
            "discretize.build_grid.2560bins_ms": (best_of(build_grid, cmodel, x, 16.0 / 2560), "ms"),
            "discretize.build_grid.bins_per_s": (bins / busy if busy else 0.0, "1/s"),
            "discretize.build_grid.calls_per_op": (
                median(tracer.counts_per_op("discretize.build_grid.calls", traced_ops)), "count"),
            "quadrature.density_evals_per_op": (
                median(tracer.counts_per_op("quadrature.density_evals", traced_ops)), "count"),
            "quadrature.density_calls_per_op": (
                median(tracer.counts_per_op("quadrature.density_calls", traced_ops)), "count"),
            "discretize.capped_rule_refinement_ms": (
                best_of(capped_rule_refinement, cmodel, x, self.LAMBDAS, x), "ms"),
            "discretize.grid_lrse_refinement_ms": (
                best_of(grid_lrse_refinement, cmodel, x, self.LAMBDAS, x), "ms"),
            "discretize.region_refinement_ms": (
                best_of(region_refinement, cmodel, x, gamma, self.LAMBDAS, (0.01, 0.001)), "ms"),
        }


# -- risk-table-mc --------------------------------------------------------------------


class RiskTableMC:
    """``risk-table --reps 65536`` in-process, betas 1, 14, 32 and 100."""

    REPS = 65536
    BETAS = (1.0, 14.0, 32.0, 100.0)

    def __init__(self, cfg):
        import relbelief.simulate as simulate

        self.simulate = simulate
        self.rng = np.random.default_rng([cfg["seed"], 4])
        self.out = Path(cfg["work"]) / "risk"
        self.expected = cfg["expected"]

    def inputs(self):
        return int(self.rng.integers(0, 2**31))

    def argv(self, seed, reps, threads, betas):
        return ["--output-dir", str(self.out), "--seed", str(seed), "--threads", str(threads),
                "risk-table", "--reps", str(reps), "--betas", ",".join(f"{b:g}" for b in betas)]

    def op(self, seed, t):
        argv = self.argv(seed, self.REPS, 1, self.BETAS)
        if not t.enabled:
            return cli_run(argv)
        conditional_risk_mc = self.simulate.conditional_risk_mc

        def traced(cfg):
            out = t.call(f"simulate.conditional_risk_mc.beta{cfg.beta:g}", conditional_risk_mc, cfg)
            t.count("simulate.rows", 2 * cfg.reps)
            return out

        self.simulate.conditional_risk_mc = traced
        try:
            return cli_run(argv)
        finally:
            self.simulate.conditional_risk_mc = conditional_risk_mc

    def check(self, seed, rc):
        read_manifest_ok(self.out, rc, "risk-table")
        rows = read_csv(self.out / "risk_table.csv")
        if len(rows) != 2 * len(self.BETAS):
            raise checks.CheckFailed(f"risk-table printed {len(rows)} rows")
        for row in rows:
            key = f"{float(row['beta']):g}/{row['method']}"
            for cell, exact in zip(("M0", "M1"), self.expected[key]):
                checks.check_risk_cell(float(row[cell]), exact, self.REPS, f"{key} {cell}")

    def after_loop(self):
        """Untimed: ``--threads 2`` must give the same counts as ``--threads 1``."""
        tables = []
        for threads in (1, 2):
            rc = cli_run(self.argv(12345, 3 * self.REPS, threads, (14.0,)))
            read_manifest_ok(self.out, rc, f"risk-table --threads {threads}")
            tables.append([(r["M0"], r["M1"]) for r in read_csv(self.out / "risk_table.csv")])
        if tables[0] != tables[1]:
            raise checks.CheckFailed(f"--threads 2 gave {tables[1]}, --threads 1 gave {tables[0]}")

    def layer_metrics(self, tracer, traced_ops):
        out = {}
        busy = 0.0
        for beta in self.BETAS:
            times = tracer.durations(f"simulate.conditional_risk_mc.beta{beta:g}")
            busy += sum(times)
            out[f"simulate.conditional_risk_mc.beta{beta:g}_ms"] = (median(times) * 1e3, "ms")
        rows = sum(tracer.counts_per_op("simulate.rows", traced_ops))
        out["simulate.rows_per_s"] = (rows / busy if busy else 0.0, "1/s")
        return out


# -- in-process CLI mix, for the cli-cold layer metrics ------------------------------


def cli_layers(cfg) -> dict:
    """``cli.run``, ``load_model`` and ``write_report`` on the cli-cold inputs."""
    import relbelief as rb
    from relbelief.reporting import write_report

    run_ms, load_ms, report_ms = [], [], []
    for _ in range(cfg["rounds"]):
        for argv in cfg["argvs"]:
            gc.collect()
            start = perf()
            rc = cli_run(argv)
            run_ms.append((perf() - start) * 1e3)
            if rc != 0:
                raise checks.CheckFailed(f"in-process cli.run {argv} exited {rc}")
        for path in cfg["models"]:
            start = perf()
            rb.load_model(path)
            load_ms.append((perf() - start) * 1e3)
        base = Path(cfg["work"]) / "layer_report"
        columns = ["estimator", "loss", "x", "psi_index", "psi_label",
                   "criterion_value", "tie", "argmax_set"]
        start = perf()
        write_report(base, columns, [["lrse", "", "x1", 3, "p3", 1.25, False, "3"]])
        report_ms.append((perf() - start) * 1e3)
    return {
        "cli.run_ms": (median(run_ms), "ms"),
        "modelfile.load_model_ms": (median(load_ms), "ms"),
        "reporting.write_report_ms": (median(report_ms), "ms"),
    }


# -- the timed loop --------------------------------------------------------------------

WORKLOADS = {
    "sample-space": SampleSpace,
    "grid-refinement": GridRefinement,
    "risk-table-mc": RiskTableMC,
}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    proto = sys.stdout
    sys.stdout = open(os.devnull, "w")  # the program's own printing
    Path(cfg["work"]).mkdir(parents=True, exist_ok=True)

    if cfg["mode"] == "cli-layers":
        print(json.dumps({"layers": cli_layers(cfg)}), file=proto, flush=True)
        return 0

    wl = WORKLOADS[cfg["workload"]](cfg)
    untraced, tracer = Untraced(), Tracer()
    warm = wl.inputs()
    wl.check(warm, wl.op(warm, untraced))
    print("READY", file=proto, flush=True)
    print(f"REF {pin.reference(cfg['kernel'])!r}", file=proto, flush=True)
    if cfg["mode"] == "probe":
        return 0

    durations = {False: [], True: []}
    scales = {False: [], True: []}
    traced_ops = []
    attempted = failed = wrong = 0
    errors = []
    start = perf()
    while True:
        traced = bool(cfg["trace"]) and (cfg["mode"] == "layers" or attempted % 2 == 1)
        inp = wl.inputs()
        t = tracer if traced else untraced
        tracer.op = attempted
        gc.collect()
        before = pin.pin_fastest(cfg["cpus"], cfg["kernel"])
        try:
            op_start = perf()
            out = wl.op(inp, t)
            elapsed = perf() - op_start
            after = pin.reference(cfg["kernel"])
            wl.check(inp, out)
            durations[traced].append(elapsed)
            scales[traced].append(pin.scale(cfg["kernel"], before, after))
            if traced:
                traced_ops.append(attempted)
        except checks.CheckFailed as exc:
            failed += 1
            wrong += 1
            errors.append(str(exc))
        except Exception as exc:  # an operation that raises counts as failed
            failed += 1
            errors.append(f"{type(exc).__name__}: {exc}")
        attempted += 1
        if cfg["mode"] == "layers":
            if attempted >= cfg["ops"]:
                break
        elif perf() - start >= cfg["seconds"] and attempted >= cfg["min_ops"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    post_ok = True
    pin.unpin(cfg["cpus"])
    if hasattr(wl, "after_loop"):
        try:
            wl.after_loop()
        except Exception as exc:  # a failed or wrong untimed check
            post_ok = False
            errors.append(str(exc))

    result = {
        "durations": durations[False],
        "traced_durations": durations[True],
        "scales": scales[False],
        "traced_scales": scales[True],
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0 and post_ok,
        "errors": errors[:20],
        "peak_rss_mb": peak_rss_mb,
    }
    if cfg["trace"]:
        result["layers"] = wl.layer_metrics(tracer, traced_ops)
        t0 = start
        result["spans"] = [(op, name, round((a - t0) * 1e6), round((b - t0) * 1e6))
                           for op, name, a, b in tracer.spans]
    print(json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
