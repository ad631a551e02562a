"""Benchmark harness for relbelief: one workload, one seed, one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: cli-cold, sample-space,
grid-refinement, risk-table-mc (see perfbench/README.md).  The program is
measured only from outside: as ``relbelief`` CLI processes, through
``relbelief.cli.run`` and through public names of ``relbelief``, always from
the checkout's ``src/``.

Set-up is timed several times in a run and reported as the median.  The
timed loop is closed, with one client and one process, and ends after whole
rounds once ``--seconds`` have passed and the workload's minimum number of
operations is done.  Every output is checked against an oracle outside the
timing.  Operation and set-up times are rescaled to a nominal machine speed
by a reference kernel run around each of them (``pin.py``); the raw wall
times are kept in the results file under perfbench/results/.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import compileall
import csv
import gc
import importlib.metadata
import json
import math
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import pin
import selftest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
PY = sys.executable
CPUS = pin.allowed_cpus()
perf = time.perf_counter

WORKLOADS = ("cli-cold", "sample-space", "grid-refinement", "risk-table-mc")
# The percentile behind op_tail_ms and the operations a run needs for it:
# at least ten operations lie beyond the percentile.
TAIL_PERCENTILE = 75
MIN_OPS = {"cli-cold": 45, "sample-space": 40, "grid-refinement": 40, "risk-table-mc": 40}
# The reference kernel each workload's times are rescaled by (see pin.py).
KERNEL = {"cli-cold": "gather", "sample-space": "numpy-loop", "grid-refinement": "numpy-loop",
          "risk-table-mc": "gather"}
SETUPS = 5  # set-up is timed this many times per run; the median is reported
WORKER_TIMEOUT_S = 170
LAYER_PROBE_OPS = 3


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class OperationFailed(RuntimeError):
    """A CLI process exited with a non-zero code."""


def child_env() -> dict:
    """Environment of every child: one BLAS/OpenMP thread, the checkout's
    ``src/`` first on the path, and no bytecode written anywhere (``main``
    compiles the checkout's own modules before anything is timed)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update({var: "1" for var in THREAD_VARS})
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    return env


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "platform": platform.platform(),
    }


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def scaled(times, scales) -> list[float]:
    return [t * s for t, s in zip(times, scales)]


def end_to_end(workload, result, rescale=True) -> dict:
    """The five end-to-end metrics; times are rescaled to the nominal reference speed."""
    if not rescale:
        result = {**result, "scales": [1.0] * len(result["durations"]),
                  "setup_scales": [1.0] * len(result["setup_s"])}
    ops = scaled(result["durations"], result["scales"])
    if not ops:
        raise HarnessError("no operation completed")
    return {
        "ops_per_s": (len(ops) / sum(ops), "ops/s"),
        "op_p50_ms": (median(ops) * 1e3, "ms"),
        "op_tail_ms": (percentile(ops, TAIL_PERCENTILE) * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (median(scaled(result["setup_s"], result["setup_scales"])), "s"),
    }


def overhead(result) -> dict:
    plain = median(scaled(result["durations"], result["scales"]))
    traced = median(scaled(result["traced_durations"], result["traced_scales"]))
    return {"trace.overhead_pct": (100.0 * (traced / plain - 1.0) if plain else 0.0, "%")}


# -- in-process workloads -------------------------------------------------------------


def expected_risks() -> dict:
    """Exact conditional risks of the risk-table-mc cells, from scipy.stats."""
    out = {}
    for beta in (1.0, 14.0, 32.0, 100.0):
        for method in ("map", "lrse"):
            out[f"{beta:g}/{method}"] = checks.exact_conditional_risks(1.0, beta, 1.0, 10, method)
    return out


def start_worker(cfg: dict) -> tuple[subprocess.Popen, float, float]:
    """Start a worker and wait for READY.

    Returns the worker, its set-up seconds and their scale factor; the
    worker runs the reference kernel once more right after READY.
    """
    kernel = KERNEL[cfg["workload"]]
    before = pin.pin_fastest(CPUS, kernel)
    start = perf()
    proc = subprocess.Popen([PY, str(HERE / "worker.py"), json.dumps(cfg)],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    line = proc.stdout.readline()
    ready = perf()
    ref = proc.stdout.readline().split()
    if line.strip() != "READY" or len(ref) != 2:
        proc.kill()
        proc.wait()
        raise HarnessError(f"{cfg['workload']} worker failed during set-up")
    return proc, ready - start, pin.scale(kernel, before, float(ref[1]))


def finish_worker(proc: subprocess.Popen) -> dict:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise HarnessError("worker timed out") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def worker_cfg(workload, seed, seconds, trace, work, mode, expected) -> dict:
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "work": str(work / workload), "mode": mode, "min_ops": MIN_OPS[workload],
            "ops": LAYER_PROBE_OPS, "expected": expected, "cpus": CPUS,
            "kernel": KERNEL[workload]}


def run_in_process(workload, seed, seconds, trace, work, expected) -> dict:
    setups = []
    for _ in range(SETUPS - 1):
        proc, took, factor = start_worker(
            worker_cfg(workload, seed, seconds, trace, work, "probe", expected))
        setups.append((took, factor))
        proc.communicate(timeout=WORKER_TIMEOUT_S)
    proc, took, factor = start_worker(worker_cfg(workload, seed, seconds, trace, work, "run", expected))
    setups.append((took, factor))
    result = finish_worker(proc)
    result["setup_s"], result["setup_scales"] = (list(v) for v in zip(*setups))
    return result


def layer_probe(workload, seed, work, expected) -> dict:
    """Per-layer metrics of another workload from a few traced operations."""
    proc, _, _ = start_worker(worker_cfg(workload, seed, 0, 1, work, "layers", expected))
    result = finish_worker(proc)
    if result["failed"] or not result["correct"]:
        raise HarnessError(f"{workload} layer probe failed: {result['errors']}")
    return result["layers"]


# -- cli-cold ---------------------------------------------------------------------------


IMPORTS = {"numpy": "import.numpy_ms", "relbelief": "import.relbelief_ms",
           "relbelief.simulate": "import.relbelief.simulate_ms",
           "scipy.special": "import.scipy.special_ms"}


def parse_importtime(stderr: str) -> dict:
    """Cumulative import milliseconds of the modules in IMPORTS."""
    out = {metric: 0.0 for metric in IMPORTS.values()}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        name = name.strip()
        if name in IMPORTS and cumulative.strip().isdigit():
            out[IMPORTS[name]] = int(cumulative) / 1e3
    return out


class CliCold:
    """Fresh ``relbelief`` processes running light subcommands on small models."""

    N_MODELS, N_THETA, N_PSI, N_X = 4, 12, 6, 8
    ETAS = "0.1,0.01,1e-9"  # the last cap lies below every prior weight

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.out = work / "cli"
        self.seed = seed

    def write_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.rng = rng
        self.models = []
        self.work.mkdir(parents=True, exist_ok=True)
        for m in range(self.N_MODELS):
            nt, npsi, nx = self.N_THETA, self.N_PSI, self.N_X
            prior = rng.dirichlet(np.ones(nt))
            lik = rng.dirichlet(np.ones(nx), size=nt)
            psi_map = np.concatenate([np.arange(npsi), rng.integers(0, npsi, nt - npsi)])
            rng.shuffle(psi_map)
            path = self.work / f"model{m}.json"
            path.write_text(json.dumps({
                "theta": [f"t{i}" for i in range(nt)],
                "prior": prior.tolist(),
                "likelihood": lik.tolist(),
                "x": [f"x{i}" for i in range(nx)],
                "psi": [f"p{j}" for j in range(npsi)],
                "psi_map": [f"p{j}" for j in psi_map],
            }))
            _, _, _, post, rb = checks.sample_space_tables(prior, lik, psi_map, npsi)
            self.models.append((str(path), post, rb))

    def round(self) -> list[tuple[list[str], object]]:
        """The nine operations of one round, each with its check."""
        rng = self.rng
        path, post, rb = self.models[int(rng.integers(self.N_MODELS))]
        x = int(rng.integers(self.N_X))
        gamma = float(rng.uniform(0.5, 0.9))
        model = ["--model", path, "--x", f"x{x}"]
        p1, p2 = (float(p) for p in sorted(rng.uniform(0.05, 0.95, 2)))
        eps, bit = float(rng.uniform(0.02, 0.5)), int(rng.integers(2))
        alpha, beta = float(rng.uniform(0.5, 3)), float(rng.uniform(1, 30))
        n = int(rng.integers(1, 20))
        cbar, mu, x_next = float(rng.integers(n + 1)) / n, float(rng.uniform(0.5, 2)), float(rng.normal())

        def label(stdout, criterion, what):
            checks.check_in_argmax(int(stdout.split()[0].lstrip("p")), criterion[:, x], what)

        def region(stdout, what):
            rows = self.report("region")
            checks.check_ratio_region([int(r["member_index"]) for r in rows], rb[:, x], post[:, x],
                                      gamma, what)

        def sweep(stdout, what):
            rows = self.report("region_sweep")
            for row in rows:
                members = [int(m.lstrip("p")) for m in row["members"].split("|")]
                if float(post[members, x].sum()) < gamma - checks.MASS_TOL:
                    raise checks.CheckFailed(f"{what}: eta={row['eta']} region mass below gamma")
            checks.check_ratio_region(members, rb[:, x], post[:, x], gamma, f"{what} smallest eta")

        def classify(stdout, what):
            rates = np.array([[1 - p1, p1], [1 - p2, p2]])  # P(x | class)
            decide = rates.argmax(axis=0)  # the LRSE compares the rates
            if stdout.split()[0] != ("psi1", "psi2")[decide[bit]]:
                raise checks.CheckFailed(f"{what}: printed {stdout.split()[0]}")
            (row,) = self.report("classify")
            for c in (0, 1):
                want = float(rates[c, decide != c].sum())
                checks.check_close(float(row[f"error_psi{c + 1}"]), want, 1e-12, f"{what} risk {c}")

        def predict(stdout, what):
            k = n * cbar
            stat = beta * (alpha + k) / (alpha * (beta + n - k))
            want = int(math.exp(mu * x_next - mu * mu / 2) * stat >= 1.0)
            if int(stdout.split()[0]) != want:
                raise checks.CheckFailed(f"{what}: printed {stdout.split()[0]}, expected {want}")

        def validate(stdout, what):
            if stdout.strip() != "ok":
                raise checks.CheckFailed(f"{what}: printed {stdout!r}")

        return [
            (["estimate", *model, "--estimator", "lrse"], lambda s, w: label(s, rb, w)),
            (["estimate", *model, "--estimator", "map"], lambda s, w: label(s, post, w)),
            (["estimate", *model, "--estimator", "bayes", "--loss", "prior-based"],
             lambda s, w: label(s, rb, w)),
            (["region", *model, "--family", "rs", "--gamma", repr(gamma)], region),
            (["region", *model, "--family", "lpl", "--gamma", repr(gamma), "--loss", "prior-based"],
             region),
            (["region", *model, "--family", "rs", "--gamma", repr(gamma), "--sweep", f"eta={self.ETAS}"],
             sweep),
            (["classify", "--psi1", repr(p1), "--psi2", repr(p2), "--epsilon", repr(eps),
              "--x", str(bit), "--method", "lrse", "--risks"], classify),
            (["predict", "--kind", "class", "--alpha", repr(alpha), "--beta", repr(beta),
              "--n", str(n), "--cbar", repr(cbar), "--mu", repr(mu), "--x-next", repr(x_next)],
             predict),
            (["validate", "--model", path], validate),
        ]

    def report(self, name: str) -> list[dict]:
        with open(self.out / f"{name}.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def argv(self, sub: list[str], importtime: bool = False) -> list[str]:
        flags = ["-X", "importtime"] if importtime else []
        return [PY, *flags, "-c", "from relbelief.cli import main; main()",
                "--output-dir", str(self.out), "--threads", "1", *sub]

    def spawn(self, sub, importtime=False):
        """One CLI process: (seconds, exit code, peak RSS MB, stdout, stderr)."""
        self.out.mkdir(parents=True, exist_ok=True)
        out_path, err_path = self.work / "stdout.txt", self.work / "stderr.txt"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = perf()
            proc = subprocess.Popen(self.argv(sub, importtime), stdout=out, stderr=err,
                                    env=child_env(), cwd=self.work)
            _, status, usage = os.wait4(proc.pid, 0)
            took = perf() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return took, proc.returncode, usage.ru_maxrss / 1024.0, out_path.read_text(), err_path.read_text()

    def check(self, sub, check, rc, stdout):
        if rc != 0:
            raise OperationFailed(f"{sub[0]} exited {rc}")
        status = json.loads((self.out / "manifest.json").read_text())["status"]
        if status != "ok":
            raise checks.CheckFailed(f"{sub[0]}: manifest status {status!r}")
        check(stdout, " ".join(a for a in sub if not a.endswith(".json")))

    def set_up(self) -> tuple[float, float]:
        """Seconds to write the inputs and run one warm-up process, and their scale."""
        before = pin.pin_fastest(CPUS, KERNEL["cli-cold"])
        start = perf()
        self.write_inputs()
        sub, check = self.round()[0]
        _, rc, _, stdout, _ = self.spawn(sub)
        self.check(sub, check, rc, stdout)
        took = perf() - start
        return took, pin.scale(KERNEL["cli-cold"], before, pin.reference(KERNEL["cli-cold"]))

    def run(self, seconds: float, trace: bool, min_ops: int) -> dict:
        setup_s, setup_scales = zip(*(self.set_up() for _ in range(SETUPS)))
        durations, traced_durations, imports = [], [], []
        scales, traced_scales = [], []
        peak = 0.0
        attempted = failed = wrong = 0
        errors = []
        start = perf()
        while True:
            for sub, check in self.round():
                traced = trace and attempted % 2 == 1
                gc.collect()
                before = pin.pin_fastest(CPUS, KERNEL["cli-cold"])
                took, rc, rss, stdout, stderr = self.spawn(sub, importtime=traced)
                factor = pin.scale(KERNEL["cli-cold"], before, pin.reference(KERNEL["cli-cold"]))
                attempted += 1
                try:
                    self.check(sub, check, rc, stdout)
                except (checks.CheckFailed, OperationFailed) as exc:
                    failed += 1
                    wrong += isinstance(exc, checks.CheckFailed)
                    errors.append(str(exc))
                    continue
                if traced:
                    traced_durations.append(took)
                    traced_scales.append(factor)
                    imports.append(parse_importtime(stderr))
                else:
                    durations.append(took)
                    scales.append(factor)
                    peak = max(peak, rss)
            if perf() - start >= seconds and attempted >= min_ops:
                break
        return {"durations": durations, "traced_durations": traced_durations,
                "scales": scales, "traced_scales": traced_scales,
                "attempted": attempted, "failed": failed, "correct": wrong == 0,
                "errors": errors[:20], "peak_rss_mb": peak, "setup_s": list(setup_s),
                "setup_scales": list(setup_scales), "imports": imports}

    def layer_metrics(self, imports: list[dict]) -> dict:
        out = {metric: (median([i[metric] for i in imports]), "ms") for metric in IMPORTS.values()}
        startup = []
        for _ in range(7):
            pin.pin_fastest(CPUS, KERNEL["cli-cold"])
            start = perf()
            subprocess.run([PY, "-c", "pass"], env=child_env(), check=True)
            startup.append(perf() - start)
        out["startup.interpreter_ms"] = (median(startup) * 1e3, "ms")
        inproc = self.work / "inproc"
        argvs = [["--output-dir", str(inproc), "--threads", "1", *sub] for sub, _ in self.round()]
        cfg = {"mode": "cli-layers", "work": str(self.work), "argvs": argvs, "rounds": 3,
               "models": [path for path, _, _ in self.models]}
        done = subprocess.run([PY, str(HERE / "worker.py"), json.dumps(cfg)], capture_output=True,
                              text=True, env=child_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S)
        if done.returncode != 0:
            raise HarnessError(f"in-process CLI layers failed: {done.stderr[-2000:]}")
        out.update({k: tuple(v) for k, v in json.loads(done.stdout.splitlines()[-1])["layers"].items()})
        return out

    def layer_probe(self) -> dict:
        """cli-cold layer metrics from one traced round, for other workloads' traced runs."""
        self.write_inputs()
        imports = []
        for sub, check in self.round():
            _, rc, _, stdout, stderr = self.spawn(sub, importtime=True)
            self.check(sub, check, rc, stdout)
            imports.append(parse_importtime(stderr))
        return self.layer_metrics(imports)


# -- entry point ------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    needs_exact = workload == "risk-table-mc" or trace
    expected = expected_risks() if needs_exact else None
    if workload == "cli-cold":
        cli = CliCold(seed, work / "cli-cold")
        result = cli.run(seconds, trace, MIN_OPS[workload])
        layers = cli.layer_metrics(result.pop("imports")) if trace else {}
    else:
        result = run_in_process(workload, seed, seconds, trace, work, expected)
        layers = result.pop("layers", {})
    if trace:
        for other in WORKLOADS:
            if other == workload:
                continue
            if other == "cli-cold":
                layers.update(CliCold(seed, work / "cli-cold").layer_probe())
            else:
                layers.update({k: tuple(v) for k, v in
                               layer_probe(other, seed, work, expected).items()})
        layers.update(overhead(result))
        metrics = layers
    else:
        metrics = end_to_end(workload, result)
        result["wall_metrics"] = end_to_end(workload, result, rescale=False)
    result["metrics"] = {name: {"value": float(v), "unit": u} for name, (v, u) in sorted(metrics.items())}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "relbelief" / "cli.py").is_file():
        print(f"perfbench: no relbelief sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    problems = selftest.failures()
    if problems:
        print(f"perfbench: the checks' negative controls failed: {problems}", file=sys.stderr)
        return 3
    # Compile bytecode before anything is timed, so that no set-up pays for it.
    for directory in (SRC, HERE):
        compileall.compile_dir(str(directory), quiet=2)

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except (HarnessError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=environment())
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n")
    for error in result["errors"]:
        print(f"perfbench: {error}", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
