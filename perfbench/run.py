"""gpfq benchmark: cold CLI workloads, a boundary-traced run and per-layer microbenchmarks.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every operation is a fresh `python -m gpfq.cli ...` process, run one after
another (a closed loop with one client) by `launcher.py`, pinned to one CPU.
A fresh process per operation keeps the package's in-process caches (the r_n
table, `count_irreducibles`) from making repeats free, as they are for a user.

Times are host-speed normalised. A shared virtual machine's speed drifts by
up to a factor of two from minute to minute, for wall and CPU time alike.
Right before each measured process, `calibrate.py`, a fixed program, runs on
the same CPU. Each measured wall and CPU time is scaled by CALIBRATION_REF_S
over the median calibration time of the processes around it (see
`normalise`): the time at the host speed where the calibration takes
CALIBRATION_REF_S. The raw times are kept in the result file.

--trace 0 measures the end-to-end metrics: passes over the workload's
operation list are repeated until --seconds have passed, and at least three
times. Each operation's median over the passes is its typical latency:
`wall_s` and `cpu_s` sum them (a typical pass). `op_p50_s` and `op_tail_s`
are Harrell-Davis quantile estimates over the pooled latencies of all passes. `peak_rss_mb` is the median over passes of
the pass's largest process. `setup_s` is the median of
several cold `import gpfq.cli` plus parser builds.

--trace 1 measures the per-layer metrics: one untraced pass, one pass through
`traced_cli.py` (which also runs the operations known to crash), and the
microbenchmarks of `layers.py`.

Every operation's stdout is checked against an independent reference
(`reference.py`). Each metric is printed as `name value unit`; the last line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`. The
full record, with the environment and per-operation latencies, is written to
perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import reference  # noqa: E402
import workloads  # noqa: E402
from traced_cli import LAYERS  # noqa: E402

SETUP_SAMPLES = 9
MIN_PASSES = 3
OP_TIMEOUT_S = 60
TAIL_BEYOND = 10
SETUP_CODE = "import gpfq.cli; gpfq.cli.build_parser()"

#: The fixed program timed right before every measured process.
CALIBRATE = [sys.executable, "-S", os.path.join(HERE, "calibrate.py")]
#: Calibration time that defines the reference host speed, about its typical time.
CALIBRATION_REF_S = 0.04
#: Calibrations on each side of a process that make up its speed estimate.
CALIBRATION_HALF_WINDOW = 3


def normalise(records):
    """Set wall_s and cpu_s of records, in the order they ran, from their raw times.

    One 40 ms calibration is itself noisy, and a long operation runs through
    several of the host's speed changes, so each record is scaled by the
    median calibration of the 2 * CALIBRATION_HALF_WINDOW + 1 records
    centred on it.
    """
    calibrations = [r["calibration_s"] for r in records]
    k = CALIBRATION_HALF_WINDOW
    for i, r in enumerate(records):
        scale = CALIBRATION_REF_S / statistics.median(calibrations[max(i - k, 0):i + k + 1])
        r["wall_s"] = r["wall_raw_s"] * scale
        r["cpu_s"] = r["cpu_raw_s"] * scale
    return records


class SetupError(Exception):
    """The program cannot be run at all: no result is printed."""


# ---------------------------------------------------------------------------
# running one operation
# ---------------------------------------------------------------------------

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """The `launcher.py` helper that starts operations and reports their rusage.

    Operations are not spawned from this process because a child's ru_maxrss
    starts at its spawner's peak RSS; see launcher.py.
    """

    def __init__(self, env):
        self.env = env
        # -S (no site) keeps the launcher's own RSS, the floor of every ru_maxrss, low
        self.proc = subprocess.Popen([sys.executable, "-S", os.path.join(HERE, "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=ROOT, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def _run(self, cmd, workdir):
        out_path = os.path.join(workdir, "stdout")
        err_path = os.path.join(workdir, "stderr")
        request = {"argv": cmd, "stdout": out_path, "stderr": err_path, "timeout": OP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError("the launcher process exited")
        return json.loads(line), out_path, err_path

    def spawn(self, cmd, workdir):
        """Run the calibration, then cmd to completion: (exit code, stdout, stderr, timings).

        `timings` holds the raw wall_raw_s and cpu_raw_s (user + system), the
        calibration's calibration_s and rss_mb (ru_maxrss in MiB); `normalise`
        adds the scaled wall_s and cpu_s.
        """
        calibration, _, _ = self._run(CALIBRATE, workdir)
        if calibration["exit"] != 0:
            raise SetupError("the calibration process failed")
        reply, out_path, err_path = self._run(cmd, workdir)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        timings = {"wall_raw_s": reply["wall_s"], "cpu_raw_s": reply["cpu_s"],
                   "calibration_s": calibration["wall_s"], "rss_mb": reply["maxrss_kb"] / 1024}
        return reply["exit"], stdout, stderr, timings


def run_op(op, launcher, workdir, trace_path=None):
    if trace_path is None:
        cmd = [sys.executable, "-m", "gpfq.cli", *op.argv]
    else:
        cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_path, *op.argv]
    rc, stdout, stderr, timings = launcher.spawn(cmd, workdir)
    error = None
    if rc != 0:
        tail = stderr.strip().splitlines()[-1:] or [""]
        error = f"exit {rc}: {tail[0][:200]}"
    else:
        try:
            op.check(stdout)
        except reference.CheckFailed as exc:
            error = f"wrong output: {exc}"
        except Exception as exc:  # output the check cannot even parse
            error = f"unparseable output: {type(exc).__name__}: {exc}"
    return {"label": op.label, "exit": rc, **timings, "error": error}


def run_pass(ops, launcher, workdir, trace_dir=None):
    records, traces = [], []
    for i, op in enumerate(ops):
        trace_path = None if trace_dir is None else os.path.join(trace_dir, f"{i}.json")
        records.append(run_op(op, launcher, workdir, trace_path))
        if trace_path is not None and os.path.exists(trace_path):
            with open(trace_path) as fh:
                traces.append(json.load(fh))
    return records, traces


def measure_setup(launcher, workdir, samples):
    walls = []
    for _ in range(samples):
        rc, _, stderr, timings = launcher.spawn([sys.executable, "-c", SETUP_CODE], workdir)
        if rc != 0:
            raise SetupError(f"cannot import gpfq.cli: {stderr.strip()[-300:]}")
        walls.append(timings)
    return [r["wall_s"] for r in normalise(walls)]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def quantile(values, p, steps=16):
    """Harrell-Davis estimate of the p-quantile of `values`.

    A weighted mean of all order statistics, with Beta((n+1)p, (n+1)(1-p))
    weights (Harrell & Davis, Biometrika 69(3), 1982). A single order
    statistic, on a few dozen samples that a shared host makes vary by 10-20%
    each, jumps between the operations on either side of the quantile; the
    weighted mean moves smoothly. Each weight is the Beta density integrated
    over [i/n, (i+1)/n] by the midpoint rule with `steps` points.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [[(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
             for x in ((i + (j + 0.5) / steps) / n for j in range(steps))] for i in range(n)]
    top = max(max(row) for row in logs)
    weights = [sum(math.exp(v - top) for v in row) for row in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail_latency(values, basis):
    """(value, percentile): the highest percentile with TAIL_BEYOND of `basis` samples above it.

    The percentile is fixed by `basis`, the guaranteed sample count, so it
    does not move when a run happens to fit one pass more.
    """
    pct = 100.0 * max(basis - TAIL_BEYOND, 1) / basis
    return quantile(values, pct / 100.0), pct


def typical(passes, key):
    """Each operation's median of `key` over the passes.

    A burst of scheduling delay on a shared machine hits one operation in one
    pass; the per-operation median drops it, where a median of pass sums
    keeps every burst inside the chosen pass.
    """
    return [statistics.median(records[i][key] for records in passes) for i in range(len(passes[0]))]


def end_to_end(passes, setup_walls, min_passes):
    pooled = [r["wall_s"] for records in passes for r in records]
    tail, pct = tail_latency(pooled, min_passes * len(passes[0]))
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": sum(typical(passes, "wall_s")),
        "cpu_s": sum(typical(passes, "cpu_s")),
        "op_p50_s": quantile(pooled, 0.5),
        "op_tail_s": tail,
        "peak_rss_mb": statistics.median(max(r["rss_mb"] for r in records) for records in passes),
    }
    detail = {"op_tail_percentile": pct, "op_samples": len(pooled),
              "passes": len(passes), "ops_per_pass": len(passes[0]),
              "setup_samples": len(setup_walls)}
    return metrics, detail


def per_layer(untraced, traced, traced_ops, traces, micro):
    metrics = dict(micro)
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(t["self_s"][layer] for t in traces)
        metrics[f"{layer}.calls"] = sum(t["calls"][layer] for t in traces)
    metrics["ff.calls"] = sum(t["ff_calls"] for t in traces)
    metrics["numeric.endpoint_bits_max"] = max(t["endpoint_bits_max"] for t in traces)
    metrics["density.render_retries"] = sum(
        t["raised"].get("density>numeric:NeedsMorePrecision", 0) for t in traces)
    base = sum(r["wall_s"] for r in untraced)
    metrics["trace_overhead_frac"] = sum(r["wall_s"] for r in traced[:traced_ops]) / base - 1
    metrics["failed_frac"] = sum(r["error"] is not None for r in traced) / len(traced)
    return metrics


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def _source_digest():
    """SHA-256 over the program's source files, which identifies it without git."""
    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(args):
    sha = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    return {
        "git_sha": sha,
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client, one cold process per operation",
    }


def measure_timed(args, ops, launcher, workdir):
    setup_walls = measure_setup(launcher, workdir, 3 if args.smoke else SETUP_SAMPLES)
    min_passes = 1 if args.smoke else MIN_PASSES
    passes = []
    start = perf_counter()
    while len(passes) < min_passes or (perf_counter() - start < args.seconds and not args.smoke):
        passes.append(run_pass(ops, launcher, workdir)[0])
    normalise([r for records in passes for r in records])
    metrics, detail = end_to_end(passes, setup_walls, min_passes)
    detail["pass_wall_s"] = [sum(r["wall_s"] for r in records) for records in passes]
    detail["pass_wall_raw_s"] = [sum(r["wall_raw_s"] for r in records) for records in passes]
    detail["calibration_s"] = statistics.median(r["calibration_s"] for records in passes for r in records)
    return metrics, detail, [r for records in passes for r in records]


def measure_traced(args, ops, probes, launcher, workdir):
    measure_setup(launcher, workdir, 1)
    untraced = normalise(run_pass(ops, launcher, workdir)[0])
    trace_dir = tempfile.mkdtemp(dir=workdir)
    traced, traces = run_pass(ops + probes, launcher, workdir, trace_dir)
    normalise(traced)
    cmd = [sys.executable, os.path.join(HERE, "layers.py"), "--seed", str(args.seed)]
    done = subprocess.run(cmd + (["--quick"] if args.smoke else []), capture_output=True,
                          text=True, env=launcher.env, cwd=ROOT, timeout=OP_TIMEOUT_S)
    if done.returncode != 0:
        raise SetupError(f"layer microbenchmarks failed: {done.stderr.strip()[-300:]}")
    micro = json.loads(done.stdout.strip().splitlines()[-1])
    metrics = per_layer(untraced, traced, len(ops), traces, micro)
    # A known crash counts in failed_frac only; once it exits 0 its output is checked like any other.
    crashed = [r for r in traced[len(ops):] if r["exit"] != 0]
    records = untraced + traced[:len(ops)] + [r for r in traced[len(ops):] if r["exit"] == 0]
    detail = {"ops_per_pass": len(ops), "known_crash_ops": len(probes),
              "known_crash_failures": [f"{r['label']}: {r['error']}" for r in crashed],
              "traced_ops": len(traces)}
    return metrics, detail, records


def measure(args, workdir):
    ops, probes = workloads.build(args.workload, args.seed, workdir)
    if args.smoke:
        ops, probes = ops[:2], probes[:1]
    with Launcher(_child_env()) as launcher:
        if args.trace == 0:
            return measure_timed(args, ops, launcher, workdir)
        return measure_traced(args, ops, probes, launcher, workdir)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="two operations, one pass, one sample per microbenchmark")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if not os.path.isfile(os.path.join(SRC, "gpfq", "cli.py")):
        print(f"run.py: no program at {os.path.join('src', 'gpfq')}; nothing to measure", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # reference fractions exceed the default limit

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    try:
        metrics, detail, records = measure(args, workdir)
    except SetupError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"run.py: metrics not measured: {missing}", file=sys.stderr)
        return 1
    failures = [r for r in records if r["error"]]
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"environment": environment(args), "detail": detail, **result,
              "failures": [f"{r['label']}: {r['error']}" for r in failures],
              "operations": records}
    suffix = "-smoke" if args.smoke else ""
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for line in record["failures"]:
        print(f"FAILED {line}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
