"""Fast smoke test of the benchmark itself (not part of the package's test suite).

Usage: python3 perfbench/smoke.py

Checks BENCHMARK.json against the shape the benchmark runner expects, checks
that `layer_map.json` maps every per-layer metric to end-to-end metrics and
workloads that exist, then runs every workload in `--smoke` mode (two
operations, one pass, one sample per microbenchmark) with --trace 0 and 1 and
checks that every metric named in BENCHMARK.json is printed with its unit,
that the traced-run metrics are present, that the outputs were correct, and
that the result file records the environment. Also checks that one seed gives
the same operations and byte-identical input files twice, and that the runner
refuses, with no result, to run where there is no program. Takes about a
minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TRACED = ["cli.self_s", "density.self_s", "polyring.calls", "ff.calls",
          "numeric.endpoint_bits_max", "density.render_retries", "trace_overhead_frac", "failed_frac"]


def check_spec(spec, layer_map):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60 and isinstance(spec["run_seconds"], int)
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names), "bad or repeated name"
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in spec["end_to_end"])} in spec["end_to_end"]
    workloads = {w["name"] for w in spec["workloads"]}
    e2e = {m["name"] for m in spec["end_to_end"]} | {"failed_frac"}
    assert set(layer_map) == {m["name"] for m in spec["per_layer"]}, "layer_map.json is out of date"
    for name, entry in layer_map.items():
        for target in entry["moves"]:
            metric, _, workload = target.partition("@")
            assert metric in e2e and (not workload or workload in workloads), (name, target)
        assert set(entry["no_change_on"]) <= workloads, name


def run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec, workload, trace):
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines[:5]
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float)), m["name"]
        assert f"{m['name']} {got['value']!r} {m['unit']}" in lines, f"{m['name']} not printed"
    if trace:
        assert all(name in result["metrics"] for name in TRACED)
    path = os.path.join(HERE, "out", "results", f"{workload}-seed1-trace{trace}-smoke.json")
    with open(path) as fh:
        record = json.load(fh)
    env = record["environment"]
    assert {"git_sha", "python", "nproc", "seed"} <= set(env) and env["seed"] == 1
    assert record["detail"]["ops_per_pass"] >= 1


def check_inputs_repeat():
    """The same seed gives the same operations and byte-identical input files."""
    sys.path.insert(0, HERE)
    import workloads

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    dirs = [tempfile.mkdtemp(dir=os.path.join(HERE, "out")) for _ in range(2)]
    try:
        for workload in workloads.WORKLOADS:
            builds = [workloads.build(workload, 7, d) for d in dirs]
            argvs = [[[a.replace(d, "<dir>") for a in op.argv] for op in ops + probes]
                     for d, (ops, probes) in zip(dirs, builds)]
            assert argvs[0] == argvs[1], workload
        for name in sorted(os.listdir(dirs[0])):
            with open(os.path.join(dirs[0], name), "rb") as a, open(os.path.join(dirs[1], name), "rb") as b:
                assert a.read() == b.read(), name
    finally:
        for d in dirs:
            shutil.rmtree(d)


def check_refuses_without_program():
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(HERE, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("out"))
        done = run("search", 0, cwd=bare)
        assert done.returncode != 0 and "correct" not in done.stdout, done.stdout[-500:]
    finally:
        shutil.rmtree(bare)


def main():
    sys.set_int_max_str_digits(0)  # reference fractions exceed the default limit
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        check_spec(spec, json.load(fh))
    check_inputs_repeat()
    check_refuses_without_program()
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
            print(f"ok {w['name']} trace={trace}", flush=True)
    print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
