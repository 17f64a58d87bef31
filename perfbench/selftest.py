"""Quick self-test of the benchmark, at a tiny size of every workload.

    python3 perfbench/selftest.py

Run it from the root of a checkout; it takes well under a minute.  It checks:

- seed 0 of `grid` is exactly the library's `certification_grid()`;
- every end-to-end metric (`--trace 0`) and every per-layer metric
  (`--trace 1`) is printed by name with its unit, on its own line and in the
  final JSON object;
- a run against goldens recorded from a clean run passes, and a
  deliberately corrupted golden (one output hash, one exact optimum) makes
  fail_frac > 0;
- in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

It writes only under perfbench/results/selftest/.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "results", "selftest")
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


class SelfTestFailure(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise SelfTestFailure(message)


def _bench(workload, trace, goldens=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", "0",
           "--trace", str(trace), "--size", "tiny"]
    if goldens:
        cmd += ["--goldens", goldens]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)


def _result(proc):
    _require(proc.returncode == 0, f"benchmark exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def check_grid_seed0():
    from twopoint_auctions.oracle import certification_grid

    keys = [it["key"] for it in workloads.make_items("grid", 0, "full")]
    lib = [" ".join(["certify", "--n", str(s.n), "--p", str(s.p), "--a", str(s.a),
                     "--b", str(s.b), "--format", "json"]) for s in certification_grid()]
    _require(keys == lib, "grid seed 0 differs from certification_grid()")


def check_metric_names():
    for workload in workloads.WORKLOADS:
        for trace, expected in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            lines, res = _result(_bench(workload, trace))
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            _require(got == dict(expected),
                     f"{workload} trace {trace}: metrics {sorted(got)} != {sorted(dict(expected))}")
            for name, unit in expected:
                _require(any(line.startswith(f"{name} ") and line.split()[2] == unit
                             for line in lines),
                         f"{workload} trace {trace}: no '{name} <value> {unit}' line")
            _require(res["correct"] and res["failed"] == 0,
                     f"{workload} trace {trace} failed: {lines[-2:]}")


def _latest_hashes(workload):
    records = sorted(glob.glob(os.path.join(run.RESULTS, f"{workload}-tiny-s0-t0-*.json")))
    with open(records[-1]) as fh:
        return json.load(fh)["hashes"]


def _fail_frac(lines):
    line = next(x for x in lines if x.startswith("fail_frac "))
    return float(line.split()[1])


def check_goldens():
    with open(os.path.join(HERE, "goldens.json")) as fh:
        base = json.load(fh)
    os.makedirs(SCRATCH, exist_ok=True)
    for workload in workloads.WORKLOADS:
        _result(_bench(workload, 0))
        goldens = dict(base, stdout_sha256=_latest_hashes(workload))
        path = os.path.join(SCRATCH, f"goldens-{workload}.json")
        with open(path, "w") as fh:
            json.dump(goldens, fh)
        lines, res = _result(_bench(workload, 0, path))
        _require(res["failed"] == 0 and _fail_frac(lines) == 0,
                 f"{workload}: clean goldens give failures")

        corrupt = json.loads(json.dumps(goldens))
        key = next(iter(corrupt["stdout_sha256"]))
        digest = corrupt["stdout_sha256"][key]
        corrupt["stdout_sha256"][key] = ("0" if digest[0] != "0" else "1") + digest[1:]
        with open(path, "w") as fh:
            json.dump(corrupt, fh)
        lines, res = _result(_bench(workload, 0, path))
        _require(res["failed"] > 0 and _fail_frac(lines) > 0 and not res["correct"],
                 f"{workload}: a corrupted output hash is not caught")

    corrupt = json.loads(json.dumps(base))
    corrupt["continuous_optimum"]["1"]["10"][0] = "1/1"
    path = os.path.join(SCRATCH, "goldens-optimum.json")
    with open(path, "w") as fh:
        json.dump(corrupt, fh)
    lines, res = _result(_bench("continuous_m2", 0, path))
    _require(res["failed"] > 0 and _fail_frac(lines) > 0,
             "a corrupted exact optimum is not caught")


def check_bare_directory():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _bench("grid", 0, cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    _require(proc.returncode != 0 and not last[0].startswith("{"),
             "the benchmark printed a result without the program's sources")
    shutil.rmtree(bare)


def main() -> int:
    checks = (check_grid_seed0, check_metric_names, check_goldens, check_bare_directory)
    for check in checks:
        try:
            check()
        except SelfTestFailure as exc:
            print(f"FAIL {check.__name__}: {exc}")
            return 1
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
