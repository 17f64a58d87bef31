"""Benchmark of the twopoint-auctions certifier, run through its CLI.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout.  Workloads (see workloads.py):

  grid             180 `certify --format json` calls over the certification
                   grid (n=2 solved unreduced, n=3 through the symmetry
                   reduction): many small exact LPs.
  continuous_m2    one `continuous --grid-m 2 --impl both` call: the lazy-row
                   DIC program with large big-int tableaus.
  mechanism_audit  8 `mechanism --check --format json` calls at n=6 (DIC and
                   BIC, one b in each interval of b): no LP, table building,
                   exhaustive audits and ~3 MB of JSON per call.

Each run starts one fresh interpreter for the workload (worker.py), which
calls `twopoint_auctions.cli.main` in process in a closed loop with one
caller.  Every output is checked: exit code, a semantic check per workload,
and for items with a stored hash (seed 0) byte-identical stdout.

`--trace 0` prints the end-to-end metrics: setup_s (fresh interpreter to
first item: imports, CLI parser, input generation; median of 5 starts),
wall_ref_s (median time of one pass over the items) and peak_rss_mb
(ru_maxrss of the workload process).  On a workload with at least 100 items
per run it also prints the per-item latency percentiles item_p50_ref_s and
item_p90_ref_s with their sample count; they are not among the metrics of
the final JSON line, which every workload reports alike.

setup_s, wall_ref_s and the item latencies are at reference speed.  The
speed of a shared machine drifts by tens of percent within a minute, far
more than a change to the program should have to show.  So the worker
times a fixed loop (the speedometer, see worker.py) every 0.1 s, from a
timer signal in the workload's own thread, and each item's time, with the
speedometer's samples taken out, is multiplied by REF_SPEED_S over the mean
sample time around that item (the mean, not the median: the stalls that
slow a sample slow the item as well).  The loop does not touch the library:
a change to the program moves the item's time, not the samples.  A start's
setup time is scaled by the samples the worker takes right after setup
(the program runs nothing while they are taken, and the speed changes
little within a second).  The times as measured are printed too, on a
`measured` line, and kept in the record with the samples.  peak_rss_mb
includes the speedometer's table and index, about 4 MB.

`--trace 1` runs the workload with spans around the calls into each module
(layertrace.py) and prints the per-layer metrics, including
trace.overhead_s, the traced wall_ref_s minus the wall_ref_s of an untraced
run made just before it.  The per-layer seconds are as measured and include
the speedometer's samples taken while a layer's span was open (about 6%).

Every run writes a record (versions, nproc, commit, source hash, seed, input
size, metrics, flags) to perfbench/results/.  Traced runs also compare their
exact counts with earlier traced runs of the same code and seed there, and
flag any difference.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import layertrace
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Per-item percentiles are printed only for this many items or more.
PERCENTILE_MIN_ITEMS = 100
PER_LAYER = tuple((name, unit) for name, unit, _, _ in layertrace.METRICS) + (
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_s", "s"),
)
SETUP_STARTS = 5

# REF_SPEED_S is what one sample of the speedometer (worker.py) reads at
# reference speed: about the median on a 2-vCPU 2.1 GHz Xeon cloud VM with
# CPython 3.11.  An interval's speed is the mean of the samples that overlap
# it widened by SPEED_WINDOW_S on each side, and of at least the
# SPEED_MIN_SAMPLES nearest ones.
REF_SPEED_S = 0.0065
SPEED_WINDOW_S = 0.25
SPEED_MIN_SAMPLES = 3
# Every run must end within 180 s; the worker gets what is left of this.
RUN_LIMIT_S = 170.0


def _ref_seconds(span, samples) -> float:
    """The program's time in span (the speedometer's own samples taken out),
    at reference speed: scaled by REF_SPEED_S over the mean of the samples
    near span."""
    start, end = span
    busy = sum(e - s for s, e in samples if s >= start and e <= end)
    lo, hi = start - SPEED_WINDOW_S, end + SPEED_WINDOW_S
    near = [(s, e) for s, e in samples if e >= lo and s <= hi]
    if len(near) < SPEED_MIN_SAMPLES:
        mid = (start + end) / 2
        near = sorted(samples, key=lambda se: abs((se[0] + se[1]) / 2 - mid))
        near = near[:SPEED_MIN_SAMPLES]
    return (end - start - busy) * REF_SPEED_S / statistics.mean(e - s for s, e in near)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=workloads.SIZES, default="full",
                    help="'tiny' is for the self-test")
    ap.add_argument("--goldens", default=os.path.join(HERE, "goldens.json"),
                    help="stored output hashes and exact optima")
    return ap.parse_args(argv)


def _source_sha256() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit():
    """HEAD's commit id read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "src_sha256": _source_sha256(),
    }


def _run_worker(args, extra, deadline):
    """Start worker.py, wait for it, and return ((its start, its first
    item's start, the setup time between them at reference speed), its
    result); the moments are time.monotonic() readings."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size,
           "--seconds", str(args.seconds)] + extra
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ready = result["ready_at"]
    return (started, ready, _ref_seconds((started, ready), result["setup_samples"])), result


def _run_workload(args, goldens, extra, deadline):
    """One workload process; its outputs are checked here.  Returns (setup
    span, result) with attempted, failed, failures and hashes added."""
    os.makedirs(RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix="outputs-") as outdir:
        setup, res = _run_worker(args, extra + ["--outputs", outdir], deadline)
        items = workloads.make_items(args.workload, args.seed, args.size)
        failures, bad = [], set()
        for k, (item, got) in enumerate(zip(items, res["first_pass"])):
            if isinstance(got["rc"], str):
                reason = got["rc"]
            else:
                with open(os.path.join(outdir, f"{k}.out"), "rb") as fh:
                    out = fh.read().decode()
                reason = workloads.check_item(args.workload, item, got["rc"], out,
                                              got["sha256"], goldens)
            if reason is not None:
                bad.add(k)
                failures.append({"item": item["key"], "reason": reason,
                                 "stderr": got["stderr"]})
    failed = len(bad)
    for n, p in enumerate(res["passes"][1:], start=2):
        failed += len(bad) + len(set(p["differs"]) - bad)
        failures += [{"item": items[k]["key"], "reason": f"pass {n} output differs from pass 1"}
                     for k in p["differs"] if k not in bad]
    res.update(attempted=len(items) * len(res["passes"]), failed=failed,
               failures=failures[:20],
               hashes={item["key"]: got["sha256"] for item, got in zip(items, res["first_pass"])})
    return setup, res


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _at_ref_speed(res):
    """Add each pass's item latencies and wall time, as measured and at
    reference speed; both without the speedometer's own samples."""
    samples = res["speed_samples"]
    for p in res["passes"]:
        p["latencies"] = [end - start - sum(e - s for s, e in samples if s >= start and e <= end)
                          for start, end in p["spans"]]
        p["wall_s"] = sum(p["latencies"])
        p["ref_latencies"] = [_ref_seconds(span, samples) for span in p["spans"]]
        p["wall_ref_s"] = sum(p["ref_latencies"])


def _end_to_end(res, setups) -> dict:
    return {
        "setup_s": statistics.median(ref for _, _, ref in setups),
        "wall_ref_s": statistics.median(p["wall_ref_s"] for p in res["passes"]),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def _percentiles(res, key) -> dict:
    latencies = [x for p in res["passes"] for x in p[key]]
    return {"p50": statistics.median(latencies), "p90": _nearest_rank(latencies, 0.9),
            "n": len(latencies)}


def _measured(res) -> dict:
    """The times as measured, before scaling to reference speed."""
    times = [e - s for s, e in res["speed_samples"]]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in res["passes"]),
        "item_p50_s": _percentiles(res, "latencies")["p50"],
        "speedometer_s": statistics.median(times) if times else None,
        "speedometer_samples": len(times),
    }


def _traced_records(args, src):
    """Earlier traced records of this workload, size, seed and code."""
    out = []
    if not os.path.isdir(RESULTS):
        return out
    for name in sorted(os.listdir(RESULTS)):
        if not name.endswith(".json"):
            continue
        try:
            with open(os.path.join(RESULTS, name)) as fh:
                rec = json.load(fh)
        except (OSError, ValueError):
            continue
        if (rec.get("workload"), rec.get("size"), rec.get("seed"), rec.get("trace"),
                rec.get("env", {}).get("src_sha256")) == (args.workload, args.size,
                                                          args.seed, 1, src):
            out.append(rec)
    return out


def _record_path(args, trace):
    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{time.time_ns() % 10**9:09d}"
    return os.path.join(RESULTS, f"{args.workload}-{args.size}-s{args.seed}-t{trace}-{stamp}.json")


def _write_record(path, args, env, trace, res, setups, metrics, flags, extra=None):
    rec = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "trace": trace, "seconds": args.seconds, "env": env,
        "input_size": res["input_size"], "attempted": res["attempted"],
        "failed": res["failed"], "failures": res["failures"],
        "passes": [{k: p[k] for k in ("wall_s", "wall_ref_s", "cpu_s", "output_bytes")}
                   for p in res["passes"]],
        "setup_s": [ref for _, _, ref in setups],
        "setup_measured_s": [end - start for start, end, _ in setups], "measured": _measured(res),
        "spans": [p["spans"] for p in res["passes"]], "speed_samples": res["speed_samples"],
        "item_ref_s": _percentiles(res, "ref_latencies"),
        "metrics": metrics, "flags": flags,
        "hashes": res["hashes"],
    }
    rec.update(extra or {})
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=1)


def _run_untraced(args, goldens, deadline):
    """One untraced run: (setup spans, result)."""
    setups = []
    for _ in range(SETUP_STARTS - 1):
        setup, _ = _run_worker(args, ["--setup-only"], deadline)
        setups.append(setup)
    setup, res = _run_workload(args, goldens, ["--trace", "0"], deadline)
    setups.append(setup)
    return setups, res


def _untraced(args, env, setups, res):
    """The end-to-end metrics of an untraced run, written to its record."""
    _at_ref_speed(res)
    metrics = _end_to_end(res, setups)
    _write_record(_record_path(args, 0), args, env, 0, res, setups, metrics, [])
    return metrics


def _counts(traced_pass) -> dict:
    """The exact counts of one traced pass, which must repeat exactly."""
    out = {name: traced_pass["values"][name] for name, unit in PER_LAYER[:-1] if unit != "s"}
    out["simplex.dic_pivots"] = traced_pass["dic_pivots"]
    return out


def _run_traced(args, goldens, deadline):
    """An untraced run and then a traced one: (untraced setup spans, untraced
    result, traced result, record path).  The untraced run goes right before
    the traced one, so that trace.overhead_s compares runs of nearly the same
    moment."""
    setups, untraced = _run_untraced(args, goldens, deadline)
    path = _record_path(args, 1)
    spans_path = os.path.join(RESULTS, "spans", os.path.basename(path))
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    _, res = _run_workload(args, goldens, ["--trace", "1", "--spans-out", spans_path], deadline)
    return setups, untraced, res, path


def _traced(args, env, goldens, setups, untraced, res, path, lines):
    untraced_wall = _untraced(args, env, setups, untraced)["wall_ref_s"]
    _at_ref_speed(res)
    tr = res["trace"]
    first = tr["passes"][0]["values"]
    metrics = {}
    for name, unit in PER_LAYER[:-1]:
        if unit == "s":
            metrics[name] = statistics.median(p["values"][name] for p in tr["passes"])
        else:
            metrics[name] = first[name]
    traced_wall = statistics.median(p["wall_ref_s"] for p in res["passes"])
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    counts = _counts(tr["passes"][0])
    flags = []
    for k, p in enumerate(tr["passes"][1:], start=2):
        for name, value in _counts(p).items():
            if value != counts[name]:
                flags.append(f"count drift: {name} is {counts[name]} in pass 1, {value} in pass {k}")
    for rec in _traced_records(args, env["src_sha256"]):
        for name, value in rec.get("counts", {}).items():
            if name in counts and counts[name] != value:
                flags.append(f"count drift: {name} is {counts[name]} here, "
                             f"{value} in an earlier run of the same code and seed")
    anchors = goldens.get("anchors", {}).get(args.workload)
    if anchors and args.seed == 0 and args.size == "full":
        for name, want in anchors.items():
            if counts.get(name) != want:
                flags.append(f"anchor: {name} is {counts.get(name)}, expected {want}")
            else:
                lines.append(f"anchor {name} {want} ok")

    absent = sorted(name for name, _, span, _ in layertrace.METRICS
                    if span not in tr["installed"])
    split = {layer: statistics.median(p["layer_self_s"][layer] for p in tr["passes"])
             for layer in layertrace.LAYERS}
    total = sum(split.values()) or 1.0
    lines.append("layer self time per pass: " + ", ".join(
        f"{layer} {secs:.3f} s ({100 * secs / total:.1f}%)" for layer, secs in split.items()))
    lines.append(f"traced wall_ref_s {traced_wall:.4f} s vs untraced {untraced_wall:.4f} s; "
                 f"{tr['spans']} spans; absent: {', '.join(tr['absent']) or 'none'}")
    if absent:
        lines.append("absent layer metrics (reported as 0): " + ", ".join(absent))
    if tr["uncounted"]:
        lines.append("spans whose counts could not be read (counted as 0): "
                     + ", ".join(tr["uncounted"]))
    _write_record(path, args, env, 1, res, setups, metrics, flags,
                  {"counts": counts, "layer_self_s": split, "absent": absent,
                   "uncounted": tr["uncounted"],
                   "untraced_wall_ref_s": untraced_wall})
    return metrics, flags


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "twopoint_auctions", "cli.py")):
        print("error: run from the root of a twopoint-auctions checkout "
              "(src/twopoint_auctions/cli.py not found)", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    with open(args.goldens) as fh:
        goldens = json.load(fh)
    env = _environment()
    lines = []
    if args.trace:
        setups, untraced, res, path = _run_traced(args, goldens, deadline)
        metrics, flags = _traced(args, env, goldens, setups, untraced, res, path, lines)
        units = dict(PER_LAYER)
    else:
        setups, res = _run_untraced(args, goldens, deadline)
        metrics, flags = _untraced(args, env, setups, res), []
        units = dict(END_TO_END)

    n_items = sum(len(p["latencies"]) for p in res["passes"])
    print(f"workload {args.workload} seed {args.seed} size {args.size} trace {args.trace}: "
          f"{json.dumps(res['input_size'])}, {len(res['passes'])} pass(es), "
          f"closed loop, 1 caller")
    print("env " + " ".join(f"{k} {v}" for k, v in env.items()))
    for line in lines:
        print(line)
    for name, value in metrics.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {SETUP_STARTS} starts)"
        elif name == "wall_ref_s":
            note = f"  (median of {len(res['passes'])} pass(es))"
        print(f"{name} {value} {units[name]}{note}")
    if n_items >= PERCENTILE_MIN_ITEMS:
        q = _percentiles(res, "ref_latencies")
        print(f"item_p50_ref_s {q['p50']} s  (n={q['n']})")
        beyond = q["n"] - math.ceil(0.9 * q["n"])
        print(f"item_p90_ref_s {q['p90']} s  (n={q['n']}, {beyond} beyond p90)")
    measured = _measured(res)
    print(f"measured setup_s {statistics.median(e - s for s, e, _ in setups):.4f} s, "
          f"wall_s {measured['wall_s']:.4f} s, item_p50_s {measured['item_p50_s']:.4f} s; "
          f"speedometer {measured['speedometer_s']:.5f} s median of "
          f"{measured['speedometer_samples']} samples (reference {REF_SPEED_S} s)")
    print(f"fail_frac {res['failed'] / res['attempted']} ratio "
          f"({res['failed']}/{res['attempted']})")
    for failure in res["failures"]:
        print(f"FAILED {failure['item']}: {failure['reason']}")
    for flag in flags:
        print(f"FLAG {flag}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
