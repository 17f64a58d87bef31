"""One workload run in a fresh interpreter; started by run.py.

It imports the library from the checkout's `src/`, builds the CLI parser,
generates the workload's argv lists, and then calls the CLI entry
`twopoint_auctions.cli.main` in process, in a closed loop: one caller, the
next item starts only after the previous one returned.  It runs whole passes
over the items while the next pass is expected to end within `--seconds`,
and always at least one.  Each item's stdout is captured; the first pass's
outputs are written to `--outputs` for run.py to check, outside this
process so that checking adds nothing to its peak memory.

While items run, the speedometer times a fixed loop every SPEED_PERIOD_S:
a timer signal runs it in this process's one thread, between the program's
bytecodes, so it sees the speed of the core the program runs on at that
moment.  The loop does pure-Python arithmetic and reads a 3 MB table in a
fixed random order; on this kind of machine that mix slows down with the
workloads when the machine is busy, where either half alone slows down less
or more.  Item starts and ends and the samples are reported as
`time.monotonic()` readings; run.py takes the samples out of the items'
times and scales them to reference speed.

It prints one JSON object on stdout.  With `--setup-only` it stops when the
first item would start and prints only that moment (`time.monotonic()`,
which run.py compares with the moment it started this process) and
SETUP_SAMPLES speedometer samples taken right after it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import sys
import time
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layertrace  # noqa: E402
import workloads  # noqa: E402


SPEED_PERIOD_S = 0.1
SPEED_ITERS = 25_000
SPEED_TABLE = 400_000
SETUP_SAMPLES = 5


class Speedometer:
    """Samples (start, end) of the speedometer loop, from SIGALRM every
    SPEED_PERIOD_S while the `with` block runs, and once on each side."""

    def __init__(self):
        rng = random.Random(0)
        self.table = array("d", (rng.random() for _ in range(SPEED_TABLE)))
        self.index = [rng.randrange(SPEED_TABLE) for _ in range(SPEED_ITERS)]
        self.samples = []
        self.busy = False

    def sample(self, *_):
        if self.busy:
            return
        self.busy = True
        start = time.monotonic()
        acc = 0.0
        for i in range(SPEED_ITERS):
            acc += i * i % 7
        table = self.table
        for i in self.index:
            acc += table[i]
        self.samples.append((start, time.monotonic()))
        self.busy = False

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_PERIOD_S, SPEED_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def _parse(argv):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=workloads.SIZES, default="full")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--outputs", help="directory for the first pass's outputs")
    ap.add_argument("--spans-out")
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


def _run_item(cli, item, tracer):
    out, err = io.StringIO(), io.StringIO()
    cpu = time.process_time()
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = tracer.call(cli.main, item["argv"]) if tracer else cli.main(item["argv"])
    except Exception as exc:  # an item that raises is a failed item, not a crash
        rc = f"raised {type(exc).__name__}: {exc}"
    end = time.monotonic()
    return (start, end), time.process_time() - cpu, rc, out.getvalue().encode(), err.getvalue()


def main(argv=None) -> int:
    args = _parse(argv)
    from twopoint_auctions import cli

    cli.build_parser()
    items = workloads.make_items(args.workload, args.seed, args.size)
    ready_at = time.monotonic()
    # The machine's speed right after setup, for run.py to scale setup_s.
    speed = Speedometer()
    for _ in range(SETUP_SAMPLES):
        speed.sample()
    setup_samples, speed.samples = speed.samples, []
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at, "setup_samples": setup_samples}))
        return 0

    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()

    # First-pass outputs go to files for run.py to check; a later pass must
    # reproduce them byte for byte.
    first, passes = [], []
    attempted = 0
    started = time.monotonic()
    with speed:
        while True:
            spans, cpu_s, out_bytes, pass_items, differs = [], 0.0, 0, [], []
            for k, item in enumerate(items):
                if tracer:
                    tracer.item = attempted
                pass_items.append(attempted)
                span, cpu, rc, data, err = _run_item(cli, item, tracer)
                cpu_s += cpu
                attempted += 1
                digest = hashlib.sha256(data).hexdigest()
                if not passes:
                    with open(os.path.join(args.outputs, f"{k}.out"), "wb") as fh:
                        fh.write(data)
                    first.append({"rc": rc, "sha256": digest, "stderr": err[-500:]})
                elif (rc, digest) != (first[k]["rc"], first[k]["sha256"]):
                    differs.append(k)
                spans.append(span)
                out_bytes += len(data)
            passes.append({"wall_s": sum(end - start for start, end in spans), "cpu_s": cpu_s,
                           "spans": spans,
                           "output_bytes": out_bytes, "items": pass_items,
                           "differs": differs})
            elapsed = time.monotonic() - started
            if elapsed + passes[-1]["wall_s"] > args.seconds:
                break

    result = {
        "ready_at": ready_at,
        "setup_samples": setup_samples,
        "input_size": workloads.input_size(args.workload, items),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "first_pass": first,
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "spans", "output_bytes", "differs")}
                   for p in passes],
        "speed_samples": speed.samples,
    }
    if tracer:
        tracer.uninstall()
        per_pass = []
        for p in passes:
            summary = layertrace.summarize(tracer.spans, p["items"])
            values = layertrace.layer_values(summary)
            values["cli.output_bytes"] = p["output_bytes"]
            per_pass.append({
                "values": values,
                "layer_self_s": layertrace.layer_self_seconds(summary),
                "dic_pivots": layertrace.dic_pivots(summary),
            })
        result["trace"] = {
            "passes": per_pass,
            "installed": sorted(tracer.installed),
            "absent": tracer.absent,
            "uncounted": sorted(tracer.uncounted),
            "spans": len(tracer.spans),
        }
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump([s[:6] + [s[6] or {}] for s in tracer.spans], fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
