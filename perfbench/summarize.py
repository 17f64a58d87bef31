"""Write perfbench/latest.json from the records of a set of full benchmark runs.

    python3 perfbench/summarize.py --since 20261018T000000

Takes the full-size records in perfbench/results/ stamped at or after
`--since`.  Per workload, the untraced records of seeds other than 0, in the
order they were made, form sets of `--set-size` runs (the first set, then
the second); each set gets the median and the quartile spread (IQR over
median) of every end-to-end metric.  The latest traced record of seed 0
gives the per-layer table.  Nothing is claimed: `claim` is null.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def _records(since):
    out = []
    for name in sorted(os.listdir(run.RESULTS)):
        parts = name[:-len(".json")].split("-")
        if not name.endswith(".json") or len(parts) < 6 or parts[-2] < since:
            continue
        with open(os.path.join(run.RESULTS, name)) as fh:
            rec = json.load(fh)
        if rec.get("size") == "full":
            out.append((parts[-2] + parts[-1], rec))
    return [rec for _, rec in sorted(out, key=lambda x: x[0])]


def _spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _set_summary(recs):
    names = [name for name, _ in run.END_TO_END]
    return {
        "seeds": [r["seed"] for r in recs],
        "median": {n: statistics.median(r["metrics"][n] for r in recs) for n in names},
        "spread": {n: _spread([r["metrics"][n] for r in recs]) for n in names},
        "measured_wall_s_spread": _spread([r["measured"]["wall_s"] for r in recs]),
        "failed": sum(r["failed"] for r in recs),
        "attempted": sum(r["attempted"] for r in recs),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--since", required=True, help="record stamp, as YYYYmmddTHHMMSS")
    ap.add_argument("--set-size", type=int, default=10)
    ap.add_argument("--run-seconds", type=int, required=True)
    ap.add_argument("--out", default=os.path.join(HERE, "latest.json"))
    args = ap.parse_args(argv)

    recs = _records(args.since)
    if not recs:
        print("no records", file=sys.stderr)
        return 1
    out = {"claim": None,
           "what": "full runs of the benchmark: end-to-end medians and quartile spreads over "
                   "seeds (separate sets, in order), and the traced per-layer table at seed 0",
           "run_seconds": args.run_seconds, "env": recs[-1]["env"], "workloads": {}}
    for workload in run.workloads.WORKLOADS:
        mine = [r for r in recs if r["workload"] == workload]
        untraced = [r for r in mine if r["trace"] == 0 and r["seed"] != 0]
        sets = [untraced[k:k + args.set_size]
                for k in range(0, len(untraced) - args.set_size + 1, args.set_size)]
        traced = [r for r in mine if r["trace"] == 1 and r["seed"] == 0]
        entry = {"end_to_end": [_set_summary(s) for s in sets]}
        if traced:
            t = traced[-1]
            entry["traced_seed0"] = {
                "input_size": t["input_size"], "metrics": t["metrics"],
                "layer_self_s": t["layer_self_s"],
                "untraced_wall_ref_s": t["untraced_wall_ref_s"],
                "flags": t["flags"], "absent": t["absent"]}
        out["workloads"][workload] = entry
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for workload, entry in out["workloads"].items():
        for k, s in enumerate(entry["end_to_end"], start=1):
            print(workload, f"set {k}", " ".join(
                f"{n} {s['median'][n]:.4g} ({s['spread'][n]:.3f})" for n in s["median"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
