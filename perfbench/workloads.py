"""Benchmark workloads: CLI argv lists generated from a seed, and the check
each item's output must pass.

Inputs are made here, from the seed alone, without calling the library, so
the program under test sees only the generated argv.  Seed 0 reproduces the
fixed workloads (for `grid`, exactly the library's built-in certification
grid); other seeds draw instances with the same shape and coverage.

Each item is a dict: `argv` (the CLI arguments), `key` (the argv joined by
spaces, used to look up stored output hashes) and `expect` (what the
semantic check needs to know about the instance).
"""

from __future__ import annotations

import csv
import io
import json
import random
from fractions import Fraction as F

WORKLOADS = ("grid", "continuous_m2", "mechanism_audit")
SIZES = ("full", "tiny")

# grid: the library's certification grid and the pools other seeds draw from.
GRID_NS = (2, 3)
GRID_PS = (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4))
GRID_P_POOL = (F(1, 5), F(1, 4), F(2, 7), F(1, 3), F(2, 5), F(1, 2),
               F(3, 5), F(2, 3), F(5, 7), F(3, 4), F(4, 5))
GRID_INTERIOR = (F(1, 4), F(2, 4), F(3, 4))
GRID_INTERIOR_POOL = tuple(F(k, 8) for k in range(1, 8))
GRID_A0_BS = (F(1), F(2), F(3))
GRID_A0_POOL = tuple(F(k, 2) for k in range(1, 9))

# continuous_m2: scales with a stored exact optimum.
CONTINUOUS_AS = (10, 20, 40)

# mechanism_audit: n=6, a=1, one b inside each interval of b.
MECH_N = 6
MECH_N_TINY = 3
MECH_P_POOL = (F(1, 3), F(2, 5), F(1, 2), F(3, 5), F(2, 3))
MECH_U_POOL = (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4))


def breakpoints(p: F, a: F) -> tuple[F, F, F]:
    """v1 = (1+p^2)/(1-p^2) a, v2 = a/(1-p), v3 = (1+p)/(1-p) a."""
    return ((1 + p * p) / (1 - p * p) * a, a / (1 - p), (1 + p) / (1 - p) * a)


def _item(argv, **expect) -> dict:
    argv = [str(x) for x in argv]
    return {"argv": argv, "key": " ".join(argv), "expect": expect}


def _grid_b_values(p: F, a: F, fracs) -> list:
    """Same construction as the library grid: `fracs` of the way through
    each linearity interval, plus the three breakpoints."""
    v1, v2, v3 = breakpoints(p, a)
    edges = [a, v1, v2, v3, v3 + (v3 - a)]
    out = {v1, v2, v3}
    for k, (lo, hi) in enumerate(zip(edges, edges[1:])):
        out.update(lo + f * (hi - lo) for f in fracs[k])
    return sorted(x for x in out if x > a)


def grid_items(seed: int, size: str) -> list:
    rng = random.Random(seed)
    items = []
    for n in GRID_NS:
        ps = GRID_PS if seed == 0 else sorted(rng.sample(GRID_P_POOL, len(GRID_PS)))
        for p in ps:
            for a in (F(0), F(1)):
                if a == 0:
                    bs = GRID_A0_BS if seed == 0 else sorted(rng.sample(GRID_A0_POOL, 3))
                else:
                    fracs = [GRID_INTERIOR if seed == 0
                             else sorted(rng.sample(GRID_INTERIOR_POOL, 3))
                             for _ in range(4)]
                    bs = _grid_b_values(p, a, fracs)
                for b in bs:
                    items.append(_item(
                        ["certify", "--n", n, "--p", p, "--a", a, "--b", b,
                         "--format", "json"]))
    return items if size == "full" else items[::30]


def continuous_items(seed: int, size: str) -> list:
    a = CONTINUOUS_AS[0] if seed == 0 else random.Random(seed).choice(CONTINUOUS_AS)
    grid_m = 2 if size == "full" else 1
    return [_item(["continuous", "--a-list", a, "--grid-m", grid_m, "--impl", "both"],
                  a=a, grid_m=grid_m)]


def mechanism_items(seed: int, size: str) -> list:
    rng = random.Random(seed)
    n = MECH_N if size == "full" else MECH_N_TINY
    a = F(1)
    p = F(1, 2) if seed == 0 else rng.choice(MECH_P_POOL)
    v1, v2, v3 = breakpoints(p, a)
    # [v3, oo) is represented by [v3, 2*v3 - a].
    intervals = [(a, v1), (v1, v2), (v2, v3), (v3, 2 * v3 - a)]
    items = []
    for lo, hi in intervals:
        u = F(1, 2) if seed == 0 else rng.choice(MECH_U_POOL)
        b = lo + u * (hi - lo)
        for impl in ("dic", "bic"):
            items.append(_item(
                ["mechanism", "--n", n, "--p", p, "--a", a, "--b", b,
                 "--impl", impl, "--check", "--format", "json"],
                impl=impl, below_v3=b < v3))
    return items


GENERATORS = {
    "grid": grid_items,
    "continuous_m2": continuous_items,
    "mechanism_audit": mechanism_items,
}


def make_items(workload: str, seed: int, size: str) -> list:
    return GENERATORS[workload](seed, size)


def input_size(workload: str, items: list) -> dict:
    """What one pass of the workload covers, recorded with every result."""
    out = {"items": len(items)}
    if workload == "grid":
        for n in GRID_NS:
            out[f"n{n}_specs"] = sum(1 for it in items if it["argv"][2] == str(n))
    elif workload == "continuous_m2":
        out.update(a=items[0]["expect"]["a"], grid_m=items[0]["expect"]["grid_m"])
    else:
        n = int(items[0]["argv"][2])
        out.update(n=n, profiles=4 ** n)
    return out


# ---------------------------------------------------------------------------
# Semantic checks: return None when the output is right, else a reason.
# ---------------------------------------------------------------------------


def _check_grid(item, out: str, goldens: dict):
    reports = json.loads(out)
    if len(reports) != 1:
        return f"expected one report, got {len(reports)}"
    rep = reports[0]
    if rep.get("equal_D") is not True or rep.get("equal_B") is not True:
        return f"LP optimum differs from the closed form: {rep}"
    return None


def _check_continuous(item, out: str, goldens: dict):
    rows = {r["impl"]: F(int(r["optimum_num"]), int(r["optimum_den"]))
            for r in csv.DictReader(io.StringIO(out))}
    if set(rows) != {"dic", "bic"}:
        return f"expected dic and bic rows, got {sorted(rows)}"
    if not rows["dic"] < rows["bic"]:
        return f"lp_D {rows['dic']} is not below lp_B {rows['bic']}"
    exp = item["expect"]
    golden = goldens.get("continuous_optimum", {}).get(str(exp["grid_m"]), {}).get(str(exp["a"]))
    if golden is not None and [str(rows["dic"]), str(rows["bic"])] != golden:
        return f"optima {rows['dic']}, {rows['bic']} differ from golden {golden}"
    return None


def _check_mechanism(item, out: str, goldens: dict):
    checks = json.loads(out).get("checks", {})
    if checks.get("revenue", {}).get("equal") is not True:
        return "expected revenue differs from the closed form"
    exp = item["expect"]
    if exp["impl"] == "bic" and exp["below_v3"]:
        dic = checks.get("DIC_informational", {})
        if dic.get("passed") is not False or not dic.get("violations"):
            return "no DIC violation reported for the BIC mechanism below v3"
    return None


CHECKS = {
    "grid": _check_grid,
    "continuous_m2": _check_continuous,
    "mechanism_audit": _check_mechanism,
}


def check_item(workload: str, item: dict, rc, out: str, out_sha256: str, goldens: dict):
    """None if the item's output is right, else a one-line reason."""
    if rc != 0:
        return f"exit code {rc}"
    golden = goldens.get("stdout_sha256", {}).get(item["key"])
    if golden is not None and golden != out_sha256:
        return "output differs from the stored golden bytes"
    try:
        return CHECKS[workload](item, out, goldens)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
