"""Per-layer tracing from outside the program.

Layers are the library's modules.  A span is recorded around each call that
crosses into a layer, by replacing the calling module's attribute with a
timing wrapper (`cli.certify_main_theorem`, `oracle.solve`, ...): a module
that did `from .simplex import solve` looks the name up in its own globals,
so that is the attribute to wrap.  Spans stay in memory as
(id, parent id, item, name, start, end, counts) and are summarised when the
run ends.  A span's self time is its duration minus its children's.

Counts come from arguments and return values (`LPSolution.pivots`,
`AuditReport.n_constraints`, LP sizes), never from inside the program.  A
wrapped name that no longer exists is reported as absent, and a return value
a counter cannot read as uncounted; neither is an error.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

PACKAGE = "twopoint_auctions"


def _lp_size(lp):
    return {"vars": len(lp.variables), "rows": len(lp.constraints)}


def _built_lp(args, result):
    return _lp_size(result)


def _solve_counts(args, result):
    lp = args[0]
    out = _lp_size(lp)
    out["pivots"] = result.pivots
    out["dic"] = int(any(c.tag.startswith("dic") for c in lp.constraints))
    return out


def _audit_counts(args, result):
    return {"constraints": result.n_constraints, "violations": len(result.violations)}


def _profiles_built(args, result):
    return {"profiles": len(result.allocation)}


def _profiles_enumerated(args, result):
    return {"profiles": len(result)}


# (module, attribute, span name, counter).  The span name's prefix is the
# layer that does the work.
WRAPS = (
    ("cli", "certify_main_theorem", "oracle.certify", None),
    ("cli", "corollary_probe", "continuous.probe", None),
    ("cli", "build_dic_mechanism", "mechanisms.build", _profiles_built),
    ("cli", "build_bic_mechanism", "mechanisms.build", _profiles_built),
    ("cli", "mechanism_to_json", "mechanisms.export", None),
    ("cli", "revenue_report", "formulas", None),
    ("audit", "check_ir", "audit.ir", _audit_counts),
    ("audit", "check_dic", "audit.dic", _audit_counts),
    ("audit", "check_bir", "audit.bir", _audit_counts),
    ("audit", "check_bic", "audit.bic", _audit_counts),
    ("audit", "expected_revenue", "audit.revenue", None),
    ("audit", "enumerate_profiles", "core.enumerate", _profiles_enumerated),
    ("mechanisms", "enumerate_profiles", "core.enumerate", _profiles_enumerated),
    ("mechanisms", "breakpoints", "formulas", None),
    ("mechanisms", "indicator_flags", "formulas", None),
    ("continuous", "lp_over_grid", "continuous.cell", None),
    ("continuous", "revenue_dic", "formulas", None),
    ("continuous", "revenue_bic", "formulas", None),
    ("continuous", "build_auction_lp", "oracle.build", _built_lp),
    ("continuous", "solve_auction_lp", "oracle.solve_lp", None),
    ("oracle", "build_auction_lp", "oracle.build", _built_lp),
    ("oracle", "solve_auction_lp", "oracle.solve_lp", None),
    ("oracle", "symmetry_representatives", "oracle.reduce", None),
    ("oracle", "symmetrize_lp", "oracle.reduce", _built_lp),
    ("oracle", "expand_assignment", "oracle.expand", None),
    ("oracle", "revenue_dic", "formulas", None),
    ("oracle", "revenue_bic", "formulas", None),
    ("oracle", "solve", "simplex.solve", _solve_counts),
    ("simplex", "_certify", "simplex.certify", None),
)

ROOT = "cli.main"
LAYERS = ("cli", "formulas", "core", "mechanisms", "audit", "oracle", "simplex",
          "continuous")


class Tracer:
    """Installs the wrappers, records spans, and restores the modules."""

    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []
        self._next_id = 0
        self._saved = []
        self.installed = {ROOT}
        self.absent = []
        self.uncounted = set()

    def install(self):
        for mod_name, attr, name, counter in WRAPS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, counter))
            self.installed.add(name)

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved = []

    def call(self, fn, *args):
        """Run the root span: one call of the CLI entry."""
        return self._wrap(fn, ROOT, None)(*args)

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span = [sid, parent, self.item, name, start, end, None]
                self.spans.append(span)
            if counter is not None:
                try:
                    span[6] = counter(args, result)
                except (AttributeError, TypeError, IndexError):
                    # The return value changed shape: report, don't fail the item.
                    self.uncounted.add(name)
            return result

        return traced


def summarize(spans, items) -> dict:
    """Self seconds and calls per span name, and counts, over the spans of
    the given item indices."""
    items = set(items)
    chosen = [s for s in spans if s[2] in items]
    child_time = defaultdict(float)
    for sid, parent, _, _, start, end, _ in chosen:
        if parent is not None:
            child_time[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(list)
    for sid, _, _, name, start, end, cnt in chosen:
        self_s[name] += (end - start) - child_time[sid]
        calls[name] += 1
        if cnt:
            counts[name].append(cnt)
    return {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(counts)}


def _total(summary, name, key):
    return sum(c[key] for c in summary["counts"].get(name, ()))


def _max(summary, name, key):
    return max((c[key] for c in summary["counts"].get(name, ())), default=0)


def _self(name):
    return lambda s: s["self_s"].get(name, 0.0)


# Per-layer metrics: (name, unit, span name it is read from, value).
METRICS = (
    ("simplex.solve_s", "s", "simplex.solve", _self("simplex.solve")),
    ("simplex.pivots", "count", "simplex.solve", lambda s: _total(s, "simplex.solve", "pivots")),
    ("simplex.solves", "count", "simplex.solve", lambda s: s["calls"].get("simplex.solve", 0)),
    ("simplex.max_rows", "count", "simplex.solve", lambda s: _max(s, "simplex.solve", "rows")),
    ("simplex.certify_s", "s", "simplex.certify", _self("simplex.certify")),
    ("oracle.build_s", "s", "oracle.build", _self("oracle.build")),
    ("oracle.reduce_s", "s", "oracle.reduce", _self("oracle.reduce")),
    ("oracle.expand_s", "s", "oracle.expand", _self("oracle.expand")),
    ("oracle.vars_full", "count", "oracle.build", lambda s: _max(s, "oracle.build", "vars")),
    ("oracle.rows_full", "count", "oracle.build", lambda s: _max(s, "oracle.build", "rows")),
    ("oracle.vars_reduced", "count", "oracle.reduce", lambda s: _max(s, "oracle.reduce", "vars")),
    ("oracle.rows_reduced", "count", "oracle.reduce", lambda s: _max(s, "oracle.reduce", "rows")),
    ("mechanisms.build_s", "s", "mechanisms.build", _self("mechanisms.build")),
    ("mechanisms.profiles_built", "count", "mechanisms.build",
     lambda s: _total(s, "mechanisms.build", "profiles")),
    ("core.enumerate_s", "s", "core.enumerate", _self("core.enumerate")),
    ("core.profiles_enumerated", "count", "core.enumerate",
     lambda s: _total(s, "core.enumerate", "profiles")),
    ("audit.ir_s", "s", "audit.ir", _self("audit.ir")),
    ("audit.dic_s", "s", "audit.dic", _self("audit.dic")),
    ("audit.bir_s", "s", "audit.bir", _self("audit.bir")),
    ("audit.bic_s", "s", "audit.bic", _self("audit.bic")),
    ("audit.revenue_s", "s", "audit.revenue", _self("audit.revenue")),
    ("audit.constraints_checked", "count", "audit.dic",
     lambda s: sum(_total(s, n, "constraints") for n in ("audit.ir", "audit.dic", "audit.bir", "audit.bic"))),
    ("audit.violations", "count", "audit.dic",
     lambda s: sum(_total(s, n, "violations") for n in ("audit.ir", "audit.dic", "audit.bir", "audit.bic"))),
    ("mechanisms.export_s", "s", "mechanisms.export", _self("mechanisms.export")),
    ("cli.self_s", "s", ROOT, _self(ROOT)),
    ("continuous.cell_s", "s", "continuous.cell", _self("continuous.cell")),
    ("continuous.cells", "count", "continuous.cell", lambda s: s["calls"].get("continuous.cell", 0)),
    ("formulas.s", "s", "formulas", _self("formulas")),
    ("formulas.calls", "count", "formulas", lambda s: s["calls"].get("formulas", 0)),
)


def layer_values(summary) -> dict:
    """Metric name -> value for one pass."""
    return {name: value(summary) for name, _, _, value in METRICS}


def layer_self_seconds(summary) -> dict:
    """Self seconds per layer (module), for the split table."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, secs in summary["self_s"].items():
        out[name.split(".")[0]] += secs
    return out


def dic_pivots(summary) -> int:
    """Pivots of the solves whose program has per-profile DIC rows."""
    return sum(c["pivots"] for c in summary["counts"].get("simplex.solve", ()) if c["dic"])
