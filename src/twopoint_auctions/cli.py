"""Command-line interface.

Subcommands: formulas, mechanism, certify, sweep, continuous.  All numeric
arguments are exact rationals ("1/2", "2"); decimal strings are rejected
unless --allow-decimal is given (they are then parsed exactly).  Exit codes:
0 success, 1 usage, 2 audit failure, 3 oracle mismatch, 4 cap exceeded,
5 certificate failure (an exact internal check failed, such as an LP
optimum's primal/dual certificate, its mechanism's audits or an invariant
of the closed forms: a defect in the program, not in the input), 6 a
worker process that solved some of the programs ended without its results.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction

from . import audit as audit_mod
from .core import (
    AuctionSpec,
    CapExceeded,
    InvalidSpec,
    check_profile_cap,
    decimal_str,
    rat,
    rat_allow_decimal,
    rat_str,
    type_label,
)
from .continuous import corollary_probe
from .formulas import revenue_report, sweep_high_value
from .mechanisms import build_bic_mechanism, build_dic_mechanism, mechanism_to_json
from .oracle import (
    WorkerLost,
    build_auction_lp,
    certification_grid,
    certify_main_theorem,
    certify_specs,
)
from .simplex import lp_to_text

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_AUDIT = 2
EXIT_MISMATCH = 3
EXIT_CAP = 4
EXIT_CERTIFICATE = 5
EXIT_WORKER_LOST = 6


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@contextlib.contextmanager
def _output(out_path):
    """The file out_path opened for writing, or stdout.  A write that
    fails raises an OSError that names the file, or '<stdout>'."""
    try:
        if out_path:
            with open(out_path, "w") as fh:
                yield fh
        else:
            yield sys.stdout
            sys.stdout.flush()
    except OSError as exc:
        exc.filename = exc.filename or out_path or "<stdout>"
        raise


def _emit(text: str, out_path, end: str = "\n"):
    """Write text and then `end` to out_path, or to stdout."""
    with _output(out_path) as fh:
        fh.write(text)
        fh.write(end)


def _spec_args(sub):
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--p", required=True)
    sub.add_argument("--a", required=True)
    sub.add_argument("--b", required=True)


def _rat(args, text: str, flag: str) -> Fraction:
    """Parse one rational argument; every parse failure names the flag."""
    conv = rat_allow_decimal if args.allow_decimal else rat
    try:
        return conv(text)
    except ArithmeticError:
        raise ValueError(f"{flag} is not a finite rational: {text!r}") from None
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _parse_spec(args) -> AuctionSpec:
    return AuctionSpec(
        args.n,
        _rat(args, args.p, "--p"),
        _rat(args, args.a, "--a"),
        _rat(args, args.b, "--b"),
    )


def _frac_cells(x: Fraction):
    return [*rat_str(x).split("/"), decimal_str(x)]


# ---------------------------------------------------------------------------
# formulas
# ---------------------------------------------------------------------------


def cmd_formulas(args) -> int:
    spec = _parse_spec(args)
    rep = revenue_report(spec)
    if args.format == "json":
        doc = {
            "spec": spec.to_json(),
            "r_D": rat_str(rep.r_dic),
            "r_B": rat_str(rep.r_bic),
            "srev": rat_str(rep.srev),
            "s_b": rat_str(rep.s_b),
            "grand_bundle": rat_str(rep.bundle_rev),
            "flags": {
                "alpha": rep.flags.alpha,
                "beta": rep.flags.beta,
                "gamma": rep.flags.gamma,
            },
            "breakpoints": {
                "v1": rat_str(rep.breakpoints.v1),
                "v2": rat_str(rep.breakpoints.v2),
                "v3": rat_str(rep.breakpoints.v3),
            },
        }
        _emit(json.dumps(doc, indent=2), args.out)
        return EXIT_OK
    lines = [
        f"spec: n={spec.n} p={rat_str(spec.p)} a={rat_str(spec.a)} b={rat_str(spec.b)}",
        f"r_D          = {rat_str(rep.r_dic)} ({decimal_str(rep.r_dic)})",
        f"r_B          = {rat_str(rep.r_bic)} ({decimal_str(rep.r_bic)})",
        f"SREV         = {rat_str(rep.srev)} ({decimal_str(rep.srev)})",
        f"s_b          = {rat_str(rep.s_b)} ({decimal_str(rep.s_b)})",
        f"grand bundle = {rat_str(rep.bundle_rev)} ({decimal_str(rep.bundle_rev)})",
        f"flags: alpha={rep.flags.alpha} beta={rep.flags.beta} gamma={rep.flags.gamma}",
        "breakpoints: v1={} ({}) v2={} ({}) v3={} ({})".format(
            rat_str(rep.breakpoints.v1),
            decimal_str(rep.breakpoints.v1),
            rat_str(rep.breakpoints.v2),
            decimal_str(rep.breakpoints.v2),
            rat_str(rep.breakpoints.v3),
            decimal_str(rep.breakpoints.v3),
        ),
    ]
    _emit("\n".join(lines), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# mechanism
# ---------------------------------------------------------------------------


def _witness_line(report) -> str:
    v = report.violations[0]
    others = " ".join(type_label(t, pretty=True) for t in v.others)
    return (
        f"buyer {v.buyer + 1} true {type_label(v.true_type, pretty=True)} "
        f"report {type_label(v.reported_type, pretty=True)} others [{others}] "
        f"lhs {rat_str(v.lhs)} < rhs {rat_str(v.rhs)}"
    )


def cmd_mechanism(args) -> int:
    spec = _parse_spec(args)
    builder = build_dic_mechanism if args.impl == "dic" else build_bic_mechanism
    check_profile_cap(spec.n, spec.dist)
    mech = builder(spec)

    status = EXIT_OK
    checks = {}
    lines = []
    if args.check:
        rep_formulas = revenue_report(spec)
        target = rep_formulas.r_dic if args.impl == "dic" else rep_formulas.r_bic
        target_name = "r_D" if args.impl == "dic" else "r_B"
        ir = audit_mod.check_ir(mech)
        checks["IR"] = ir.to_json()
        lines.append(f"IR: {'ok' if ir.passed else 'FAILED'}")
        suite_ok = ir.passed
        if args.impl == "dic":
            dic = audit_mod.check_dic(mech)
            checks["DIC"] = dic.to_json()
            lines.append(f"DIC: {'ok' if dic.passed else 'FAILED'}")
            suite_ok = suite_ok and dic.passed
        else:
            bic = audit_mod.check_bic(mech)
            bir = audit_mod.check_bir(mech)
            checks["BIC"] = bic.to_json()
            checks["BIR"] = bir.to_json()
            lines.append(f"BIC: {'ok' if bic.passed else 'FAILED'}")
            lines.append(f"BIR: {'ok' if bir.passed else 'FAILED'}")
            suite_ok = suite_ok and bic.passed and bir.passed
        revenue = audit_mod.expected_revenue(mech)
        rev_ok = revenue == target
        checks["revenue"] = {
            "expected_revenue": rat_str(revenue),
            target_name: rat_str(target),
            "equal": rev_ok,
        }
        lines.append(
            f"revenue {rat_str(revenue)} == {target_name} {rat_str(target)}: "
            f"{'ok' if rev_ok else 'FAILED'}"
        )
        suite_ok = suite_ok and rev_ok
        if args.impl == "bic":
            dic = audit_mod.check_dic(mech)
            checks["DIC_informational"] = dic.to_json()
            if dic.passed:
                lines.append("DIC (informational): ok")
            else:
                lines.append(
                    "DIC (informational): violated at " + _witness_line(dic)
                )
        if not suite_ok:
            status = EXIT_AUDIT

    if args.format == "json":
        with _output(args.out) as fh:
            mechanism_to_json(mech, checks, fh)
            fh.write("\n")
    else:
        header = [f"mechanism: {mech.label} at n={spec.n} p={rat_str(spec.p)} "
                  f"a={rat_str(spec.a)} b={rat_str(spec.b)}"]
        _emit("\n".join(header + lines), args.out)
    return status


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _certify_line(report) -> str:
    spec = report.spec
    return (
        f"n={spec.n} p={rat_str(spec.p)} a={rat_str(spec.a)} b={rat_str(spec.b)} | "
        f"lp_D={rat_str(report.lp_dic)} r_D={rat_str(report.r_dic)} "
        f"{'ok' if report.equal_dic else 'MISMATCH'} | "
        f"lp_B={rat_str(report.lp_bic)} r_B={rat_str(report.r_bic)} "
        f"{'ok' if report.equal_bic else 'MISMATCH'}"
    )


def cmd_certify(args) -> int:
    if args.grid and args.lp_export:
        raise ValueError(
            "--lp-export writes the programs of one spec; it cannot be used with --grid")
    given = " ".join(f"--{k}" for k in ("n", "p", "a", "b") if getattr(args, k) is not None)
    if args.grid and given:
        raise ValueError(f"--grid certifies the built-in specs; it cannot be used with {given}")
    if args.grid:
        reports = certify_specs(certification_grid())
    else:
        missing = [f"--{name}" for name in ("n", "p", "a", "b")
                   if getattr(args, name) is None]
        if missing:
            raise ValueError(f"certify needs --grid or a full spec; missing {' '.join(missing)}")
        spec = _parse_spec(args)
        if args.lp_export:
            for regime, title in (("dic", "dominant-strategy program"),
                                  ("bic", "bayesian program")):
                _emit(lp_to_text(build_auction_lp(spec.n, spec.dist, regime), title),
                      f"{args.lp_export}.{regime}.lp", end="")
        reports = [certify_main_theorem(spec)]
    if args.format == "json":
        _emit(json.dumps([r.to_json() for r in reports], indent=2), args.out)
    else:
        lines = [_certify_line(r) for r in reports]
        ok = sum(1 for r in reports if r.all_equal)
        lines.append(f"certified {ok}/{len(reports)} specs")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if all(r.all_equal for r in reports) else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SWEEP_HEADER = [
    "b_num", "b_den", "b_dec",
    "rD_num", "rD_den", "rD_dec",
    "rB_num", "rB_den", "rB_dec",
    "srev_num", "srev_den", "srev_dec",
    "alpha", "beta", "gamma", "is_breakpoint",
]


def cmd_sweep(args) -> int:
    rows = sweep_high_value(
        args.n, _rat(args, args.p, "--p"), _rat(args, args.a, "--a"),
        _rat(args, args.b_min, "--b-min"), _rat(args, args.b_max, "--b-max"),
        args.steps,
    )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for row in rows:
        writer.writerow(
            _frac_cells(row.b)
            + _frac_cells(row.r_dic)
            + _frac_cells(row.r_bic)
            + _frac_cells(row.srev)
            + [row.flags.alpha, row.flags.beta, row.flags.gamma,
               int(row.is_breakpoint)]
        )
    _emit(buf.getvalue(), args.out, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# continuous
# ---------------------------------------------------------------------------

CONTINUOUS_HEADER = [
    "a", "grid_m", "impl",
    "optimum_num", "optimum_den", "optimum_decimal",
    "ratio_to_a", "within_band",
]


def cmd_continuous(args) -> int:
    a_values = [_rat(args, x, "--a-list") for x in args.a_list.split(",")]
    lam = _rat(args, args.lam, "--lambda")
    impls = ("dic", "bic") if args.impl == "both" else (args.impl,)
    rows = corollary_probe(a_values, args.grid_m, lam=lam, impls=impls)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CONTINUOUS_HEADER)
    for row in rows:
        opt = row.optimum
        writer.writerow(
            [rat_str(row.a), row.grid_m, row.impl,
             *rat_str(opt).split("/"), decimal_str(opt),
             decimal_str(row.ratio), "" if row.within_band is None else int(row.within_band)]
        )
    _emit(buf.getvalue(), args.out, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process; every `main` call
    parses with it."""
    parser = _Parser(prog="twopoint-auctions")
    parser.add_argument(
        "--allow-decimal", action="store_true",
        help="accept decimal strings for rational arguments (parsed exactly)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_formulas = sub.add_parser("formulas", help="closed-form revenues and benchmarks")
    _spec_args(p_formulas)
    p_formulas.add_argument("--format", choices=("text", "json"), default="text")
    p_formulas.add_argument("--out")
    p_formulas.set_defaults(func=cmd_formulas)

    p_mech = sub.add_parser("mechanism", help="export an optimal mechanism's tables")
    _spec_args(p_mech)
    p_mech.add_argument("--impl", choices=("dic", "bic"), required=True)
    p_mech.add_argument("--check", action="store_true",
                        help="run the matching audit suite and revenue assertion")
    p_mech.add_argument("--format", choices=("json", "text"), default="json")
    p_mech.add_argument("--out")
    p_mech.set_defaults(func=cmd_mechanism)

    p_cert = sub.add_parser("certify", help="LP-oracle certification of the formulas")
    p_cert.add_argument("--n", type=int)
    p_cert.add_argument("--p")
    p_cert.add_argument("--a")
    p_cert.add_argument("--b")
    p_cert.add_argument("--grid", action="store_true", help="run the built-in grid")
    p_cert.add_argument(
        "--lp-export",
        help="path prefix: write the spec's certified programs as PREFIX.dic.lp and "
             "PREFIX.bic.lp (not with --grid)",
    )
    p_cert.add_argument("--format", choices=("text", "json"), default="text")
    p_cert.add_argument("--out")
    p_cert.set_defaults(func=cmd_certify)

    p_sweep = sub.add_parser("sweep", help="revenue curves against the high value b")
    p_sweep.add_argument("--n", type=int, required=True)
    p_sweep.add_argument("--p", required=True)
    p_sweep.add_argument("--a", required=True)
    p_sweep.add_argument("--b-min", required=True)
    p_sweep.add_argument("--b-max", required=True)
    p_sweep.add_argument("--steps", type=int, default=60)
    p_sweep.add_argument("--out")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cont = sub.add_parser("continuous",
                            help="discretized two-interval uniform exploration")
    p_cont.add_argument("--a-list", required=True,
                        help="comma-separated scales, e.g. 10,20,40")
    p_cont.add_argument("--lambda", dest="lam", default="2")
    p_cont.add_argument("--grid-m", type=int, default=1)
    p_cont.add_argument("--impl", choices=("dic", "bic", "both"), default="both")
    p_cont.add_argument("--out")
    p_cont.set_defaults(func=cmd_continuous)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.out:
            # An unwritable --out fails here, before any work starts.
            open(args.out, "a").close()
        return args.func(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_USAGE
        return code
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InvalidSpec, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except WorkerLost as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WORKER_LOST
    except RuntimeError as exc:  # simplex.SimplexError included
        detail = str(exc).removeprefix("certificate failure: ")
        print(f"error: certificate failure: {detail}", file=sys.stderr)
        return EXIT_CERTIFICATE


def run() -> int:
    """The process entry (`python -m twopoint_auctions` and the
    `twopoint-auctions` script): `main`, after which a stdout that failed a
    write is pointed at the null device.  A failed flush keeps its data in
    the buffer, and the interpreter flushes it once more at exit, which
    would print a second error and exit 120.  `main` itself leaves the
    streams alone, since in-process callers may give it a stdout without a
    file descriptor.  A closed stdout (`>&-`) is None and left alone."""
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(run())
