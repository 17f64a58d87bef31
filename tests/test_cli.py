import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twopoint_auctions
from twopoint_auctions import continuous, formulas
from twopoint_auctions.cli import main
from twopoint_auctions.simplex import solve

from helpers import make_lp

EXAMPLE_ARGS = ["--n", "2", "--p", "1/2", "--a", "1", "--b", "2"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_lp_text(text):
    """The exact program of `simplex.lp_to_text` output, read from its
    comment lines (objective, then one per row) and its variables, each
    bounded below by zero."""
    lines = text.splitlines()
    exact = [line.removeprefix("\\ exact: ") for line in lines if line.startswith("\\ exact: ")]

    def terms(body):
        return {name: F(c) for c, name in (term.split(" ") for term in body.split(" + "))}

    rows = [(terms(body), rel, F(rhs)) for body, rel, rhs in (r.rsplit(" ", 2) for r in exact[1:])]
    bounds = [line.split() for line in lines[lines.index("Bounds") + 1:lines.index("End")]]
    assert all(b[1:] == [">=", "0"] for b in bounds)
    return make_lp([b[0] for b in bounds], terms(exact[0]), rows)


class TestFormulas:
    def test_example_text(self, capsys):
        code, out, _ = run(capsys, "formulas", *EXAMPLE_ARGS)
        assert code == 0
        assert "r_D          = 25/8 (3.125)" in out
        assert "r_B          = 51/16 (3.1875)" in out
        assert "grand bundle = 45/16" in out
        assert "v3=3/1" in out

    def test_boundary_collapse(self, capsys):
        code, out, _ = run(capsys, "formulas", "--n", "2", "--p", "1/2",
                           "--a", "1", "--b", "3")
        assert code == 0
        assert "r_D          = 9/2" in out
        assert "r_B          = 9/2" in out
        assert "SREV         = 9/2" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "formulas", *EXAMPLE_ARGS, "--format", "json")
        doc = json.loads(out)
        assert doc["r_D"] == "25/8"
        assert doc["breakpoints"]["v1"] == "5/3"

    def test_invalid_probability(self, capsys):
        code, out, err = run(capsys, "formulas", "--n", "2", "--p", "1",
                             "--a", "1", "--b", "2")
        assert code == 1
        assert "p must lie in (0,1)" in err

    def test_decimal_rejected_without_flag(self, capsys):
        code, _, err = run(capsys, "formulas", "--n", "2", "--p", "0.5",
                           "--a", "1", "--b", "2")
        assert code == 1
        assert "decimal" in err

    def test_decimal_accepted_with_flag(self, capsys):
        code, out, _ = run(capsys, "--allow-decimal", "formulas", "--n", "2",
                           "--p", "0.5", "--a", "1", "--b", "2")
        assert code == 0
        assert "25/8" in out

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1


class TestMechanism:
    def test_dic_check_passes(self, capsys):
        code, out, _ = run(capsys, "mechanism", *EXAMPLE_ARGS, "--impl", "dic",
                           "--check", "--format", "text")
        assert code == 0
        assert "IR: ok" in out
        assert "DIC: ok" in out
        assert "revenue 25/8 == r_D 25/8: ok" in out

    def test_bic_check_passes_with_witness(self, capsys):
        code, out, _ = run(capsys, "mechanism", *EXAMPLE_ARGS, "--impl", "bic",
                           "--check", "--format", "text")
        assert code == 0
        assert "BIC: ok" in out
        assert "BIR: ok" in out
        assert "revenue 51/16 == r_B 51/16: ok" in out
        assert "DIC (informational): violated at buyer 1 true (b,b) report (a,b)" in out

    def test_json_export_tables(self, capsys):
        code, out, _ = run(capsys, "mechanism", *EXAMPLE_ARGS, "--impl", "bic")
        doc = json.loads(out)
        assert doc["label"] == "bic-optimal"
        assert len(doc["profiles"]) == 16

    def test_identical_tables_above_v3(self, capsys):
        args = ["--n", "2", "--p", "1/2", "--a", "1", "--b", "4"]
        _, out_d, _ = run(capsys, "mechanism", *args, "--impl", "dic")
        _, out_b, _ = run(capsys, "mechanism", *args, "--impl", "bic")
        doc_d, doc_b = json.loads(out_d), json.loads(out_b)
        assert doc_d["profiles"] == doc_b["profiles"]
        assert doc_d["label"] != doc_b["label"]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "mech.json"
        code, out, _ = run(capsys, "mechanism", *EXAMPLE_ARGS, "--impl", "dic",
                           "--out", str(path))
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["label"] == "dic-optimal"

    @pytest.mark.parametrize("fmt,renders", [("text", 0), ("json", 1)])
    def test_json_rendered_only_when_printed(self, capsys, monkeypatch, fmt, renders):
        from twopoint_auctions import cli

        calls = []
        render = cli.mechanism_to_json

        def wrapper(*args, **kwargs):
            calls.append(args)
            return render(*args, **kwargs)

        monkeypatch.setattr(cli, "mechanism_to_json", wrapper)
        code, _, _ = run(capsys, "mechanism", *EXAMPLE_ARGS, "--impl", "bic",
                         "--check", "--format", fmt)
        assert code == 0
        assert len(calls) == renders


class TestCertify:
    def test_single_spec(self, capsys):
        code, out, _ = run(capsys, "certify", *EXAMPLE_ARGS)
        assert code == 0
        assert "lp_D=25/8 r_D=25/8 ok" in out
        assert "lp_B=51/16 r_B=51/16 ok" in out
        assert "certified 1/1 specs" in out

    def test_cap_error(self, capsys):
        # n = 35 has 33,744 type-count cells, over the cap of 2^15: refused
        # with one line before any class is enumerated.
        from twopoint_auctions import core, oracle

        for cached in (oracle._columns, core.profile_classes):
            cached.cache_clear()
        code, out, err = run(capsys, "certify", "--n", "35", "--p", "1/2",
                             "--a", "1", "--b", "2")
        assert (code, out) == (4, "")
        assert err == ("error: instance too large for exhaustive mode: 35 buyers of 4 types "
                       "give 33744 type-count cells, over the cap of 32768\n")
        assert oracle._columns.cache_info().misses == 0
        assert core.profile_classes.cache_info().misses == 0

    @pytest.mark.slow
    def test_n9_is_certified_end_to_end(self, capsys):
        # 4^9 profiles exceed the mechanism table cap, but nothing on the
        # certify path builds a table: its 880 cells are under the cell cap.
        code, out, err = run(capsys, "certify", "--n", "9", "--p", "1/2", "--a", "1",
                             "--b", "2")
        assert (code, err) == (0, "")
        assert "lp_D=1046537/262144 r_D=1046537/262144 ok" in out
        assert "lp_B=1047039/262144 r_B=1047039/262144 ok" in out

    def test_pass_path_walks_no_profile(self, capsys, monkeypatch):
        # Solving and certifying both programs, and a text-mode mechanism
        # check that passes, work over the type-count classes: none of them
        # builds the profile table or its per-position cell arrays.
        from twopoint_auctions import audit, core, mechanisms, oracle

        def refuse(*args, **kwargs):
            raise AssertionError("a walk over the profiles on the pass path")

        for module in (core, audit, mechanisms):
            monkeypatch.setattr(module, "profile_table", refuse)
        for cached in (oracle._columns, oracle._fixed_rows, oracle._candidates,
                       core.profile_classes, core.class_weights, core.opponent_cells):
            cached.cache_clear()
        dist = core.AuctionSpec(3, F(1, 2), 1, 2).dist
        for regime in ("dic", "bic"):
            oracle.solve_auction_lp(3, dist, regime)
        for impl, b in (("dic", "2"), ("bic", "4")):
            code, out, _ = run(capsys, "mechanism", "--n", "3", "--p", "1/2", "--a", "1",
                               "--b", b, "--impl", impl, "--check", "--format", "text")
            assert code == 0
            assert "FAILED" not in out and "violated" not in out

    def test_lp_export(self, capsys, tmp_path):
        prefix = str(tmp_path / "example")
        code, _, _ = run(capsys, "certify", *EXAMPLE_ARGS, "--lp-export", prefix)
        assert code == 0
        dic_text = (tmp_path / "example.dic.lp").read_text()
        assert "Maximize" in dic_text and "exact" in dic_text
        assert (tmp_path / "example.bic.lp").exists()

    def test_exported_programs_have_the_certified_optima(self, capsys, tmp_path):
        # Each exported program, read back from its exact comment lines and
        # solved cold with every row in place, has the optimum that the
        # certify line reports.
        prefix = str(tmp_path / "flagship")
        code, out, _ = run(capsys, "certify", *EXAMPLE_ARGS, "--lp-export", prefix)
        assert code == 0
        fields = dict(f.split("=") for f in out.split() if f.startswith("lp_"))
        assert fields == {"lp_D": "25/8", "lp_B": "51/16"}
        for regime, name in (("dic", "lp_D"), ("bic", "lp_B")):
            with open(f"{prefix}.{regime}.lp") as fh:
                lp = read_lp_text(fh.read())
            assert solve(lp).optimum == F(fields[name])

    def test_grid_with_lp_export_is_refused(self, capsys, tmp_path, monkeypatch):
        from twopoint_auctions import cli

        monkeypatch.setattr(cli, "certification_grid", lambda: pytest.fail("grid built"))
        code, out, err = run(capsys, "certify", "--grid", "--lp-export", str(tmp_path / "grid"))
        assert (code, out) == (1, "")
        assert err == ("error: --lp-export writes the programs of one spec; "
                       "it cannot be used with --grid\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flags,named", [
        (["--n", "2"], "--n"),
        (["--p", "1/2", "--b", "3"], "--p --b"),
        (["--a", "0"], "--a"),
        (EXAMPLE_ARGS, "--n --p --a --b"),
    ])
    def test_grid_with_a_spec_flag_is_refused(self, capsys, monkeypatch, flags, named):
        # --grid certifies every built-in spec, so a spec flag beside it
        # would be dropped: it is refused before any solve.
        from twopoint_auctions import cli

        monkeypatch.setattr(cli, "certification_grid", lambda: pytest.fail("grid built"))
        code, out, err = run(capsys, "certify", "--grid", *flags)
        assert (code, out) == (1, "")
        assert err == ("error: --grid certifies the built-in specs; it cannot be used with "
                       f"{named}\n")

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "certify", *EXAMPLE_ARGS, "--format", "json")
        doc = json.loads(out)
        assert doc[0]["equal_D"] and doc[0]["equal_B"]

    def test_grid_mode(self, capsys, monkeypatch):
        from twopoint_auctions import cli
        from twopoint_auctions.core import AuctionSpec

        small = [AuctionSpec(2, F(1, 2), 1, 2), AuctionSpec(2, F(1, 2), 1, 4)]
        monkeypatch.setattr(cli, "certification_grid", lambda: small)
        code, out, _ = run(capsys, "certify", "--grid")
        assert code == 0
        assert "certified 2/2 specs" in out

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        from twopoint_auctions import cli, oracle

        def broken(spec):
            rep = oracle.certify_main_theorem(spec)
            return oracle.CertificationReport(
                spec=rep.spec, lp_dic=rep.lp_dic, r_dic=rep.r_dic + 1,
                equal_dic=False, lp_bic=rep.lp_bic, r_bic=rep.r_bic,
                equal_bic=rep.equal_bic,
            )

        monkeypatch.setattr(cli, "certify_main_theorem", broken)
        code, out, _ = run(capsys, "certify", *EXAMPLE_ARGS)
        assert code == 3
        assert "MISMATCH" in out


class TestAuditExitCode:
    def test_failed_check_maps_to_exit_two(self, capsys, monkeypatch):
        from twopoint_auctions import cli
        from twopoint_auctions.audit import AuditReport

        monkeypatch.setattr(
            cli.audit_mod, "check_ir",
            lambda mech: AuditReport("IR", False, (), 0),
        )
        code, out, _ = run(capsys, "mechanism", *EXAMPLE_ARGS, "--impl", "dic",
                           "--check", "--format", "text")
        assert code == 2
        assert "IR: FAILED" in out


class TestSweep:
    def test_csv_shape_and_values(self, capsys):
        code, out, _ = run(capsys, "sweep", "--n", "2", "--p", "1/2", "--a", "1",
                           "--b-min", "5/4", "--b-max", "4", "--steps", "12")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0]) == [
            "b_num", "b_den", "b_dec", "rD_num", "rD_den", "rD_dec",
            "rB_num", "rB_den", "rB_dec", "srev_num", "srev_den", "srev_dec",
            "alpha", "beta", "gamma", "is_breakpoint",
        ]
        marked = [r for r in rows if r["is_breakpoint"] == "1"]
        assert {r["b_num"] + "/" + r["b_den"] for r in marked} == {"5/3", "2/1", "3/1"}
        at2 = next(r for r in rows if (r["b_num"], r["b_den"]) == ("2", "1"))
        assert (at2["rD_num"], at2["rD_den"]) == ("25", "8")
        assert (at2["alpha"], at2["beta"], at2["gamma"]) == ("0", "1", "0")

    def test_affine_segment_slope(self, capsys):
        _, out, _ = run(capsys, "sweep", "--n", "2", "--p", "1/2", "--a", "1",
                        "--b-min", "2", "--b-max", "3", "--steps", "9")
        rows = list(csv.DictReader(io.StringIO(out)))
        pts = [
            (F(int(r["b_num"]), int(r["b_den"])), F(int(r["rD_num"]), int(r["rD_den"])))
            for r in rows
            if F(2) <= F(int(r["b_num"]), int(r["b_den"])) < F(3)
        ]
        slopes = {(y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2) in zip(pts, pts[1:])}
        assert slopes == {F(11, 8)}

    def test_range_below_a_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--n", "2", "--p", "1/2", "--a", "1",
                           "--b-min", "1/2", "--b-max", "4")
        assert code == 1
        assert "b range" in err

    def test_step_count_over_the_cap(self, capsys, monkeypatch):
        # Refused before the first grid point is made.
        made = []
        monkeypatch.setattr(formulas, "AuctionSpec", lambda *args: made.append(args))
        code, out, err = run(capsys, "sweep", "--n", "2", "--p", "1/2", "--a", "1",
                             "--b-min", "2", "--b-max", "3", "--steps", "100000000")
        assert (code, out, made) == (4, "", [])
        assert err.splitlines() == [
            "error: sweep of 100000000 steps exceeds the cap of 10000 steps"]

    def test_step_count_at_the_cap(self, capsys, monkeypatch):
        # The cap itself is allowed; a lower cap keeps the run short.
        monkeypatch.setattr(formulas, "MAX_SWEEP_STEPS", 5)
        argv = ["sweep", "--n", "2", "--p", "1/2", "--a", "1", "--b-min", "2", "--b-max", "3"]
        assert run(capsys, *argv, "--steps", "5")[0] == 0
        assert run(capsys, *argv, "--steps", "6")[0] == 4

    def test_byte_determinism(self, capsys):
        args = ("sweep", "--n", "2", "--p", "1/3", "--a", "1",
                "--b-min", "3/2", "--b-max", "3", "--steps", "7")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


@pytest.fixture
def default_digit_limit():
    """Python's default integer string limit, restored afterwards."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(before)


@pytest.mark.usefixtures("default_digit_limit")
class TestDigitLimit:
    """Output past Python's integer string limit exits 4 with one error
    line, refused before any revenue is computed when SREV is sure to pass
    it."""

    RENDERED = "error: a result has more than 4300 digits, past Python's integer string limit\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_formulas_past_the_limit(self, capsys, fmt):
        # r_D's p^(2n) = 3^9200 has 4,390 digits.
        code, out, err = run(capsys, "formulas", "--n", "4600", "--p", "1/3", "--a", "1",
                             "--b", "2", "--format", fmt)
        assert (code, out, err) == (4, "", self.RENDERED)

    def test_sweep_past_the_limit(self, capsys):
        code, out, err = run(capsys, "sweep", "--n", "5000", "--p", "1/3", "--a", "1",
                             "--b-min", "2", "--b-max", "3", "--steps", "3")
        assert (code, out, err) == (4, "", self.RENDERED)

    @pytest.mark.parametrize("command", [
        ["formulas", "--b", "2"], ["sweep", "--b-min", "2", "--b-max", "3", "--steps", "3"]])
    def test_refused_before_the_formulas_run(self, capsys, monkeypatch, command):
        monkeypatch.setattr(formulas, "revenue_dic", lambda spec: pytest.fail("computed"))
        code, out, err = run(capsys, command[0], "--n", "10000000", "--p", "1/3", "--a", "1",
                             *command[1:])
        assert (code, out) == (4, "")
        assert err == ("error: the revenues at n=10000000 have more than 4300 digits, "
                       "past Python's integer string limit\n")

    @pytest.mark.parametrize("command", [
        ["formulas", "--b", "2"], ["sweep", "--b-min", "2", "--b-max", "3", "--steps", "3"]])
    def test_n_too_large_for_a_float(self, capsys, command):
        # A 401-digit n is past the largest float: it is refused without one.
        n = "1" + "0" * 400
        code, out, err = run(capsys, command[0], "--n", n, "--p", "1/3", "--a", "1",
                             *command[1:])
        assert (code, out) == (4, "")
        assert err == (f"error: the revenues at n={n} have more than 4300 digits, "
                       "past Python's integer string limit\n")

    @pytest.mark.parametrize("n,p", [(4000, "1/3"), (4600, "1/2")])
    def test_largest_printable_instances_print(self, capsys, n, p):
        code, out, _ = run(capsys, "formulas", "--n", str(n), "--p", p, "--a", "1", "--b", "2",
                           "--format", "json")
        assert code == 0
        assert F(json.loads(out)["r_D"]) == formulas.revenue_dic(
            twopoint_auctions.AuctionSpec(n, F(p), 1, 2))


class TestContinuous:
    def test_single_atom_cells(self, capsys):
        code, out, _ = run(capsys, "continuous", "--a-list", "10,20",
                           "--grid-m", "1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert list(rows[0]) == [
            "a", "grid_m", "impl", "optimum_num", "optimum_den",
            "optimum_decimal", "ratio_to_a", "within_band",
        ]
        assert len(rows) == 4  # 2 scales x 2 implementations
        by_key = {(r["a"], r["impl"]): r for r in rows}
        # collapsed instance: 25/8 * 10 + 15/16 = 515/16
        assert by_key[("10/1", "dic")]["optimum_num"] == "515"
        assert by_key[("10/1", "dic")]["optimum_den"] == "16"
        assert by_key[("10/1", "dic")]["within_band"] == "1"

    def test_single_impl(self, capsys):
        code, out, _ = run(capsys, "continuous", "--a-list", "10",
                           "--grid-m", "1", "--impl", "bic")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["impl"] for r in rows] == ["bic"]

    def test_single_impl_solves_only_its_program(self, capsys, monkeypatch):
        # The cells are one batch; it is small, so it is solved in process.
        from twopoint_auctions import oracle

        regimes = []
        solve = oracle.solve_auction_lp

        def recorded(n, dist, regime):
            regimes.append(regime)
            return solve(n, dist, regime)

        monkeypatch.setattr(oracle, "solve_auction_lp", recorded)
        code, out, _ = run(capsys, "continuous", "--a-list", "10,20",
                           "--grid-m", "1", "--impl", "dic")
        assert code == 0 and regimes == ["dic", "dic"]
        assert [r["impl"] for r in csv.DictReader(io.StringIO(out))] == ["dic", "dic"]

    def test_cap(self, capsys):
        code, _, err = run(capsys, "continuous", "--a-list", "10", "--grid-m", "9")
        assert code == 4
        assert "too large" in err


class TestFailClosed:
    """Bad input ends with one error line, never a traceback: exit 1, or
    exit 4 for an instance over a cap, before any work starts."""

    @pytest.mark.parametrize(
        "env,argv,named",
        [
            pytest.param({}, ["certify", *EXAMPLE_ARGS, "--cap", "256"],
                         "unrecognized arguments: --cap 256", id="cap-flag-removed"),
            pytest.param({}, ["formulas", "--n", "2", "--p", "1/2", "--a", "1", "--b", "1/0"],
                         "--b", id="zero-denominator"),
            pytest.param({}, ["formulas", *EXAMPLE_ARGS, "--out", "{missing}/out.txt"],
                         "out.txt", id="unwritable-out"),
            pytest.param({}, ["certify", "--p", "1/2"], "--n", id="incomplete-certify-spec"),
            pytest.param({}, ["formulas", "--n", "2", "--p", "x", "--a", "1", "--b", "2"],
                         "--p", id="non-rational-literal"),
            pytest.param({}, ["continuous", "--a-list", ""], "--a-list", id="empty-a-list"),
            pytest.param({}, ["continuous", "--a-list", "10,,20"], "--a-list",
                         id="empty-a-list-entry"),
            pytest.param({}, ["continuous", "--a-list", "10", "--lambda", "1"], "lam",
                         id="lambda-not-above-one"),
            pytest.param({}, ["--allow-decimal", "formulas", "--n", "2", "--p", "1/2",
                              "--a", "1", "--b", "1e9999999"],
                         "--b", id="decimal-exponent-too-large"),
        ],
    )
    def test_exit_one_with_one_error_line(self, tmp_path, env, argv, named):
        argv = [x.format(missing=tmp_path / "missing") for x in argv]
        src = os.path.dirname(os.path.dirname(twopoint_auctions.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "twopoint_auctions", *argv],
            env={**os.environ, **env, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert len(errors) == 1 and named in errors[0]

    def test_unwritable_out_fails_before_the_work(self, capsys, monkeypatch, tmp_path):
        from twopoint_auctions import cli

        calls = []

        def builder(spec):
            calls.append(spec)
            raise RuntimeError("the mechanism was built")

        monkeypatch.setattr(cli, "build_bic_mechanism", builder)
        code, _, err = run(capsys, "mechanism", "--n", "6", "--p", "1/2", "--a", "1",
                           "--b", "5/2", "--impl", "bic", "--check",
                           "--out", str(tmp_path / "missing" / "m.json"))
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 1
        assert len(errors) == 1 and errors[0].startswith("error: cannot write ")
        assert calls == []

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_failed_write_names_its_target(self, capsys, monkeypatch, tmp_path, to_file):
        # The write itself fails, after the open: the OSError carries no
        # file name, and the message names the --out path or <stdout>.
        import errno
        from twopoint_auctions import cli

        def full_disk(*args):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(cli, "mechanism_to_json", full_disk)
        out = tmp_path / "m.json"
        code, _, err = run(capsys, "mechanism", *EXAMPLE_ARGS, "--impl", "dic",
                           *(["--out", str(out)] if to_file else []))
        target = out if to_file else "<stdout>"
        assert code == 1
        assert err == f"error: cannot write {target}: {os.strerror(errno.ENOSPC)}\n"


    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("argv", [
        ["formulas", *EXAMPLE_ARGS],
        ["mechanism", *EXAMPLE_ARGS, "--impl", "dic", "--format", "text"],
    ], ids=["formulas", "mechanism-text"])
    def test_full_stdout_exits_one_with_one_line(self, argv):
        # With stdout buffered, the failed flush keeps its data, and the
        # interpreter's own flush at exit must not fail a second time.
        src = os.path.dirname(os.path.dirname(twopoint_auctions.__file__))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "twopoint_auctions", *argv],
                env={**env, "PYTHONPATH": src}, stdout=full, stderr=subprocess.PIPE,
                text=True, timeout=120,
            )
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: cannot write <stdout>: ")

    def test_cap_variable_is_ignored(self, capsys, monkeypatch):
        # The parser is built once per process, and the environment sets no
        # cap: TWOPOINT_AUCTIONS_CAP, bad or small, changes nothing.
        from twopoint_auctions import cli

        assert cli.build_parser() is cli.build_parser()
        monkeypatch.delenv("TWOPOINT_AUCTIONS_CAP", raising=False)
        certified = run(capsys, "certify", *EXAMPLE_ARGS)
        assert certified[0] == 0
        for value in ("abc", "-3", "15"):
            monkeypatch.setenv("TWOPOINT_AUCTIONS_CAP", value)
            assert run(capsys, "formulas", *EXAMPLE_ARGS)[0] == 0
            assert run(capsys, "certify", *EXAMPLE_ARGS) == certified

    @pytest.mark.parametrize("n", ["9", "10"])
    def test_mechanism_over_the_table_cap_exits_four_unbuilt(self, capsys, monkeypatch, n):
        from twopoint_auctions import cli

        calls = []

        def builder(spec):
            calls.append(spec)
            raise RuntimeError("the mechanism was built")

        monkeypatch.setattr(cli, "build_dic_mechanism", builder)
        monkeypatch.setattr(cli, "build_bic_mechanism", builder)
        code, out, err = run(capsys, "mechanism", "--n", n, "--p", "1/2", "--a", "1",
                             "--b", "5/2", "--impl", "bic", "--check")
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 4 and out == ""
        assert len(errors) == 1
        assert errors[0].startswith("error: instance too large for exhaustive mode")
        assert calls == []

    @pytest.mark.parametrize("argv,line", [
        (["mechanism", "--n", "9", "--p", "1/2", "--a", "1", "--b", "5/4", "--impl", "bic",
          "--check", "--format", "text"],
         "4^9 = 262144 profiles exceeds the cap of 65536"),
        (["certify", "--n", "35", "--p", "1/2", "--a", "1", "--b", "2"],
         "35 buyers of 4 types give 33744 type-count cells, over the cap of 32768"),
        (["continuous", "--a-list", "10", "--grid-m", "4", "--impl", "bic"],
         "2 buyers of 64 types give 133120 type-count cells, over the cap of 32768"),
    ], ids=["mechanism-n9", "certify-n35", "continuous-m4"])
    def test_cap_lines(self, capsys, argv, line):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (4, "", f"error: instance too large for exhaustive mode: {line}\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_mechanism_count_past_the_digit_limit(self, capsys, fmt):
        # 4^1000000 has 602,060 digits: the message names the power alone.
        code, out, err = run(capsys, "mechanism", "--n", "1000000", "--p", "1/2", "--a", "1",
                             "--b", "5/4", "--impl", "bic", "--check", "--format", fmt)
        assert (code, out) == (4, "")
        assert err == ("error: instance too large for exhaustive mode: 4^1000000 profiles "
                       "exceeds the cap of 65536\n")

    def test_mechanism_count_never_computed(self):
        # 4^(10^20) could not be computed at all: a subprocess bounds the wait.
        src = os.path.dirname(os.path.dirname(twopoint_auctions.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "twopoint_auctions", "mechanism", "--n", "1" + "0" * 20,
             "--p", "1/2", "--a", "1", "--b", "5/4", "--impl", "bic", "--check",
             "--format", "text"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=20,
        )
        assert (proc.returncode, proc.stdout) == (4, "")
        assert proc.stderr == ("error: instance too large for exhaustive mode: "
                               f"4^1{'0' * 20} profiles exceeds the cap of 65536\n")

    @pytest.mark.parametrize("argv", [
        # a 1,501-digit n gives a cell count of over 4,300 digits
        ["certify", "--n", "1" + "0" * 1500, "--p", "1/2", "--a", "1", "--b", "2"],
        # a 2,201-digit grid_m gives a type count of over 4,300 digits
        ["continuous", "--a-list", "10", "--grid-m", "1" + "0" * 2200, "--impl", "bic"],
    ], ids=["certify-n", "continuous-grid-m"])
    def test_cells_past_the_digit_limit(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == (f"error: instance too large for exhaustive mode: at least "
                       f"10^{sys.get_int_max_str_digits()} type-count cells, "
                       "over the cap of 32768\n")

    def test_continuous_refused_before_discretizing(self, capsys, monkeypatch):
        # 2 * 10^6 atoms give 4 * 10^12 types; the cap refuses them before
        # one atom is made or one type listed.
        def discretize(cspec):
            raise RuntimeError("discretized")

        monkeypatch.setattr(continuous, "discretize", discretize)
        code, out, err = run(capsys, "continuous", "--a-list", "10", "--grid-m", "1000000",
                             "--impl", "bic")
        assert (code, out) == (4, "")
        assert err == ("error: instance too large for exhaustive mode: 2 buyers of "
                       "4000000000000 types give 32000000000008000000000000000000000000 "
                       "type-count cells, over the cap of 32768\n")


class TestCertificateFailure:
    def test_exit_five_with_one_error_line(self, capsys, monkeypatch):
        # A builder that drops the seeded truthfulness rows and the
        # separator yields a mechanism the DIC audit refuses: a defect in
        # the program, reported as such.
        from twopoint_auctions import oracle

        build = oracle._seeded_program

        def without_dic_rows(*args, **kwargs):
            lp, _ = build(*args, **kwargs)
            lp.constraints = [c for c in lp.constraints if not c.tag.startswith("dic")]
            return lp, None

        monkeypatch.setattr(oracle, "_seeded_program", without_dic_rows)
        code, out, err = run(capsys, "certify", *EXAMPLE_ARGS)
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert code == 5
        assert errors == ["error: certificate failure: DIC fails (18 violations)"]
        assert "Traceback" not in err and out == ""


# The argv fuzz grammar: per flag, a pool of good values and a pool of bad
# ones (OMIT leaves the flag out).  Each run corrupts a few flags and draws
# the rest from the good pools, so valid runs are common too.  Buyer counts
# stay at 3 or below and grid sizes at 1 or below so every run is cheap;
# --grid, --out and --lp-export are never drawn.
OMIT = None
BAD = ["x", "", "1/0", "-1", "0", "1.5", "1e5", OMIT]
N = (["2", "3"], ["1", "0", "-1", "x", "", "1.5", "1e5", OMIT])
P = (["1/4", "1/2", "2/3"], BAD)
A = (["0", "1"], BAD)
B = (["3/2", "2", "5/2", "4"], BAD)
FORMAT = (["text", "json"], ["x", OMIT])
FUZZ_FLAGS = {
    "formulas": {"--n": N, "--p": P, "--a": A, "--b": B, "--format": FORMAT},
    "mechanism": {"--n": N, "--p": P, "--a": A, "--b": B,
                  "--impl": (["dic", "bic"], ["x", OMIT]),
                  "--check": ([True, False], [True]), "--format": FORMAT},
    "certify": {"--n": N, "--p": P, "--a": A, "--b": B, "--format": FORMAT},
    "sweep": {"--n": N, "--p": P, "--a": A, "--b-min": (["3/2"], BAD),
              "--b-max": (["4"], BAD), "--steps": (["2", "5", OMIT], ["1", "0", "-1", "x"])},
    "continuous": {"--a-list": (["10", "10,20"], ["10,,20", *BAD]),
                   "--lambda": (["2", "3", OMIT], ["1", *BAD]),
                   "--grid-m": (["1", OMIT], ["0", "-1", "x", ""]),
                   "--impl": (["dic", "bic", "both", OMIT], ["x"])},
}


@st.composite
def fuzz_argv(draw):
    argv = ["--allow-decimal"] if draw(st.booleans()) else []
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv.append(command)
    flags = FUZZ_FLAGS[command]
    corrupt = draw(st.sets(st.sampled_from(sorted(flags)), max_size=2))
    for flag, (good, bad) in flags.items():
        value = draw(st.sampled_from(bad if flag in corrupt else good))
        if value is True:
            argv.append(flag)
        elif isinstance(value, str):
            argv += [flag, value]
    return argv


class TestArgvFuzz:
    @given(fuzz_argv())
    @settings(max_examples=100, deadline=None)
    def test_exit_code_and_one_error_line(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in range(5)
        assert sum(line.startswith("error:") for line in err.getvalue().splitlines()) <= 1


FLAGSHIP_MECHANISMS = {
    f"mechanism-{impl}-n{n}-b{b.replace('/', '_')}-{fmt}": [
        "mechanism", "--n", n, "--p", "1/2", "--a", "1", "--b", b,
        "--impl", impl, "--check", "--format", fmt,
    ]
    # one b in each of the intervals (1,v1), [v1,v2), [v2,v3), [v3,oo)
    for n in ("2", "3") for impl in ("dic", "bic")
    for b in ("3/2", "7/4", "5/2", "4") for fmt in ("text", "json")
}
MECHANISM_P2_3 = [
    "mechanism", "--n", "3", "--p", "2/3", "--a", "3/2", "--b", "5/2",
    "--impl", "bic", "--check", "--format", "json",
]
GOLDEN_ARGV = {
    "formulas-text": ["formulas", *EXAMPLE_ARGS],
    "formulas-json": ["formulas", *EXAMPLE_ARGS, "--format", "json"],
    "certify-text": ["certify", *EXAMPLE_ARGS],
    "certify-json": ["certify", *EXAMPLE_ARGS, "--format", "json"],
    "sweep": ["sweep", "--n", "2", "--p", "1/2", "--a", "1", "--b-min", "101/100",
              "--b-max", "4"],
    **FLAGSHIP_MECHANISMS,
    # n=4 pins the table and audit arithmetic above the flagship sizes
    **{f"mechanism-{impl}-n4-b7_4-json": [
        "mechanism", "--n", "4", "--p", "1/2", "--a", "1", "--b", "7/4",
        "--impl", impl, "--check", "--format", "json",
    ] for impl in ("dic", "bic")},
    # no --check, so the document has no "checks" key
    "mechanism-dic-n3-b7_4-json-unchecked": [
        "mechanism", "--n", "3", "--p", "1/2", "--a", "1", "--b", "7/4",
        "--impl", "dic", "--format", "json",
    ],
    # probabilities and payments that are not dyadic
    "mechanism-bic-n3-p2_3-a3_2-b5_2-json": MECHANISM_P2_3,
    # the case-3 bundle (v2 = 2 <= b < v3 = 3) above the flagship sizes
    "mechanism-dic-n5-b5_2-json": [
        "mechanism", "--n", "5", "--p", "1/2", "--a", "1", "--b", "5/2",
        "--impl", "dic", "--check", "--format", "json",
    ],
    # every column of the continuous CSV, both regimes at two scales
    "continuous": ["continuous", "--a-list", "10,20", "--grid-m", "1", "--impl", "both"],
    # the case-1 widest hierarchy and the BIC raise (b < v1 = 13/5)
    "mechanism-bic-n5-p2_3-b11_10-json": [
        "mechanism", "--n", "5", "--p", "2/3", "--a", "1", "--b", "11/10",
        "--impl", "bic", "--check", "--format", "json",
    ],
}
# (exit code, sha256 of stdout or of the exported file)
GOLDEN = {
    "formulas-text": (0, "d4056d98c9476dd3fa9d57248fb1270120374e66dab65cb344dfea0cdf7909b0"),
    "formulas-json": (0, "e4bc240a1829218006507c1a27774d3b5ca0c95bf29dfe5bcc8d297b66985727"),
    "certify-text": (0, "25309e435e319722c1c407798393424944a4312d9de9835f8d1ab57032c02c15"),
    "certify-json": (0, "a293bffa196b81f8f2f0426e4a2849f28d482c66a6bb35980d475e9f93fff7e6"),
    "sweep": (0, "51e0965a0e1d29035aca05abaf75c596c4af37d9c9bcc65dd955579cbe2b9468"),
    "mechanism-dic-n2-b3_2-text": (0, "581dd2a172a022458bd1748952001ac44a0665764d2c0ca72dea56859518632f"),
    "mechanism-dic-n2-b3_2-json": (0, "821dd824db6aa3044e3c0962baada366f85ac795dce3c0a2a70aa082d72af01f"),
    "mechanism-dic-n2-b7_4-text": (0, "3a109fbf8fc06b73f88c77baa633524d34f0b1860384a68b4b09d62afa574018"),
    "mechanism-dic-n2-b7_4-json": (0, "ee956521a18949987ad52a0241ee82af66a050dbdfd9edabf2c47ad2f2a332f9"),
    "mechanism-dic-n2-b5_2-text": (0, "8c03d0ee98888d41fcb96496839fed4523ef9a53d8ee85ff42bb99cc46037245"),
    "mechanism-dic-n2-b5_2-json": (0, "36e6652000870afdf94d779fa85bf97931741fa5bb79c1e65dcd479eed905a86"),
    "mechanism-dic-n2-b4-text": (0, "8488c91c88140de9f48e3caa9b7b8dd352435d0a87668a1d1f89b03663419a64"),
    "mechanism-dic-n2-b4-json": (0, "5922e3c9eed238fcaddb19e6a24b26f483606c4f182819940fdddbbb8edbf8c2"),
    "mechanism-bic-n2-b3_2-text": (0, "976e88a01dfb5f40414d851992cd64c70bc4859363fcff7214f136b68e863397"),
    "mechanism-bic-n2-b3_2-json": (0, "64de0c1d149acde2c98f883c53e8a5aee943e8e9cdbd4be2a12c8a0f0b2d7e37"),
    "mechanism-bic-n2-b7_4-text": (0, "3214204073fddf3efc1f19cc83c603e8d845dfcbf4ac6332b129a5d63e518fb0"),
    "mechanism-bic-n2-b7_4-json": (0, "978e0a3cb0cf83ecaffa6c276bb0500bd9f4e9f32233418fcecdc6f38dffb187"),
    "mechanism-bic-n2-b5_2-text": (0, "5b7add874c1d4ed6217006d3dd19e109f6b19d74a6eca984784be25ed26d0f11"),
    "mechanism-bic-n2-b5_2-json": (0, "39c71c8ebcdf0c3d0c09a45853818426b2e8dabe6ca013b42ea0cbb75b8814f7"),
    "mechanism-bic-n2-b4-text": (0, "566ff85680bbe3a1588688ec1e6b85963b63aa09650fd2b4139949e0da415e60"),
    "mechanism-bic-n2-b4-json": (0, "36ea4f71a7e5fe4a24323badbee7ae569184836f06bd2d0c91ebe83f19d742b5"),
    "mechanism-dic-n3-b3_2-text": (0, "3fbee741a01fc054804cda3411172ccbe42c009407112b1b932096a5b4251430"),
    "mechanism-dic-n3-b3_2-json": (0, "f82a3c0241f721c7da2d2f574c3d5758fb112516356386e927d327db441263be"),
    "mechanism-dic-n3-b7_4-text": (0, "9e17875e5ee467f8022f4f7bd9c1f67d3eb7ac85a553607d3e10ed5f9d91773d"),
    "mechanism-dic-n3-b7_4-json": (0, "ef89c26d784e20553a1448e761f188e5c63f48ab4698261a4903a29330e3c352"),
    "mechanism-dic-n3-b5_2-text": (0, "41b34b0d84ade3e5e7653b2cac7b779d193aaabe264e7bf25a3d86a98341a9ee"),
    "mechanism-dic-n3-b5_2-json": (0, "3aab1c93e14af72602aaa29539e611749796302f9c4d1c66d67007a7ed8514de"),
    "mechanism-dic-n3-b4-text": (0, "38aff2b7175eac7468cdcf293a3dec46e11d27d8ad52642d267cdf6ae6dbe1b1"),
    "mechanism-dic-n3-b4-json": (0, "f40c20e66b6202d994ecdeae774ed70335668b9c87c7f00d1670112ab8552587"),
    "mechanism-bic-n3-b3_2-text": (0, "bfed7d17385ef132c4b9dece200152448e03c1f9d0230159f8dcb6b6f50ed01a"),
    "mechanism-bic-n3-b3_2-json": (0, "ca3f94e80d2cffcabc0fcf39339cf96a2ea53078da5bf4060e90f554b1da7d6f"),
    "mechanism-bic-n3-b7_4-text": (0, "6d87157e02794d266a3da0c2b085cb4f376812782d0118cba4851e192a5e7f19"),
    "mechanism-bic-n3-b7_4-json": (0, "0857d437d1a3845215280fe4b9bab0dc34f31c4499475b326e43003a99acfdef"),
    "mechanism-bic-n3-b5_2-text": (0, "2e7a74fad9760d88a025b3164aac99f4b04243567ffbbc6b3cbc7fbea8e6ab06"),
    "mechanism-bic-n3-b5_2-json": (0, "f225f4fe184ae1a477e597bb29a4144819037482a36da2412c6debdc1b2bf19d"),
    "mechanism-bic-n3-b4-text": (0, "81088a61600ca8c6daa2eea474d47fa8507ae3ecf91cbbec4534dc0689069481"),
    "mechanism-bic-n3-b4-json": (0, "be884b02a3546bff949270b666e8c5564d94092e8b465adec69fa8006764fe49"),
    "mechanism-dic-n4-b7_4-json": (0, "8e9fcd7d050b8d43899df093b1294d9b3b4f2d6bb6de1cbce0de934b53dc9526"),
    "mechanism-bic-n4-b7_4-json": (0, "5d5db29750f462c139e12a8edbaf69a864022a64392be8a0f425978199f89d1f"),
    "mechanism-dic-n3-b7_4-json-unchecked": (0, "09d26fbfad123541976b0ebf468ca20b02eea89d54379f51cdc711fce06224b2"),
    "mechanism-bic-n3-p2_3-a3_2-b5_2-json": (0, "604dff48975b37137f442015fc04d45d1a5eac005ba96dd446b8bd228c373a8f"),
    "mechanism-dic-n5-b5_2-json": (0, "82e6e1b8ea820b3e852ab5c0000bd0cf3bebd03113c7f547a6d2e4571a872db9"),
    "mechanism-bic-n5-p2_3-b11_10-json": (0, "3c0fc86144835393f10a073ccd26ba51ce389b0dcb66c436b74d76185262981a"),
    "mechanism-out-file": (0, "604dff48975b37137f442015fc04d45d1a5eac005ba96dd446b8bd228c373a8f"),
    "continuous": (0, "97be9d84d89b298d77dd2d65441f842437151685d0dfedcb6a574f1caa939621"),
    "lp-export-dic": (0, "2768d6fc42c2876ed940a6592f4dd3cf27d0b3da3722dd1e64c9e6e398b1f9eb"),
    "lp-export-bic": (0, "e43abfa57c17117b14a658f6c0fac947672af80a81b472d4f96b2e1ccc77a8ea"),
}

# sha256 of `mechanism --n 6 --p 1/2 --a 1 --b 11/6 --impl bic --check
# --format json`
LARGE_EXPORT_SHA256 = "b9a5223bce32c686f758d534427c3e5c9429f43e87e0a00ea1cb6c135ee5ef5a"


# sha256 of `certify --grid --format json`: the optima and closed forms of
# the 180 grid specs.
GRID_SHA256 = "f6cc79eb74c6f00314d696e0c2ef7e76f3d06bb72484dd6083c594bfd35aaa1a"


class TestByteGoldens:
    """Every byte of these outputs is pinned: the type encoding behind them
    may change, what the CLI prints may not."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_ARGV))
    def test_stdout(self, capsys, name):
        code, out, _ = run(capsys, *GOLDEN_ARGV[name])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[name]

    def test_large_export(self, capsys):
        # About 3 MB with 372 DIC_informational violations: pins the order
        # in which the audits list the violations of whole opponent classes.
        code, out, _ = run(capsys, "mechanism", "--n", "6", "--p", "1/2", "--a", "1",
                           "--b", "11/6", "--impl", "bic", "--check", "--format", "json")
        assert out.count('"reported_type": "') == 372
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, LARGE_EXPORT_SHA256)

    def test_grid(self, capsys):
        code, out, _ = run(capsys, "certify", "--grid", "--format", "json")
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, GRID_SHA256)

    def test_mechanism_out_file(self, capsys, tmp_path):
        path = tmp_path / "mech.json"
        code, out, _ = run(capsys, *MECHANISM_P2_3, "--out", str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert out == ""
        assert (code, digest) == GOLDEN["mechanism-out-file"]

    def test_lp_export(self, capsys, tmp_path):
        prefix = str(tmp_path / "flagship")
        code, _, _ = run(capsys, "certify", *EXAMPLE_ARGS, "--lp-export", prefix)
        for ext in ("dic", "bic"):
            with open(f"{prefix}.{ext}.lp", "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            assert (code, digest) == GOLDEN[f"lp-export-{ext}"]
