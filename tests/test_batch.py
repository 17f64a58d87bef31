"""`oracle.solve_auction_lps`: independent auction programs solved in
process or over forked workers, with the same solutions, the same output
bytes and the same failures either way."""

import os
import random
import re
import signal
import threading
from fractions import Fraction as F

import pytest

from twopoint_auctions import cli, oracle
from twopoint_auctions.continuous import ContinuousSpec, discretize
from twopoint_auctions.core import AuctionSpec, CapExceeded
from twopoint_auctions.simplex import SimplexError

DIST = AuctionSpec(2, F(1, 2), 1, 2).dist
N12 = ["certify", "--n", "12", "--p", "1/2", "--a", "1", "--b", "2"]
SMALL_JOBS = [(2, DIST, "dic"), (2, DIST, "bic"), (3, DIST, "dic"), (3, DIST, "bic")]


@pytest.fixture
def forks(monkeypatch):
    """Count the forks; the process may run on two CPUs."""
    made = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    yield made
    # Every child was reaped: the process has none left.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def in_process(monkeypatch):
    monkeypatch.setattr(oracle, "PARALLEL_CELLS", 10 ** 9)


def on_workers(monkeypatch):
    monkeypatch.setattr(oracle, "PARALLEL_CELLS", 0)


def both_ways(monkeypatch, forks, fn):
    """fn() in process and then over the workers, which fork once."""
    in_process(monkeypatch)
    alone = fn()
    assert forks == []
    on_workers(monkeypatch)
    spread = fn()
    assert len(forks) == 1
    return alone, spread


def run_cli(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def failing(*failures, exit_in_child=None):
    """solve_auction_lp, but job (n, regime) raises failures[(n, regime)],
    and exit_in_child(n, regime), if given, may end a forked child."""
    solve = oracle.solve_auction_lp
    parent = os.getpid()

    def wrapped(n, dist, regime):
        if exit_in_child and os.getpid() != parent:
            exit_in_child(n, regime)
        for (m, r), exc in failures:
            if (m, r) == (n, regime):
                raise exc
        return solve(n, dist, regime)

    return wrapped


class TestSameResults:
    def test_continuous_cell(self, monkeypatch, forks, capsys):
        dist = discretize(ContinuousSpec(2, 10, 2, 2))
        jobs = [(2, dist, "dic"), (2, dist, "bic")]
        alone, spread = both_ways(monkeypatch, forks, lambda: oracle.solve_auction_lps(jobs))
        assert spread == alone
        assert [s.variables for s in spread] == [s.variables for s in alone]
        assert [s.pivots for s in alone] == [348, 158]
        forks.clear()
        argv = ["continuous", "--a-list", "10", "--grid-m", "2", "--impl", "both"]
        alone, spread = both_ways(monkeypatch, forks, lambda: run_cli(capsys, argv))
        assert spread == alone and alone[0] == 0

    def test_certify_n12(self, monkeypatch, forks, capsys):
        alone, spread = both_ways(monkeypatch, forks, lambda: run_cli(capsys, N12))
        assert spread == alone and alone[0] == 0
        spec = AuctionSpec(12, F(1, 2), 1, 2)
        jobs = [(12, spec.dist, "dic"), (12, spec.dist, "bic")]
        on_workers(monkeypatch)
        assert oracle.solve_auction_lps(jobs) == [oracle.solve_auction_lp(*j) for j in jobs]

    def test_grid_slice(self, monkeypatch, forks, capsys):
        specs = oracle.certification_grid()[80:100]
        monkeypatch.setattr(cli, "certification_grid", lambda: specs)
        for fmt in ("text", "json"):
            alone, spread = both_ways(
                monkeypatch, forks, lambda: run_cli(capsys, ["certify", "--grid", "--format", fmt]))
            assert spread == alone and alone[0] == 0
            forks.clear()
        jobs = [(s.n, s.dist, r) for s in specs for r in ("dic", "bic")]
        alone, spread = both_ways(monkeypatch, forks, lambda: oracle.solve_auction_lps(jobs))
        assert spread == alone and len(spread) == 40

    def test_random_specs_off_the_grid(self, monkeypatch, forks):
        # 50 seeded specs: n <= 8, p = k/m with m <= 40, rational a < b.
        rng = random.Random(20261020)
        specs = []
        for _ in range(50):
            m = rng.randint(2, 40)
            a = F(rng.randint(0, 30), rng.randint(1, 12))
            b = a + F(rng.randint(1, 40), rng.randint(1, 12))
            specs.append(AuctionSpec(rng.randint(2, 8), F(rng.randint(1, m - 1), m), a, b))
        assert not set(specs) & set(oracle.certification_grid())
        alone, spread = both_ways(monkeypatch, forks, lambda: oracle.certify_specs(specs))
        assert spread == alone
        assert all(r.all_equal for r in spread)

    def test_three_workers(self, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        on_workers(monkeypatch)
        assert oracle.solve_auction_lps(SMALL_JOBS) == [
            oracle.solve_auction_lp(*job) for job in SMALL_JOBS]
        assert len(forks) == 2


class TestInProcess:
    """Where a batch is solved in process: no fork is made."""

    def test_small_batch(self, forks):
        # Below PARALLEL_CELLS: the n = 3 pair has 160 cells.
        oracle.certify_main_theorem(AuctionSpec(3, F(1, 2), 1, 2))
        assert forks == []

    def test_one_cpu(self, monkeypatch, forks):
        on_workers(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        oracle.solve_auction_lps(SMALL_JOBS)
        assert forks == []

    def test_one_job(self, monkeypatch, forks):
        on_workers(monkeypatch)
        oracle.solve_auction_lps(SMALL_JOBS[:1])
        assert forks == []

    def test_another_thread(self, monkeypatch, forks):
        on_workers(monkeypatch)
        done = threading.Event()
        thread = threading.Thread(target=done.wait)
        thread.start()
        try:
            oracle.solve_auction_lps(SMALL_JOBS)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []

    def test_no_fork(self, monkeypatch):
        on_workers(monkeypatch)
        monkeypatch.delattr(os, "fork")
        expected = [oracle.solve_auction_lp(*job) for job in SMALL_JOBS]
        assert oracle.solve_auction_lps(SMALL_JOBS) == expected

    @pytest.mark.parametrize("job,error", [
        ((35, DIST, "dic"), CapExceeded),
        ((2, DIST, "both"), ValueError),
    ])
    def test_bad_job_refused_before_any_work(self, monkeypatch, forks, job, error):
        on_workers(monkeypatch)
        monkeypatch.setattr(oracle, "solve_auction_lp", lambda *a: pytest.fail("solved"))
        with pytest.raises(error):
            oracle.solve_auction_lps([*SMALL_JOBS, job])
        assert forks == []


class TestFailures:
    """A failure in either process is raised as the sequential run raises
    it, and no child is left behind (the `forks` fixture checks)."""

    @pytest.mark.parametrize("exc,line", [
        (SimplexError("zero pivot"), "error: certificate failure: zero pivot\n"),
        (RuntimeError("certificate failure: BIC fails (3 violations)"),
         "error: certificate failure: BIC fails (3 violations)\n"),
    ], ids=["SimplexError", "RuntimeError"])
    def test_child_failure_reaches_the_cli(self, monkeypatch, forks, capsys, exc, line):
        # The BIC program is solved in the child.
        monkeypatch.setattr(oracle, "solve_auction_lp", failing(((3, "bic"), exc)))
        n3 = ["certify", "--n", "3", "--p", "1/2", "--a", "1", "--b", "2"]
        alone, spread = both_ways(monkeypatch, forks, lambda: run_cli(capsys, n3))
        assert spread == alone == (5, "", line)
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            oracle.certify_main_theorem(AuctionSpec(3, F(1, 2), 1, 2))
        assert len(forks) == 2

    @pytest.mark.parametrize("fail,first", [
        ([(2, "bic"), (3, "dic")], (2, "bic")),  # the parent's and the child's
        ([(3, "dic"), (3, "bic")], (3, "dic")),  # both the child's
        ([(3, "bic"), (2, "dic")], (2, "dic")),
    ])
    def test_first_failure_in_job_order_wins(self, monkeypatch, forks, fail, first):
        # The parent solves the n = 2 jobs and the child the n = 3 ones.
        failures = [(job, SimplexError(f"{job} failed")) for job in fail]
        monkeypatch.setattr(oracle, "solve_auction_lp", failing(*failures))
        for setup in (in_process, on_workers):
            setup(monkeypatch)
            with pytest.raises(SimplexError, match=re.escape(f"{first} failed")):
                oracle.solve_auction_lps(SMALL_JOBS)
        assert len(forks) == 1

    def test_failures_in_two_children(self, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        on_workers(monkeypatch)
        failures = [((3, "bic"), RuntimeError("second child")),
                    ((3, "dic"), SimplexError("first child"))]
        monkeypatch.setattr(oracle, "solve_auction_lp", failing(*failures))
        with pytest.raises(SimplexError, match="first child"):
            oracle.solve_auction_lps(SMALL_JOBS)
        assert len(forks) == 2

    @pytest.mark.parametrize("end,how", [
        (lambda: os._exit(3), "exit status 3"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
    ], ids=["exit", "SIGKILL"])
    def test_child_without_results(self, monkeypatch, forks, capsys, end, how):
        on_workers(monkeypatch)
        monkeypatch.setattr(oracle, "solve_auction_lp",
                            failing(exit_in_child=lambda n, regime: end()))
        message = f"a worker process ended without its results ({how})"
        with pytest.raises(oracle.WorkerLost, match=re.escape(message)):
            oracle.solve_auction_lps(SMALL_JOBS)
        assert run_cli(capsys, N12) == (6, "", f"error: {message}\n")

    @pytest.mark.parametrize("exc", [SimplexError("parent failed"), KeyboardInterrupt()],
                             ids=["SimplexError", "KeyboardInterrupt"])
    def test_parent_failure_reaps_the_child(self, monkeypatch, forks, exc):
        # The child blocks until it is killed; the parent's own job fails.
        on_workers(monkeypatch)
        monkeypatch.setattr(oracle, "solve_auction_lp", failing(
            ((2, "dic"), exc), exit_in_child=lambda n, regime: signal.pause()))
        with pytest.raises(type(exc)):
            oracle.solve_auction_lps(SMALL_JOBS)
        assert len(forks) == 1

    def test_child_writes_no_parent_buffer(self, monkeypatch, forks, tmp_path):
        # A child ends through os._exit, so a buffer the parent has not
        # flushed yet is written once, by the parent.
        on_workers(monkeypatch)
        path = tmp_path / "out.txt"
        with open(path, "w") as fh:
            fh.write("unflushed")
            oracle.solve_auction_lps(SMALL_JOBS)
        assert path.read_text() == "unflushed"
        assert len(forks) == 1
