"""Work budgets of the fairness scan on the diverging benchmark commands.

Each command runs from the fixture copy of its problem, with the fuel
cap of its benchmark case, and the calls of two functions are counted:
``critical_pairs._overlap``, one unification attempt of the overlap
search, and ``_Driver.joins``, one normalization of a critical pair.
Both counts are deterministic (the same under every ``PYTHONHASHSEED``),
and each bound sits about 25% above the count of the search that tries
only the sites of the inner root symbol, rejects a linear pair before
unifying, and keeps every pair it finds covered.  Searching every
function position exceeds the bounds several times over, and joining
again on every scan the pairs that joined exceeds devie's and braid's
(204 and 165 calls): no pair is joined, or tested for one ↔E step,
twice in a run.  kbl's linear condition compares each view with the
order at most twice in a run.

A well-formed call of ``kbd`` builds no argparse parser, and
``encompass_reducible`` searches the covers of a term at its root, not
all its generalizations.
"""

import argparse
import contextlib
import io
import os
import sys

import pytest

from kbd import completion, critical_pairs, ordered, rewriting
from kbd.cli import entry
from kbd.completion import _Driver
from kbd.orders import OrderSpec, Precedence
from kbd.parsing import parse_problem

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

DEVIE = ("complete", "devie.es", "--prec", "i1>i2>f1>f2>g1>g2>h1>h2>a",
         "--fuel", "80")
COMM_KBO = ("complete-ordered", "comm.es", "--prec", "+>s>0", "--fuel", "100")
COMM_KBL = ("complete-linear", "comm.es", "--prec", "+>s>0", "--fuel", "50")
BRAID = ("complete-inf", "braid.str", "--string", "--order", "kbo",
         "--prec", "a>b", "--fuel", "700")


def counted_run(monkeypatch, argv):
    """Run ``kbd argv`` on the fixture copy of its problem; the exit code
    and the calls of ``_overlap`` and ``joins``."""
    calls = {"_overlap": 0, "joins": 0}
    overlap, joins = critical_pairs._overlap, _Driver.joins

    def counted_overlap(*args):
        calls["_overlap"] += 1
        return overlap(*args)

    def counted_joins(*args):
        calls["joins"] += 1
        return joins(*args)

    monkeypatch.setattr(critical_pairs, "_overlap", counted_overlap)
    monkeypatch.setattr(_Driver, "joins", counted_joins)
    argv = [argv[0], os.path.join(FIXTURES, argv[1])] + list(argv[2:])
    with contextlib.redirect_stdout(io.StringIO()):
        code = entry(argv)
    return code, calls


@pytest.mark.parametrize("argv, counted, bound", [
    (COMM_KBL, "_overlap", 600),
    (DEVIE, "_overlap", 750),
    (DEVIE, "joins", 65),
    (BRAID, "joins", 100),
    (COMM_KBO, "joins", 85),
], ids=["comm_kbl-overlap", "devie-overlap", "devie-joins", "braid-joins",
        "comm_kbo-joins"])
def test_scan_work_within_budget(monkeypatch, argv, counted, bound):
    code, calls = counted_run(monkeypatch, argv)
    assert code == 2  # out of fuel, at the benchmark's cap
    assert calls[counted] <= bound, calls


RUNS = pytest.mark.parametrize("argv", [DEVIE, COMM_KBO, COMM_KBL, BRAID],
                               ids=["devie", "comm_kbo", "comm_kbl", "braid"])


def pairs_tested(monkeypatch, argv, name, pair):
    """Run ``kbd argv`` and list the pair of each call of
    ``_Driver.<name>``, as ``pair`` reads it from the call's arguments."""
    seen = []
    method = getattr(_Driver, name)

    def tested(driver, *args):
        seen.append(pair(*args))
        return method(driver, *args)

    monkeypatch.setattr(_Driver, name, tested)
    assert counted_run(monkeypatch, argv)[0] == 2
    return seen


@RUNS
def test_steps_across_sees_each_pair_once(monkeypatch, argv):
    """No pair reaches the one-step test twice: a pair is tested only when
    it does not join, and it leaves the test covered, which
    ``_Driver.covered`` keeps, or deduced."""
    seen = pairs_tested(monkeypatch, argv, "steps_across", lambda eq: eq)
    assert seen and len(seen) == len(set(seen)), len(seen)


@RUNS
def test_joins_sees_each_pair_once(monkeypatch, argv):
    """No pair is joined twice: a pair that joins goes into
    ``_Driver.covered``, and one that does not is covered by one step or
    deduced.  Joining every uncovered pair on every scan made 204 join
    tests on devie's 50 distinct pairs."""
    seen = pairs_tested(monkeypatch, argv, "joins", lambda s, t: (s, t))
    assert seen and len(seen) == len(set(seen)), (len(seen), len(set(seen)))


def test_linear_condition_judges_each_view_once(monkeypatch):
    """On comm_kbl the scans' linear condition asks the order at most two
    questions of each distinct view, l > r and r > l; judging each pair
    of views alone asks them again for every pair that a view meets in.
    The comparisons counted are those that ``peak_pairs`` makes, through
    the ``critical_pairs`` functions it calls, outside ``_overlap``'s
    conditions on the instances.  The check of a deduce's named peak
    judges its two views directly, and is not counted."""
    views, compared = set(), 0
    gt, scan = OrderSpec.gt, completion.peak_pairs

    def counted_gt(order, s, t):
        nonlocal compared
        frame, names = sys._getframe(1), set()
        while frame.f_code.co_filename == critical_pairs.__file__:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        if "peak_pairs" in names and "_overlap" not in names:
            compared += 1
        return gt(order, s, t)

    def seen(scanned, *args, **kwargs):
        views.update(view for _, view in scanned)
        return scan(scanned, *args, **kwargs)

    monkeypatch.setattr(OrderSpec, "gt", counted_gt)
    monkeypatch.setattr(completion, "peak_pairs", seen)
    assert counted_run(monkeypatch, COMM_KBL)[0] == 2
    assert 0 < compared <= 2 * len(views), (compared, len(views))


def test_well_formed_call_builds_no_parser(monkeypatch):
    """A well-formed call of ``complete`` builds no argparse parser; the
    same call with an unknown flag is argparse's usage error."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted_init(parser, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    argv = ["complete", os.path.join(FIXTURES, "strategy.es"),
            "--prec", "a>b>d,a>c>d"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert entry(argv) == 0
    assert built == []
    with contextlib.redirect_stderr(io.StringIO()):
        assert entry(argv + ["--bogus"]) == 3


def test_root_search_tries_the_covers(monkeypatch):
    """The rule of the 4-argument swap problem is not reducible below
    itself.  Its left-hand side has 30 covers, one for each nonempty set
    of its a's or of its b's, against 15,418 strict generalizations.  The
    check calls ``_contractions`` 64 times: 33 times below the root, once
    to find that a view matches at the root, and once per cover.  The
    search of every generalization calls it 15,452 times."""
    problem = parse_problem(
        "(VAR x0 x1 x2 x3)"
        "(EQUATIONS f(x0,x1,x2,x3) == f(x1,x0,x2,x3))"
        "(RULES f(g(h(a),b),g(h(a),b),g(h(a),b),g(h(a),b)) -> c)")
    order = OrderSpec("lpo", Precedence.total("fghabc"))
    calls = 0
    contractions = rewriting._contractions

    def counted(*args):
        nonlocal calls
        calls += 1
        return contractions(*args)

    monkeypatch.setattr(rewriting, "_contractions", counted)
    monkeypatch.setattr(ordered, "_contractions", counted)
    assert not ordered.encompass_reducible(
        problem.equations, problem.rules, order, problem.rules[0].lhs)
    assert calls <= 100, calls
