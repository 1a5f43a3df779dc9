"""Deduce steps that name their peak, and the incremental fairness scan.

Engine traces must round-trip through the trace format and replay under
their own calculus; a deduce naming a peak that does not yield its
equation is rejected; and the engines' cached scans must agree, at every
quiescent point, with a gap computed from the reference enumeration of
``helpers.critical_peaks``, which tests primality on every proper
subterm of the redex.
"""

import functools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbd.cli import parse_precedence
from kbd.completion import (CALCULI, Inference, Peak, RunState,
                            SideConditionError, _Driver, _file_pairs,
                            _peak_views, apply_inference, is_linear, replay,
                            run_kbf, run_kbg, run_kbi, single_step_connects)
from kbd.critical_pairs import (_linear_condition, _orientation,
                                pair_overlaps, peak_pairs)
from kbd.ordered import _OrderedDriver, run_kbl, run_kbo
from kbd.orders import KboWeights, OrderSpec, Precedence
from kbd.parsing import (ParseError, ProblemFile, format_trace,
                         parse_problem, parse_trace)
from kbd.rewriting import normalize, ordered_normalize
from kbd.terms import (Equation, Fun, Rule, Var, apply_subst,
                       canonical_pair, match, positions, replace_at,
                       subterm_at)

from helpers import copy_state, reference_pairs

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def load(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return parse_problem(fh.read(), string_mode=name.endswith(".str"))


def lpo(prec):
    return OrderSpec("lpo", parse_precedence(prec))


def kbo(prec):
    return OrderSpec("kbo", parse_precedence(prec), KboWeights(1, {}))


# (fixture, engine, variant, order, fuel)
ENGINE_RUNS = [
    ("strategy.es", run_kbf, "kbf", lpo("a>b>d,a>c>d"), 10000),
    ("groups.es", run_kbf, "kbf", lpo("i>*>e"), 10000),
    ("okb1.es", run_kbo, "kbo", lpo("+>*>->1>0"), 10000),
    ("okb2.es", run_kbo, "kbo", lpo("g>f>a>b"), 10000),
    ("plus.es", run_kbo, "kbo", lpo("+>0"), 10000),
    ("collapse6.es", run_kbi, "kbi", kbo("a>b"), 10000),
    ("braid.str", run_kbi, "kbi", kbo("a>b"), 120),
    ("braid.str", run_kbl, "kbl", kbo("a>b"), 60),
    ("comm.es", run_kbl, "kbl", lpo("+>s>0"), 35),
    ("comm.es", run_kbo, "kbo", lpo("+>s>0"), 60),
]

@functools.cache
def engine_run(k):
    """The problem and the engine result of ENGINE_RUNS[k], computed once."""
    name, engine, _, order, fuel = ENGINE_RUNS[k]
    pf = load(name)
    return pf, engine(pf.equations, order, fuel)


def run_id(run):
    return "%s-%s" % (run[0].split(".")[0], run[2])


@pytest.mark.parametrize("k", range(len(ENGINE_RUNS)),
                         ids=[run_id(r) for r in ENGINE_RUNS])
def test_engine_trace_roundtrips_and_replays(k):
    _, _, variant, order, _ = ENGINE_RUNS[k]
    pf, result = engine_run(k)
    assert all(inf.peak is not None for inf in result.trace
               if inf.kind == "deduce")
    script = parse_trace(format_trace(result.trace, variant), pf.var_test(),
                         variant)
    assert script == result.trace
    state = replay(pf.equations, [], script, variant, order)
    assert state.R == result.state.R
    assert state.E == result.state.E


@pytest.mark.parametrize("k", range(len(ENGINE_RUNS)),
                         ids=[run_id(r) for r in ENGINE_RUNS])
def test_every_orient_adds_a_rule(k):
    """The engines orient an equation only once both sides are R-normal,
    so the new rule is never a variant of one already in R."""
    _, _, variant, order, _ = ENGINE_RUNS[k]
    pf, result = engine_run(k)
    state = RunState.start(pf.equations)
    for inf in result.trace:
        rules = len(state.R)
        apply_inference(state, inf, variant, order)
        if inf.kind == "orient":
            assert len(state.R) == rules + 1
            assert canonical_pair(state.R[-1]) not in \
                {canonical_pair(rule) for rule in state.R[:-1]}


@pytest.mark.parametrize("k", [6, 9], ids=["braid-kbi", "comm-kbo"])
def test_old_format_trace_is_a_parse_error(k):
    """Stripping every ``from ...`` suffix leaves a trace whose first
    deduce line is a parse error that names the form it lacks."""
    _, _, variant, _, _ = ENGINE_RUNS[k]
    pf, result = engine_run(k)
    text = "".join(line.split(" from ")[0] + "\n" for line in
                   format_trace(result.trace, variant).splitlines())
    line = 1 + next(i for i, inf in enumerate(result.trace)
                    if inf.kind == "deduce")
    with pytest.raises(ParseError, match="^line %d: a deduce needs 'from "
                       "<outer> <inner> at <pos>'$" % line):
        parse_trace(text, pf.var_test(), variant)


def state_before_inner_deduce(k):
    """The replayed state just before the first deduce of ENGINE_RUNS[k]
    whose peak lies below the root, and that deduce.  (Swapping the
    participants of a root overlap yields the same pair, reversed.)"""
    _, _, variant, order, _ = ENGINE_RUNS[k]
    pf, result = engine_run(k)
    i = next(i for i, inf in enumerate(result.trace)
             if inf.kind == "deduce" and inf.peak.pos != ())
    state = replay(pf.equations, [], result.trace[:i], variant, order)
    return state, result.trace[i], variant, order


def rejects(state, inf, variant, order):
    with pytest.raises(SideConditionError):
        apply_inference(copy_state(state), inf, variant, order)


@pytest.mark.parametrize("k", [1, 9], ids=["groups-kbf", "comm-kbo"])
def test_wrong_peaks_rejected(k):
    state, inf, variant, order = state_before_inner_deduce(k)
    outer, inner, pos = inf.peak
    apply_inference(copy_state(state), inf, variant, order)
    swapped = Peak(inner, outer, pos)
    rejects(state, Inference("deduce", equation=inf.equation, peak=swapped),
            variant, order)
    for bad_pos in [(9,), pos + (1, 1, 1)]:
        rejects(state, Inference("deduce", equation=inf.equation,
                                 peak=Peak(outer, inner, bad_pos)),
                variant, order)
    missing = (("rule", len(state.R)), False)
    for peak in (Peak(missing, inner, pos), Peak(outer, missing, pos)):
        rejects(state, Inference("deduce", equation=inf.equation, peak=peak),
                variant, order)


def test_peak_at_other_position_rejected():
    x = Var("x")
    f, g = (lambda t: Fun("f", (t,))), (lambda t: Fun("g", (t,)))
    state = RunState.start([], [Rule(f(g(x)), x), Rule(g(g(x)), x)])
    outer, inner = (("rule", 0), False), (("rule", 1), False)
    # g(g(x)) overlaps f(g(x)) at 1: f(g(g(x))) -> f(x) and -> g(x)
    good = Inference("deduce", equation=Equation(f(x), g(x)),
                     peak=Peak(outer, inner, (1,)))
    apply_inference(copy_state(state), good, "kbf", lpo("f>g"))
    for pos in [(), (1, 1)]:
        rejects(state, Inference("deduce", equation=good.equation,
                                 peak=Peak(outer, inner, pos)),
                "kbf", lpo("f>g"))


def test_equation_refs_need_an_ordered_calculus():
    a, b = Fun("a"), Fun("b")
    state = RunState.start([Equation(Fun("f", (a,)), b)], [Rule(a, b)])
    inf = Inference("deduce", equation=Equation(Fun("f", (b,)), b),
                    peak=Peak((("eq", 0), False), (("rule", 0), False),
                              (1,)))
    order = lpo("f>a>b")
    rejects(state, inf, "kbf", order)
    apply_inference(copy_state(state), inf, "kbo", order)


# ------------------------------------------------ the incremental scan

def old_single_step_connects(eqs, s, t):
    """The one-sided step from s to t that single_step_connects tested
    before it matched both sides with one matcher: rσ stands for t|p, with
    the variables of r that l lacks left as they are."""
    for eq in eqs:
        for l, r in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
            for pos in positions(s):
                sigma = match(l, subterm_at(s, pos))
                if sigma is not None and \
                        replace_at(s, pos, apply_subst(sigma, r)) == t:
                    return True
    return False


def terms_over(leaves):
    """Terms over ``leaves``, unary ``g`` and binary ``f``."""
    return st.recursive(
        st.sampled_from(leaves), lambda kids: st.one_of(
            st.builds(lambda s: Fun("g", (s,)), kids),
            st.builds(lambda s, t: Fun("f", (s, t)), kids, kids)),
        max_leaves=6)


TERMS = terms_over([Var("x"), Var("y"), Fun("a"), Fun("b")])
GROUND_TERMS = terms_over([Fun("a"), Fun("b")])


HOLE = Fun("[]")


def one_step_apart(eqs, s, t):
    """The paper's one ↔E step, from its definition: at a position p of
    both ``s`` and ``t`` where their contexts agree, an equation ``l ==
    r`` of ``eqs``, either way round, has ``match(l, s|p)`` and ``match(r,
    t|p)`` that agree on their shared variables."""
    at_t = set(positions(t))
    for pos in positions(s):
        if pos not in at_t or \
                replace_at(s, pos, HOLE) != replace_at(t, pos, HOLE):
            continue
        for eq in eqs:
            for l, r in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
                left = match(l, subterm_at(s, pos))
                right = match(r, subterm_at(t, pos))
                if left is not None and right is not None and all(
                        left[v] == right[v] for v in left.keys() & right):
                    return True
    return False


@settings(max_examples=200, deadline=None)
@given(eqs=st.lists(st.builds(Equation, TERMS, TERMS), max_size=3),
       s=TERMS, data=st.data())
def test_single_step_connects_matches_full_scan(eqs, s, data):
    """The filed pair terms give exactly the one ↔E step, which is
    symmetric and contains the one-sided steps from s to t."""
    successors = [replace_at(s, pos, apply_subst(sigma, r))
                  for eq in eqs
                  for l, r in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs))
                  for pos in positions(s)
                  for sigma in [match(l, subterm_at(s, pos))]
                  if sigma is not None]
    choices = [TERMS, st.just(s)]
    if successors:
        choices.append(st.sampled_from(successors))
    t = data.draw(st.one_of(*choices))
    filed = {}
    _file_pairs(filed, eqs)
    connects = single_step_connects(filed, s, t)
    assert connects == one_step_apart(eqs, s, t)
    assert single_step_connects(filed, t, s) == connects
    assert connects or not old_single_step_connects(eqs, s, t)


def test_one_step_connects_either_way_round():
    """One matcher binds both sides, so a variable on one side only, or
    sides that differ in their variables, do not make the step depend on
    the direction of the pair."""
    x, y, z, w, a, b = Var("x"), Var("y"), Var("z"), Var("w"), Fun("a"), \
        Fun("b")
    f, g = (lambda *ts: Fun("f", ts)), (lambda *ts: Fun("g", ts))
    for eq, s, t in [(Equation(f(x), g(x, y)), f(a), g(a, b)),
                     (Equation(f(x), g(y)), f(z), g(w))]:
        filed = {}
        _file_pairs(filed, [eq])
        assert single_step_connects(filed, s, t)
        assert single_step_connects(filed, t, s)


EQUATION = st.builds(Equation, TERMS, TERMS)
# each calculus's engine and the input equations it accepts
RANDOM_RUNS = {
    "kbf": (run_kbf, EQUATION),
    "kbg": (run_kbg, st.builds(Equation, GROUND_TERMS, GROUND_TERMS)),
    "kbi": (run_kbi, EQUATION),
    "kbo": (run_kbo, EQUATION),
    "kbl": (run_kbl, EQUATION.filter(
        lambda e: is_linear(e.lhs) and is_linear(e.rhs))),
}


@pytest.mark.parametrize("variant", list(RANDOM_RUNS))
@settings(max_examples=20, deadline=None)
@given(data=st.data(), prec=st.permutations(["f", "g", "a", "b"]),
       fuel=st.integers(0, 20))
def test_random_engine_trace_roundtrips_and_replays(variant, data, prec,
                                                    fuel):
    """On small random equation sets under a random total LPO, each
    engine's trace reads back as itself and replays to the run's E and R
    under the engine's own calculus."""
    engine, equation = RANDOM_RUNS[variant]
    eqs = data.draw(st.lists(equation, min_size=1, max_size=3))
    order = OrderSpec("lpo", Precedence.total(prec))
    result = engine(eqs, order, fuel)
    is_var = ProblemFile(["x", "y"], equations=eqs).var_test()
    script = parse_trace(format_trace(result.trace, variant), is_var, variant)
    assert len(script) == len(result.trace)
    for parsed, inf in zip(script, result.trace):
        assert parsed == inf
    state = replay(eqs, [], script, variant, order)
    assert state.R == result.state.R
    assert state.E == result.state.E


# unorientable under every LPO, so that kbl meets peaks of two equations,
# which its linear condition excludes
PERMUTATIVE = st.sampled_from(parse_problem(
    "(VAR x y z) (EQUATIONS f(x,y) == f(y,x)  f(x,f(y,z)) == f(y,f(x,z))"
    "  g(f(x,y)) == g(f(y,x)))").equations)


@pytest.mark.parametrize("variant", ["kbf", "kbi", "kbo", "kbl"])
@settings(max_examples=10, deadline=None)
@given(data=st.data(), prec=st.permutations(["f", "g", "a", "b"]),
       fuel=st.integers(0, 6))
def test_named_peak_accepted_exactly_where_the_engine_finds_it(
        variant, data, prec, fuel):
    """At a state of a run, a deduce of the plain overlap of two peak
    views at p, naming that peak, is accepted exactly when the engine's
    overlap search, under the calculus's ordering and linear conditions,
    yields an overlap at p."""
    engine, equation = RANDOM_RUNS[variant]
    eqs = data.draw(st.lists(st.one_of(equation, PERMUTATIVE),
                             min_size=1, max_size=3))
    order = OrderSpec("lpo", Precedence.total(prec))
    calc = CALCULI[variant]
    state = engine(eqs, order, fuel).state
    views = _peak_views(state, calc)
    for oref, outer in views:
        for iref, inner in views:
            linear_ok = not calc.linear or _linear_condition(
                _orientation(inner, order), _orientation(outer, order))
            kept = {o.pos for o in pair_overlaps(
                outer, inner, order if calc.ordered else None)} \
                if linear_ok else set()
            for pos, pair, _, _ in pair_overlaps(outer, inner):
                inf = Inference("deduce", equation=pair,
                                peak=Peak(oref, iref, pos))
                try:
                    apply_inference(copy_state(state), inf, variant, order)
                    accepted = True
                except SideConditionError:
                    accepted = False
                assert accepted == (pos in kept)


def plain_reference_gap(driver):
    R = driver.state.R
    gap = []
    for eq in reference_pairs(R):
        if eq.is_trivial():
            continue
        l, r = normalize(R, eq.lhs, 2000), normalize(R, eq.rhs, 2000)
        if l is not None and l == r:
            continue
        if one_step_apart(driver.state.e_union, eq.lhs, eq.rhs):
            continue
        gap.append(eq)
    return gap


def ordered_reference_gap(driver):
    E, R, order = driver.state.E, driver.state.R, driver.order
    gap = []
    for eq in reference_pairs(R, E, order, linear=driver.variant == "kbl"):
        if eq.is_trivial():
            continue
        if one_step_apart(driver.state.e_union, eq.lhs, eq.rhs):
            continue
        l = ordered_normalize(E, R, order, eq.lhs, 2000)
        r = ordered_normalize(E, R, order, eq.rhs, 2000)
        if l is not None and l == r:
            continue
        gap.append(eq)
    return gap


@pytest.mark.parametrize("name, engine, order, fuel, cls, reference", [
    ("groups.es", run_kbf, lpo("i>*>e"), 10000, _Driver,
     plain_reference_gap),
    ("okb1.es", run_kbo, lpo("+>*>->1>0"), 10000, _OrderedDriver,
     ordered_reference_gap),
    ("comm.es", run_kbo, lpo("+>s>0"), 60, _OrderedDriver,
     ordered_reference_gap),
    ("comm.es", run_kbl, lpo("+>s>0"), 35, _OrderedDriver,
     ordered_reference_gap),
], ids=["groups-kbf", "okb1-kbo", "comm-kbo", "comm-kbl"])
def test_gap_matches_public_critical_pairs(monkeypatch, name, engine, order,
                                           fuel, cls, reference):
    scans = []
    fairness_gap = cls.fairness_gap

    def checked(driver):
        gap = fairness_gap(driver)
        assert [eq for eq, _ in gap] == reference(driver)
        scans.append(len(gap))
        return gap

    monkeypatch.setattr(cls, "fairness_gap", checked)
    engine(load(name).equations, order, fuel)
    assert len(scans) >= 2 and any(scans)


def memo_free_scan(driver):
    """The fairness scan of ``driver``'s state computed from scratch: a
    fresh enumeration, and every coverage test run on every pair, the one
    ↔E step from its definition.  The pairs found covered, and the gap."""
    calc, state = driver.calculus, driver.state
    order = driver.order if calc.ordered else None
    covered, gap = set(), []
    for eq, peak in peak_pairs(_peak_views(state, calc), order, calc.linear):
        if eq.is_trivial() or driver.joins(eq.lhs, eq.rhs) \
                or one_step_apart(state.e_union, eq.lhs, eq.rhs):
            covered.add(eq)
        else:
            gap.append((eq, peak))
    return covered, gap


class ScanCheckedDriver(_Driver):
    """A driver that checks every fairness scan against
    :func:`memo_free_scan`, and keeps the size of each gap.  A pair that
    an earlier scan from scratch found covered, or that was deduced,
    stays covered, so each gap is the scratch gap less those pairs."""

    def __init__(self, *args):
        super().__init__(*args)
        self.scans = []
        self.settled = set()
        self.scratch_gap = []

    def fairness_gap(self):
        gap = super().fairness_gap()
        covered, self.scratch_gap = memo_free_scan(self)
        assert gap == [(eq, peak) for eq, peak in self.scratch_gap
                       if eq not in self.settled]
        self.settled |= covered | {eq for eq, _ in gap}
        self.scans.append(len(gap))
        return gap


@pytest.mark.parametrize("variant", ["kbf", "kbi", "kbo", "kbl"])
@settings(max_examples=20, deadline=None)
@given(data=st.data(), prec=st.permutations(["f", "g", "a", "b"]),
       fuel=st.integers(0, 40))
def test_scan_memos_give_the_memo_free_gap(variant, data, prec, fuel):
    """The overlaps' variant keys, the covered pairs and the sites kept
    from scan to scan leave every gap as a scan from scratch finds it,
    less the pairs covered or deduced on earlier scans."""
    _, equation = RANDOM_RUNS[variant]
    eqs = data.draw(st.lists(equation, min_size=1, max_size=3))
    order = OrderSpec("lpo", Precedence.total(prec))
    ScanCheckedDriver(eqs, order, variant, fuel).run()


def test_e_union_is_filed_once():
    """``e_union`` is a set, so the one-step index files each equation
    once, both ways round, however often it re-enters E."""
    driver = _Driver(load("groups.es").equations, lpo("i>*>e"), "kbf", 10000)
    assert driver.run().status == "success"
    driver.feed_e_union()
    filed = sum(len(pairs) for pairs in driver.e_union_pairs.values())
    assert filed == 2 * len(set(driver.state.e_union)) == 722


def test_a_joined_pair_stays_covered():
    """A pair that joins on one scan is in the gap of no later scan,
    though here, after collapses, a later scan from scratch finds some
    such pairs no longer joining: R_∪ only grows, so ↓_{R_∪} covers them
    for good."""
    eqs = parse_problem(
        "(VAR x) (EQUATIONS g(g(a)) == f(f(g(b),g(a)),g(g(a)))"
        "  f(g(g(x)),g(x)) == g(g(g(x)))"
        "  f(f(f(x,x),f(b,a)),g(f(a,b))) == f(f(g(a),x),f(f(a,b),f(a,b)))"
        "  g(g(f(x,x))) == g(f(x,f(b,b))))").equations
    joined, unjoined = set(), []

    class Probe(ScanCheckedDriver):
        def joins(self, s, t):
            out = super().joins(s, t)
            if out:
                joined.add(Equation(s, t))
            return out

        def fairness_gap(self):
            before = set(joined)
            gap = super().fairness_gap()
            assert not any(eq in before for eq, _ in gap)
            unjoined.extend(eq for eq, _ in self.scratch_gap if eq in before)
            return gap

    Probe(eqs, lpo("a>g>f>b"), "kbi", 30).run()
    assert unjoined


def test_devie_scans_give_the_memo_free_gap():
    """A longer kbf run than the random ones, whose scans meet many pairs
    covered or deduced on earlier scans."""
    driver = ScanCheckedDriver(load("devie.es").equations,
                               lpo("i1>i2>f1>f2>g1>g2>h1>h2>a"), "kbf", 80)
    driver.run()
    assert len(driver.scans) >= 2 and any(driver.scans)
