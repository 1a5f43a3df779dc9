"""Completion engines: inference application, scripted replays, runs."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbd.completion import (CALCULI, Inference, Peak, RunState,
                            SideConditionError, apply_inference, replay,
                            run_kbf, run_kbg, run_kbi)
from kbd.canonicity import trs_variants
from kbd.critical_pairs import critical_pairs, prime_critical_pairs
from kbd.orders import OrderSpec, Precedence, KboWeights
from kbd.parsing import parse_problem, word_term
from kbd.rewriting import normalize
from kbd.terms import Equation, Fun, Rule, Var, pair_variants

from helpers import (congruence_closure_rules, copy_state, is_reduced,
                     joinable, word_over)
from test_peaks import RANDOM_RUNS

x, y = Var("x"), Var("y")
a, b, c, d = Fun("a"), Fun("b"), Fun("c"), Fun("d")


def f(t):
    return Fun("f", (t,))


def lpo(pairs):
    return OrderSpec("lpo", Precedence(pairs))


STRATEGY_E = [Equation(a, b), Equation(a, c), Equation(f(b), b),
              Equation(f(a), d)]
STRATEGY_ORDER = lpo([("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")])
STRATEGY_R = [Rule(a, b), Rule(b, d), Rule(c, d), Rule(f(d), d)]

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# ground terms of depth at most 4 over three constants, two unary symbols
# and a binary one
GROUND_SYMBOLS = ["a", "b", "c", "f", "g", "h"]
GROUND_TERMS = st.recursive(
    st.sampled_from([a, b, c]), lambda kids: st.one_of(
        st.builds(lambda t: Fun("f", (t,)), kids),
        st.builds(lambda t: Fun("g", (t,)), kids),
        st.builds(lambda s, t: Fun("h", (s, t)), kids, kids)),
    max_leaves=4)


class TestApplyInference:
    def test_orient(self):
        state = RunState.start([Equation(a, b)], [])
        apply_inference(state, Inference("orient", equation=Equation(a, b)),
                        "kbf", lpo([("a", "b")]))
        assert state.E == [] and state.R == [Rule(a, b)]

    def test_orient_reverse(self):
        state = RunState.start([Equation(b, a)], [])
        apply_inference(state, Inference("orient", equation=Equation(b, a),
                                         reverse=True),
                        "kbf", lpo([("a", "b")]))
        assert state.R == [Rule(a, b)]

    def test_orient_appends_its_rule(self):
        """As in the paper, orient adds its rule to R even when a variant
        of it is already there (the engines never orient one)."""
        order = lpo([("f", "a"), ("a", "b")])
        state = RunState.start([Equation(f(y), a), Equation(f(y), b)],
                               [Rule(f(x), a)])
        for s in (copy_state(state), state):
            apply_inference(s, Inference("orient", equation=Equation(f(y), a)),
                            "kbf", order)
            assert s.E == [Equation(f(y), b)]
            assert s.R == [Rule(f(x), a), Rule(f(y), a)]

    def test_orient_wrong_direction_rejected(self):
        state = RunState.start([Equation(b, a)], [])
        with pytest.raises(SideConditionError):
            apply_inference(state,
                            Inference("orient", equation=Equation(b, a)),
                            "kbf", lpo([("a", "b")]))

    def test_unknown_variant_rejected(self):
        state = RunState.start([Equation(a, b)], [])
        with pytest.raises(ValueError, match="unknown calculus 'kbx'"):
            apply_inference(state,
                            Inference("orient", equation=Equation(a, b)),
                            "kbx", lpo([("a", "b")]))
        assert state.E == [Equation(a, b)] and state.R == []

    def test_orient_missing_equation_rejected(self):
        state = RunState.start([], [])
        with pytest.raises(SideConditionError):
            apply_inference(state,
                            Inference("orient", equation=Equation(a, b)),
                            "kbf", lpo([("a", "b")]))

    def test_delete(self):
        state = RunState.start([Equation(a, a)], [])
        apply_inference(state, Inference("delete", equation=Equation(a, a)),
                        "kbf", lpo([]))
        assert state.E == []

    def test_delete_nontrivial_rejected(self):
        state = RunState.start([Equation(a, b)], [])
        with pytest.raises(SideConditionError):
            apply_inference(state,
                            Inference("delete", equation=Equation(a, b)),
                            "kbf", lpo([]))

    def test_simplify_with_rule(self):
        state = RunState.start([Equation(f(a), d)], [Rule(a, b)])
        apply_inference(state,
                        Inference("simplify", equation=Equation(f(a), d),
                                  side="lhs", pos=(1,),
                                  ref=(("rule", 0), False)),
                        "kbf", lpo([]))
        assert state.E == [Equation(f(b), d)]

    def test_compose(self):
        state = RunState.start([], [Rule(a, b), Rule(b, c)])
        apply_inference(state, Inference("compose", target=0, pos=(),
                                         ref=(("rule", 1), False)),
                        "kbf", lpo([]))
        assert state.R[0] == Rule(a, c)

    def test_collapse_plain_kbf(self):
        state = RunState.start([], [Rule(f(b), b), Rule(b, d)])
        apply_inference(state, Inference("collapse", target=0, pos=(1,),
                                         ref=(("rule", 1), False)),
                        "kbf", lpo([]))
        assert state.R == [Rule(b, d)]
        assert state.E == [Equation(f(d), b)]

    def test_simplify_needs_a_decreasing_equation_instance(self):
        # g(x,y) == g(y,x) rewrites g(a,b) to g(b,a) only where that
        # instance is decreasing
        g = lambda s, t: Fun("g", (s, t))
        inf = Inference("simplify", equation=Equation(g(a, b), c),
                        side="lhs", pos=(), ref=(("eq", 0), False))
        state = RunState.start([Equation(g(x, y), g(y, x)),
                                Equation(g(a, b), c)], [])
        apply_inference(state, inf, "kbo", lpo([("a", "b")]))
        assert state.E[1] == Equation(g(b, a), c)
        state = RunState.start([Equation(g(x, y), g(y, x)),
                                Equation(g(a, b), c)], [])
        with pytest.raises(SideConditionError, match="not decreasing"):
            apply_inference(state, inf, "kbo", lpo([("b", "a")]))

    def test_deduce_requires_peak(self):
        state = RunState.start([], [Rule(a, b)])
        with pytest.raises(SideConditionError):
            apply_inference(state,
                            Inference("deduce", equation=Equation(c, d)),
                            "kbf", lpo([]))

    def test_deduce_critical_pair(self):
        rules = [Rule(f(a), b), Rule(a, a)]
        state = RunState.start([], rules)
        peak = Peak((("rule", 0), False), (("rule", 1), False), (1,))
        apply_inference(state, Inference("deduce", equation=Equation(f(a), b),
                                         peak=peak),
                        "kbf", lpo([]))
        assert Equation(f(a), b) in state.E

    @pytest.mark.parametrize("variant", list(CALCULI))
    def test_deduce_without_peak_rejected(self, variant):
        # f(a) == b is the critical pair of the peak that the test above
        # names; without its peak no variant accepts it
        state = RunState.start([], [Rule(f(a), b), Rule(a, a)])
        message = r"deduce names no peak: f\(a\) == b" \
            if CALCULI[variant].deduces else "ground completion has no deduce"
        with pytest.raises(SideConditionError, match=message):
            apply_inference(state,
                            Inference("deduce", equation=Equation(f(a), b)),
                            variant, lpo([]))

    @pytest.mark.parametrize("variant", ["kbf", "kbi", "kbo", "kbl"])
    def test_deduce_rejects_a_valley(self, variant):
        # a -> b <- c has no peak: a == c is no critical pair of R, and the
        # left-hand sides named as a peak do not overlap
        state = RunState.start([], [Rule(a, b), Rule(c, b)])
        assert prime_critical_pairs(state.R) == []
        inf = Inference("deduce", equation=Equation(a, c),
                        peak=Peak((("rule", 0), False), (("rule", 1), False),
                                  ()))
        with pytest.raises(SideConditionError,
                           match=r"c -> b does not overlap a -> b"):
            apply_inference(state, inf, variant,
                            lpo([("a", "c"), ("c", "b")]))

    def test_deduce_accepts_an_equation_peak(self):
        # a <- b -> c with equations read both ways is a peak of E±
        state = RunState.start([Equation(a, b), Equation(b, c)], [])
        inf = Inference("deduce", equation=Equation(a, c),
                        peak=Peak((("eq", 1), False), (("eq", 0), True), ()))
        order = lpo([("b", "a"), ("b", "c")])
        apply_inference(copy_state(state), inf, "kbo", order)
        with pytest.raises(SideConditionError,
                           match="deduce may not use eq#1 fwd"):
            apply_inference(copy_state(state), inf, "kbf", order)

    def test_deduce_forbidden_in_kbg(self):
        state = RunState.start([], [Rule(a, b)])
        with pytest.raises(SideConditionError):
            apply_inference(state,
                            Inference("deduce", equation=Equation(b, b)),
                            "kbg", lpo([("a", "b")]))


class TestEncompassmentCollapse:
    """The §6 distinction: KBf collapses at variant roots, KBi refuses."""

    def setup_state(self):
        aba, ab = word_term("aba"), word_term("ab")
        abb = word_term("abb")
        rules = [Rule(aba, ab), Rule(word_term("bb"), word_term("b")),
                 Rule(word_over("aba", "z"), word_over("abb", "z"))]
        return RunState.start([], rules), ab, abb

    def test_kbf_allows_variant_collapse(self):
        state, ab, abb = self.setup_state()
        inf = Inference("collapse", target=0, pos=(), ref=(("rule", 2), False))
        apply_inference(state, inf, "kbf", lpo([("a", "b")]))
        assert state.E == [Equation(abb, ab)]

    def test_kbi_rejects_variant_collapse(self):
        state, _, _ = self.setup_state()
        inf = Inference("collapse", target=0, pos=(), ref=(("rule", 2), False))
        with pytest.raises(SideConditionError, match="encompass"):
            apply_inference(state, inf, "kbi", lpo([("a", "b")]))

    def test_kbi_allows_proper_subterm_collapse(self):
        # collapsing below the root is fine: the left-hand side properly
        # encompasses the smaller rule
        state = RunState.start([], [Rule(f(f(a)), b), Rule(a, b)])
        inf = Inference("collapse", target=0, pos=(1, 1),
                        ref=(("rule", 1), False))
        apply_inference(state, inf, "kbi", lpo([("a", "b")]))
        assert state.E == [Equation(f(f(b)), b)]

    def test_kbo_equation_instance_composes_but_does_not_collapse(self):
        # compose needs no encompassment; g(x) does not properly encompass
        # the equation's side g(y), so collapse refuses the same step
        g, h = (lambda t: Fun("g", (t,))), (lambda t: Fun("h", (t,)))
        order = lpo([("f", "g"), ("g", "h"), ("g", "a")])
        state = RunState.start([Equation(g(y), h(y))],
                               [Rule(f(x), g(x)), Rule(g(x), a)])
        ref = (("eq", 0), False)
        apply_inference(state, Inference("compose", target=0, pos=(),
                                         ref=ref), "kbo", order)
        assert state.R == [Rule(f(x), h(x)), Rule(g(x), a)]
        with pytest.raises(SideConditionError, match="encompass"):
            apply_inference(state, Inference("collapse", target=1, pos=(),
                                             ref=ref), "kbo", order)


def scripted_success():
    return [
        Inference("orient", equation=Equation(a, b)),
        Inference("orient", equation=Equation(f(b), b)),
        Inference("simplify", equation=Equation(a, c), side="lhs", pos=(),
                  ref=(("rule", 0), False)),
        Inference("simplify", equation=Equation(f(a), d), side="lhs",
                  pos=(1,), ref=(("rule", 0), False)),
        Inference("simplify", equation=Equation(f(b), d), side="lhs",
                  pos=(), ref=(("rule", 1), False)),
        Inference("orient", equation=Equation(b, d)),
        Inference("collapse", target=1, pos=(1,), ref=(("rule", 2), False)),
        Inference("simplify", equation=Equation(b, c), side="lhs", pos=(),
                  ref=(("rule", 1), False)),
        Inference("simplify", equation=Equation(f(d), b), side="rhs",
                  pos=(), ref=(("rule", 1), False)),
        Inference("orient", equation=Equation(d, c), reverse=True),
        Inference("orient", equation=Equation(f(d), d)),
    ]


def scripted_failure():
    return [
        Inference("orient", equation=Equation(a, c)),
        Inference("simplify", equation=Equation(a, b), side="lhs", pos=(),
                  ref=(("rule", 0), False)),
        Inference("simplify", equation=Equation(f(a), d), side="lhs",
                  pos=(1,), ref=(("rule", 0), False)),
        Inference("orient", equation=Equation(f(b), b)),
        Inference("orient", equation=Equation(f(c), d)),
    ]


class TestScriptedReplays:
    def test_succeeding_run(self):
        state = replay(STRATEGY_E, [], scripted_success(), "kbf",
                       STRATEGY_ORDER)
        assert state.E == []
        assert trs_variants(state.R, STRATEGY_R)

    def test_failing_run(self):
        state = replay(STRATEGY_E, [], scripted_failure(), "kbf",
                       STRATEGY_ORDER)
        assert state.E == [Equation(c, b)]
        assert trs_variants(state.R,
                            [Rule(a, c), Rule(f(b), b), Rule(f(c), d)])

    def test_empty_script(self):
        state = replay(STRATEGY_E, [], [], "kbf", STRATEGY_ORDER)
        assert state.E == STRATEGY_E and state.R == []


class TestRunKbf:
    def test_empty_input(self):
        result = run_kbf([], lpo([]))
        assert result.status == "success"
        assert result.state.R == []

    def test_strategy_example(self):
        result = run_kbf(STRATEGY_E, STRATEGY_ORDER)
        assert result.status == "success"
        assert trs_variants(result.state.R, STRATEGY_R)

    def test_unorientable_fails(self):
        result = run_kbf([Equation(b, c)], lpo([("a", "b"), ("a", "c")]))
        assert result.status == "fail"
        assert result.state.E == [Equation(b, c)]

    def test_trace_replays_to_same_state(self):
        result = run_kbf(STRATEGY_E, STRATEGY_ORDER)
        state = replay(STRATEGY_E, [], result.trace, "kbf", STRATEGY_ORDER)
        assert state.E == list(result.state.E)
        assert state.R == list(result.state.R)

    def test_group_like_success(self):
        plus = lambda l, r: Fun("+", (l, r))
        zero = Fun("0")
        eqs = [Equation(plus(zero, x), x),
               Equation(plus(f(x), x), zero)]
        order = lpo([("+", "0"), ("f", "0")])
        result = run_kbf(eqs, order)
        assert result.status == "success"
        for eq in prime_critical_pairs(result.state.R):
            assert joinable(result.state.R, eq.lhs, eq.rhs, 1000)


class TestRunKbg:
    def test_single_equation(self):
        result = run_kbg([Equation(a, b)], lpo([("a", "b")]))
        assert result.status == "success"
        assert result.state.R == [Rule(a, b)]

    def test_rejects_variables(self):
        with pytest.raises(ValueError):
            run_kbg([Equation(f(x), a)], lpo([]))

    def test_ground_example(self):
        fff = lambda t, n: t if n == 0 else fff(f(t), n - 1)
        eqs = [Equation(f(f(f(a))), f(b)), Equation(f(f(b)), c),
               Equation(f(c), a), Equation(f(a), f(f(b)))]
        order = OrderSpec("lpo", Precedence.total(["a", "b", "c", "f"]))
        result = run_kbg(eqs, order)
        assert result.status == "success"
        assert trs_variants(result.state.R,
                            [Rule(f(b), c), Rule(f(c), c), Rule(a, c)])
        assert is_reduced(result.state.R)

    def test_fuel_caps_inferences(self):
        eqs = [Equation(f(f(a)), b), Equation(f(a), c), Equation(a, d)]
        order = lpo([("f", "a"), ("a", "b"), ("b", "c"), ("c", "d")])
        full = run_kbg(eqs, order)
        assert full.status == "success" and len(full.trace) > 2
        assert run_kbg(eqs, order, len(full.trace) + 1).trace == full.trace
        capped = run_kbg(eqs, order, 2)
        assert capped.status == "out-of-fuel"
        assert capped.trace == full.trace[:2]
        assert run_kbg(eqs, order, 0).trace == []

    def test_exact_fuel_succeeds(self):
        eqs = [Equation(f(f(a)), b), Equation(f(a), c), Equation(a, d)]
        order = lpo([("f", "a"), ("a", "b"), ("b", "c"), ("c", "d")])
        full = run_kbg(eqs, order)
        exact = run_kbg(eqs, order, len(full.trace))
        assert exact.status == "success"
        assert exact.trace == full.trace
        assert exact.state.R == full.state.R

    @pytest.mark.parametrize("kind", ["lpo", "kbo"])
    @settings(max_examples=100, deadline=None)
    @given(eqs=st.lists(st.builds(Equation, GROUND_TERMS, GROUND_TERMS),
                        min_size=1, max_size=6),
           prec=st.permutations(GROUND_SYMBOLS),
           weights=st.lists(st.integers(1, 3), min_size=6, max_size=6))
    def test_rules_are_the_congruence_closure_system(self, kind, eqs, prec,
                                                     weights):
        """Every kbg run under a total LPO or KBO ends in the one reduced
        system for its order, which congruence closure computes
        independently."""
        order = OrderSpec(kind, Precedence.total(prec),
                          KboWeights(1, dict(zip(GROUND_SYMBOLS, weights))))
        result = run_kbg(eqs, order)
        assert result.status == "success"
        assert set(result.state.R) == congruence_closure_rules(eqs, order)

    def test_golden_is_the_congruence_closure_system(self):
        """The ``complete-ground`` golden system is the oracle's."""
        def read(*path):
            with open(os.path.join(FIXTURES, *path)) as fh:
                return fh.read()
        eqs = parse_problem(read("ground.es")).equations
        golden = read("golden", "ground.out").split("\n", 1)[1]
        order = OrderSpec("lpo", Precedence.total(["a", "b", "c", "f"]))
        assert set(parse_problem(golden).rules) == \
            congruence_closure_rules(eqs, order)

    def test_kbg_stuck_without_deduce(self):
        # ground completion cannot proceed on the f(x) ≈ f(a) system,
        # mirroring the motivating example for infinite runs
        eqs = [Equation(f(x), f(a)), Equation(f(b), b)]
        with pytest.raises(ValueError):
            run_kbg(eqs, lpo([]))


class TestRunKbi:
    def test_empty(self):
        assert run_kbi([], lpo([]), 100).status == "success"

    def test_braid_divergence(self):
        eqs = [Equation(word_term("aba"), word_term("bab"))]
        order = OrderSpec("kbo", Precedence([("a", "b")]), KboWeights(1, {}))
        result = run_kbi(eqs, order, 200)
        assert result.status == "out-of-fuel"
        expected = [Rule(word_term("aba"), word_term("bab")),
                    Rule(word_term("abbab"), word_term("babba")),
                    Rule(word_term("abbbab"), word_term("babbaa")),
                    Rule(word_term("abbbbab"), word_term("babbaaa"))]
        for rule in expected:
            assert any(pair_variants(rule, r) for r in result.state.R)

    def test_collapse_variant_preserved(self):
        # on {aba ≈ ab, bb ≈ b} the KBi engine keeps a rule with
        # left-hand side aba in every reachable system
        eqs = [Equation(word_term("aba"), word_term("ab")),
               Equation(word_term("bb"), word_term("b"))]
        result = run_kbi(eqs, lpo([("a", "b")]), 2000)
        assert result.status == "success"
        assert any(r.lhs == word_term("aba") for r in result.state.R)
        sn = normalize(result.state.R, word_term("aba"), 100)
        tn = normalize(result.state.R, word_term("ab"), 100)
        assert sn == tn


class TestTraceReplaysGenerally:
    def test_kbg_trace_replays(self):
        eqs = [Equation(f(f(f(a))), f(b)), Equation(f(f(b)), c),
               Equation(f(c), a), Equation(f(a), f(f(b)))]
        order = OrderSpec("lpo", Precedence.total(["a", "b", "c", "f"]))
        result = run_kbg(eqs, order)
        state = replay(eqs, [], result.trace, "kbg", order)
        assert state.R == list(result.state.R)


@pytest.mark.parametrize("variant", ["kbf", "kbi", "kbo", "kbl"])
@settings(max_examples=25, deadline=None)
@given(data=st.data(), prec=st.permutations(["f", "g", "a", "b"]))
def test_success_with_empty_e_is_complete(variant, data, prec):
    """A run that succeeds with E empty leaves an R in which every
    critical pair and every input equation has one normal form, though
    the fairness scans test each pair only until it is first covered."""
    engine, equation = RANDOM_RUNS[variant]
    eqs = data.draw(st.lists(equation, min_size=1, max_size=3))
    result = engine(eqs, OrderSpec("lpo", Precedence.total(prec)), 60)
    if result.status != "success" or result.state.E:
        return
    R = result.state.R
    for eq in critical_pairs(R) + eqs:
        l, r = normalize(R, eq.lhs, 2000), normalize(R, eq.rhs, 2000)
        assert l is not None and l == r, (eq, R)
