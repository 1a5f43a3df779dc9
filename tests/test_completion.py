"""Completion engines: inference application, scripted replays, runs."""

import pytest

from kbd.completion import (Inference, RunState, SideConditionError,
                            apply_inference, replay, run_kbf, run_kbg,
                            run_kbi)
from kbd.canonicity import is_reduced, trs_variants
from kbd.critical_pairs import prime_critical_pairs
from kbd.orders import OrderSpec, Precedence, KboWeights
from kbd.parsing import word_term
from kbd.rewriting import joinable, normalize
from kbd.terms import Equation, Fun, Rule, Var, pair_variants

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
        apply_inference(state,
                        Inference("deduce", equation=Equation(f(a), b)),
                        "kbf", lpo([]))
        assert Equation(f(a), b) in state.E

    @pytest.mark.parametrize("variant", ["kbf", "kbi", "kbo", "kbl"])
    def test_deduce_rejects_a_valley(self, variant):
        # a -> b <- c has no peak: a == c is no critical pair of R, and a
        # conversion through R does not make one
        state = RunState.start([], [Rule(a, b), Rule(c, b)])
        assert prime_critical_pairs(state.R) == []
        inf = Inference("deduce", equation=Equation(a, c))
        with pytest.raises(SideConditionError):
            apply_inference(state, inf, variant,
                            lpo([("a", "c"), ("c", "b")]))

    def test_deduce_accepts_an_equation_peak(self):
        # a <- b -> c with equations read both ways is a peak of E±
        state = RunState.start([Equation(a, b), Equation(b, c)], [])
        inf = Inference("deduce", equation=Equation(a, c))
        apply_inference(state.copy(), inf, "kbo", lpo([("a", "b")]))
        with pytest.raises(SideConditionError):
            apply_inference(state.copy(), inf, "kbf", lpo([("a", "b")]))

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
                 Rule(word_term("aba", "z"), word_term("abb", "z"))]
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
        assert result.rules == []

    def test_strategy_example(self):
        result = run_kbf(STRATEGY_E, STRATEGY_ORDER)
        assert result.status == "success"
        assert trs_variants(result.rules, STRATEGY_R)

    def test_unorientable_fails(self):
        result = run_kbf([Equation(b, c)], lpo([("a", "b"), ("a", "c")]))
        assert result.status == "fail"
        assert result.stuck == [Equation(b, c)]

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
        for eq in prime_critical_pairs(result.rules):
            assert joinable(result.rules, eq.lhs, eq.rhs, 1000)


class TestRunKbg:
    def test_single_equation(self):
        result = run_kbg([Equation(a, b)], lpo([("a", "b")]))
        assert result.status == "success"
        assert result.rules == [Rule(a, b)]

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
        assert trs_variants(result.rules,
                            [Rule(f(b), c), Rule(f(c), c), Rule(a, c)])
        assert is_reduced(result.rules)

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
        assert exact.rules == full.rules

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
            assert any(pair_variants(rule, r) for r in result.rules)

    def test_collapse_variant_preserved(self):
        # on {aba ≈ ab, bb ≈ b} the KBi engine keeps a rule with
        # left-hand side aba in every reachable system
        eqs = [Equation(word_term("aba"), word_term("ab")),
               Equation(word_term("bb"), word_term("b"))]
        result = run_kbi(eqs, lpo([("a", "b")]), 2000)
        assert result.status == "success"
        assert any(r.lhs == word_term("aba") for r in result.rules)
        sn = normalize(result.rules, word_term("aba"), 100)
        tn = normalize(result.rules, word_term("ab"), 100)
        assert sn == tn


class TestTraceReplaysGenerally:
    def test_kbg_trace_replays(self):
        eqs = [Equation(f(f(f(a))), f(b)), Equation(f(f(b)), c),
               Equation(f(c), a), Equation(f(a), f(f(b)))]
        order = OrderSpec("lpo", Precedence.total(["a", "b", "c", "f"]))
        result = run_kbg(eqs, order)
        state = replay(eqs, [], result.trace, "kbg", order)
        assert state.R == list(result.state.R)
