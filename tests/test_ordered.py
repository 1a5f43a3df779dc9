"""Ordered and linear completion, ground joinability, interreduction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbd.completion import Inference, Peak, replay
from kbd.orders import KboWeights, OrderSpec, Precedence
from kbd.ordered import (covers, encompass_reducible, ground_joinable,
                         run_kbl, run_kbo, simplify_ground_complete)
from kbd.rewriting import ordered_normalize
from kbd.terms import (Equation, Fun, Rule, Var, apply_subst,
                       canonical_terms, equation_variants, match, positions,
                       subterm_at, variables)
from kbd.canonicity import trs_variants

from helpers import (literally_similar, properly_encompasses,
                     strict_generalizations)
from test_rewriting import EQUATIONS, LPO, RULES, TERMS

x, y, z = Var("x"), Var("y"), Var("z")
a, b = Fun("a"), Fun("b")
zero, one = Fun("0"), Fun("1")


def f(*args):
    return Fun("f", args)


def g(*args):
    return Fun("g", args)


def s(t):
    return Fun("s", (t,))


def plus(l, r):
    return Fun("+", (l, r))


def times(l, r):
    return Fun("*", (l, r))


def neg(t):
    return Fun("-", (t,))


OKB1_E = [Equation(times(one, plus(neg(x), x)), zero),
          Equation(times(one, plus(x, neg(x))), plus(x, neg(x))),
          Equation(plus(neg(x), x), plus(y, neg(y)))]
OKB1_ORDER = OrderSpec("lpo", Precedence([("+", "0")]))
OKB1_R = [Rule(times(one, zero), zero), Rule(plus(x, neg(x)), zero),
          Rule(plus(neg(x), x), zero)]

OKB2_E = [Equation(f(x), f(a)), Equation(f(b), b),
          Equation(g(f(b), x), g(x, b))]
OKB2_ORDER = OrderSpec("kbo", Precedence([("f", "b")]), KboWeights(1, {}))


class TestRunKbo:
    def test_empty(self):
        result = run_kbo([], OKB1_ORDER, 100)
        assert result.status == "success"
        assert result.state.E == [] and result.state.R == []

    def test_okb1_succeeds_where_kbf_fails(self):
        result = run_kbo(OKB1_E, OKB1_ORDER)
        assert result.status == "success"
        assert result.state.E == []
        assert trs_variants(result.state.R, OKB1_R)

    def test_okb2_quiesces_with_equation(self):
        result = run_kbo(OKB2_E, OKB2_ORDER)
        assert result.status == "success"
        assert trs_variants(result.state.R, [Rule(f(x), b)])
        assert len(result.state.E) == 1
        assert equation_variants(result.state.E[0],
                                 Equation(g(b, x), g(x, b)))

    def test_never_fails(self):
        result = run_kbo([Equation(plus(x, y), plus(y, x))],
                         OrderSpec("lpo", Precedence([("+", "0")])), 500)
        assert result.status == "success"
        assert result.state.E and not result.state.R

    def test_trace_replays(self):
        result = run_kbo(OKB2_E, OKB2_ORDER)
        state = replay(OKB2_E, [], result.trace, "kbo", OKB2_ORDER)
        assert state.R == list(result.state.R)
        assert state.E == list(result.state.E)


def okb1_script():
    e3 = Equation(plus(neg(x), x), plus(y, neg(y)))
    return [
        Inference("orient", equation=OKB1_E[0]),
        Inference("orient", equation=OKB1_E[1]),
        Inference("deduce",
                  equation=Equation(times(one, plus(neg(z), z)),
                                    plus(x, neg(x))),
                  peak=Peak((("rule", 1), False), (("eq", 0), True), (2,))),
        Inference("simplify",
                  equation=Equation(times(one, plus(neg(z), z)),
                                    plus(x, neg(x))),
                  side="lhs", pos=(), ref=(("rule", 0), False)),
        Inference("orient", equation=Equation(zero, plus(x, neg(x))),
                  reverse=True),
        Inference("simplify", equation=e3, side="rhs", pos=(),
                  ref=(("rule", 2), False)),
        Inference("compose", target=1, pos=(), ref=(("rule", 2), False)),
        Inference("collapse", target=1, pos=(2,), ref=(("rule", 2), False)),
        Inference("orient",
                  equation=Equation(times(one, zero), zero)),
        Inference("orient", equation=Equation(plus(neg(x), x), zero)),
        Inference("collapse", target=0, pos=(2,), ref=(("rule", 3), False)),
        Inference("simplify",
                  equation=Equation(times(one, zero), zero),
                  side="lhs", pos=(), ref=(("rule", 1), False)),
        Inference("delete", equation=Equation(zero, zero)),
    ]


def okb2_script():
    return [
        Inference("orient", equation=Equation(f(b), b)),
        Inference("orient", equation=Equation(g(f(b), x), g(x, b))),
        Inference("deduce", equation=Equation(f(a), b),
                  peak=Peak((("eq", 0), False), (("rule", 0), False), ())),
        Inference("orient", equation=Equation(f(a), b)),
        Inference("simplify", equation=Equation(f(x), f(a)),
                  side="rhs", pos=(), ref=(("rule", 2), False)),
        Inference("orient", equation=Equation(f(x), b)),
        Inference("collapse", target=0, pos=(), ref=(("rule", 3), False)),
        Inference("delete", equation=Equation(b, b)),
        Inference("collapse", target=0, pos=(1,), ref=(("rule", 2), False)),
        Inference("collapse", target=0, pos=(), ref=(("rule", 1), False)),
        Inference("delete", equation=Equation(b, b)),
    ]


class TestScriptedReplays:
    def test_replay_reaches_okb1_limit(self):
        state = replay(OKB1_E, [], okb1_script(), "kbo", OKB1_ORDER)
        assert state.E == []
        assert trs_variants(state.R, OKB1_R)

    def test_replay_reaches_okb2_limit(self):
        state = replay(OKB2_E, [], okb2_script(), "kbo", OKB2_ORDER)
        assert trs_variants(state.R, [Rule(f(x), b)])
        nontrivial = [e for e in state.E if not e.is_trivial()]
        assert len(nontrivial) == 1
        assert equation_variants(nontrivial[0], Equation(g(b, x), g(x, b)))


class TestRunKbl:
    def test_empty(self):
        assert run_kbl([], OKB1_ORDER, 100).status == "success"

    def test_rejects_nonlinear(self):
        with pytest.raises(ValueError):
            run_kbl([Equation(times(x, x), x)], OKB1_ORDER)

    def test_plus_commutative(self):
        eqs = [Equation(plus(zero, x), x), Equation(plus(x, y), plus(y, x))]
        result = run_kbl(eqs, OrderSpec("lpo", Precedence([("+", "0")])))
        assert result.status == "success"
        assert trs_variants(result.state.R,
                            [Rule(plus(zero, x), x), Rule(plus(x, zero), x)])
        assert len(result.state.E) == 1
        assert equation_variants(result.state.E[0],
                                 Equation(plus(x, y), plus(y, x)))

    def test_strategy_example_completes(self):
        c, d = Fun("c"), Fun("d")
        eqs = [Equation(a, b), Equation(a, c), Equation(f(b), b),
               Equation(f(a), d)]
        order = OrderSpec("lpo", Precedence([("a", "b"), ("b", "d"),
                                             ("a", "c"), ("c", "d")]))
        result = run_kbl(eqs, order)
        assert result.status == "success"
        assert result.state.E == []
        # compose rewrites a -> b through b -> d, so a maps straight to d
        assert trs_variants(result.state.R,
                            [Rule(a, d), Rule(b, d), Rule(c, d),
                             Rule(f(d), d)])


class TestGroundJoinable:
    def order(self):
        return OKB2_ORDER

    def setup_system(self):
        return [Equation(g(b, x), g(x, b))], [Rule(f(x), b)]

    def test_reflexive(self):
        eqs, rules = self.setup_system()
        t = g(f(a), b)
        assert ground_joinable(eqs, rules, self.order(), t, t, 100)

    def test_convertible_ground_terms(self):
        eqs, rules = self.setup_system()
        assert ground_joinable(eqs, rules, self.order(),
                               g(f(a), b), g(b, f(a)), 100)

    def test_distinct_classes(self):
        eqs, rules = self.setup_system()
        assert ground_joinable(eqs, rules, self.order(), a, b, 100) is False

    def test_out_of_fuel(self):
        eqs, rules = self.setup_system()
        t = g(f(a), b)
        assert ground_joinable(eqs, rules, self.order(), t, t, 0) is None

    def test_okb1_instances(self):
        order = OKB1_ORDER
        assert ground_joinable([], OKB1_R, order,
                               times(one, plus(neg(zero), zero)), zero, 100)


class TestStrictGeneralizations:
    def test_constant_has_none(self):
        assert strict_generalizations(a) == []

    def test_simple(self):
        gens = strict_generalizations(f(a))
        assert any(literally_similar(w, f(x)) for w in gens)

    def test_shared_variables(self):
        # s(s(x)) + s(x) generalizes (among others) to s(z) + z
        t = plus(s(s(x)), s(x))
        gens = strict_generalizations(t)
        assert any(literally_similar(w, plus(s(z), z)) for w in gens)
        # no variant of t itself appears
        assert all(not literally_similar(w, t) for w in gens)


def test_covers_of_a_shared_subterm_and_a_split_variable():
    # s(x) holds every occurrence of x, so both go at once; the split of
    # x's two occurrences keeps the first
    assert [canonical_terms([w])[0] for w in covers(plus(s(s(x)), s(x)))] == \
        [plus(s(Var("x1")), Var("x1")), plus(s(s(Var("x1"))), s(Var("x2")))]


@settings(max_examples=200, deadline=None)
@given(t=TERMS)
def test_covers_are_the_least_strict_generalizations(t):
    """Each cover is a strict generalization with none strictly below it,
    every strict generalization lies above a cover, and no two covers are
    variants: the covers are the least strict generalizations."""
    gens, found = strict_generalizations(t), list(covers(t))
    keys = [canonical_terms([w])[0] for w in found]
    assert len(set(keys)) == len(keys)
    assert set(keys) <= {canonical_terms([w])[0] for w in gens}
    assert not any(match(w, u) is not None and match(u, w) is None
                   for w in found for u in gens)
    assert all(any(match(w, c) is not None for c in found) for w in gens)


class TestEncompassReducible:
    ORDER = OrderSpec("lpo", Precedence([("+", "s")]))

    def test_rule_below(self):
        assert encompass_reducible([], [Rule(plus(x, s(y)), s(plus(x, y)))],
                                   self.ORDER, plus(a, s(plus(x, s(y)))))

    def test_root_generalization_case(self):
        # s(s(x)) + s(x) is reducible via the instance s(z) + z -> z + s(z)
        # of commutativity lying strictly below it in the encompassment order
        eqs = [Equation(plus(x, y), plus(y, x))]
        t = plus(s(s(x)), s(x))
        assert encompass_reducible(eqs, [], self.ORDER, t)

    def test_variant_instance_does_not_count(self):
        eqs = [Equation(g(x), g(y))]
        order = OrderSpec("lpo", Precedence([("f", "g")]))
        assert not encompass_reducible(eqs, [], order, g(x))


class TestSimplifyGroundComplete:
    def test_s_plus_example(self):
        rules = [Rule(plus(s(s(x)), s(x)), plus(s(x), s(s(x))))]
        eqs = [Equation(plus(x, s(y)), s(plus(x, y))),
               Equation(plus(s(x), y), s(plus(x, y))),
               Equation(plus(x, y), plus(y, x))]
        order = OrderSpec("lpo", Precedence([("+", "s")]))
        new_eqs, new_rules = simplify_ground_complete(eqs, rules, order, 2000)
        assert trs_variants(new_rules,
                            [Rule(plus(x, s(y)), s(plus(x, y))),
                             Rule(plus(s(x), y), s(plus(x, y)))])
        assert len(new_eqs) == 1
        assert equation_variants(new_eqs[0], Equation(plus(x, y),
                                                      plus(y, x)))

    def test_f_g_example_unchanged(self):
        rules = [Rule(f(x, y), g(x)), Rule(f(x, y), g(y))]
        eqs = [Equation(g(x), g(y))]
        order = OrderSpec("lpo", Precedence([("f", "g")]))
        new_eqs, new_rules = simplify_ground_complete(eqs, rules, order, 2000)
        assert trs_variants(new_rules, rules)
        assert len(new_eqs) == 1
        assert equation_variants(new_eqs[0], eqs[0])

    def test_ground_normal_forms_preserved(self):
        eqs, rules = [Equation(g(b, x), g(x, b))], [Rule(f(x), b)]
        order = OKB2_ORDER
        new_eqs, new_rules = simplify_ground_complete(eqs, rules, order, 2000)
        for t in (g(f(a), b), g(b, f(a)), f(f(a)), b):
            before = ordered_normalize(eqs, rules, order, t, 100)
            after = ordered_normalize(new_eqs, new_rules, order, t, 100)
            assert before == after


def encompass_reducible_by_definition(eqs, rules, order, t):
    """A rule whose left-hand side ``t`` properly encompasses, a decreasing
    equation instance strictly inside ``t``, or a strict generalization of
    ``t`` that is a decreasing equation instance."""
    sides = [(e.lhs, e.rhs) for e in eqs] + [(e.rhs, e.lhs) for e in eqs]

    def decreasing_instance(u):
        return any(tau is not None and order.gt(u, apply_subst(tau, r))
                   for l, r in sides for tau in [match(l, u)])

    return any(properly_encompasses(t, rule.lhs) for rule in rules) or \
        any(decreasing_instance(subterm_at(t, pos))
            for pos in positions(t) if pos != ()) or \
        any(decreasing_instance(w) for w in strict_generalizations(t))


@settings(max_examples=200, deadline=None)
@given(rules=RULES, eqs=EQUATIONS, t=TERMS)
def test_encompass_reducible_is_its_definition(rules, eqs, t):
    assert encompass_reducible(eqs, rules, LPO, t) == \
        encompass_reducible_by_definition(eqs, rules, LPO, t)


KBO = OrderSpec("kbo", Precedence.total(["f", "g", "a", "b"]), KboWeights())
BALANCED = st.lists(st.builds(Equation, TERMS, TERMS).filter(
    lambda e: set(variables(e.lhs)) == set(variables(e.rhs))), max_size=3)


@pytest.mark.parametrize("order", [LPO, KBO], ids=["lpo", "kbo"])
@settings(max_examples=200, deadline=None)
@given(rules=RULES, eqs=BALANCED, t=TERMS)
def test_covers_decide_as_every_generalization(order, rules, eqs, t):
    """With the same variables on both sides of each equation, the search
    of the covers at the root answers as the search of every strict
    generalization: the order is stable under substitution."""
    assert encompass_reducible(eqs, rules, order, t) == \
        encompass_reducible_by_definition(eqs, rules, order, t)
