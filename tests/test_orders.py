"""Reduction orders: LPO, KBO, and the ground-derived order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbd.orders import (InadmissibleOrder, KboWeights, OrderSpec, Precedence,
                        ground_derived_gt, kbo_admissible, kbo_gt, lex_ext,
                        lpo_gt)
from kbd.terms import Fun, Rule, Var

from helpers import memo_lpo_gt, random_term

x, y = Var("x"), Var("y")
a, b, c, d = Fun("a"), Fun("b"), Fun("c"), Fun("d")


def f(*args):
    return Fun("f", args)


def word(w, tail=x):
    t = tail
    for ch in reversed(w):
        t = Fun(ch, (t,))
    return t


class TestPrecedence:
    def test_transitive_closure(self):
        prec = Precedence([("a", "b"), ("b", "c")])
        assert prec.gt("a", "c")

    def test_cycle_rejected(self):
        with pytest.raises(InadmissibleOrder):
            Precedence([("a", "b"), ("b", "a")])

    def test_total(self):
        prec = Precedence.total(["a", "b", "c"])
        assert prec.gt("a", "c") and prec.gt("b", "c")
        assert prec.is_total_on(["a", "b", "c"])
        assert not Precedence([("a", "b")]).is_total_on(["a", "b", "c"])


class TestExtensions:
    def test_lex_ext(self):
        gt = lambda p, q: (p, q) == ("b", "c")
        assert lex_ext(gt, ("a", "b"), ("a", "c"))
        assert not lex_ext(gt, ("a", "c"), ("a", "b"))
        assert not lex_ext(gt, ("a",), ("a",))

    def test_lex_ext_length(self):
        gt = lambda p, q: False
        assert lex_ext(gt, ("a", "b"), ("a",))
        assert not lex_ext(gt, ("a",), ("a", "b"))


class TestLpo:
    def test_precedence_case(self):
        assert lpo_gt(Precedence([("a", "b")]), a, b)
        assert not lpo_gt(Precedence([("a", "b")]), b, a)

    def test_incomparable_constants(self):
        prec = Precedence([("a", "b"), ("a", "c")])
        assert not lpo_gt(prec, b, c)
        assert not lpo_gt(prec, c, b)

    def test_subterm_property(self):
        prec = Precedence()
        assert lpo_gt(prec, f(a, b), a)
        assert lpo_gt(prec, f(x), x)
        assert not lpo_gt(prec, x, f(x))

    def test_ground_total_example(self):
        prec = Precedence.total(["a", "b", "c", "f"])
        assert lpo_gt(prec, Fun("f", (b,)), c)
        assert lpo_gt(prec, a, Fun("f", (b,)))

    def test_strict_order_properties(self, rng):
        prec = Precedence.total(["f", "g", "a", "b"])
        sig = {"f": 2, "g": 1, "a": 0, "b": 0}
        terms = [random_term(rng, sig, ("x",), 2) for _ in range(30)]
        for s in terms:
            assert not lpo_gt(prec, s, s)
            for t in terms:
                assert not (lpo_gt(prec, s, t) and lpo_gt(prec, t, s))
        # closure under substitution (spot check)
        for s in terms:
            for t in terms:
                if lpo_gt(prec, s, t):
                    from kbd.terms import apply_subst
                    inst = {"x": Fun("g", (Fun("a"),))}
                    assert lpo_gt(prec, apply_subst(inst, s),
                                  apply_subst(inst, t))


    def test_deep_terms(self):
        prec = Precedence([("b", "a")])
        deep_b, deep_a = word("g" * 300, b), word("g" * 300, a)
        assert lpo_gt(prec, deep_b, deep_a)
        assert not lpo_gt(prec, deep_a, deep_b)
        assert lpo_gt(prec, word("g" * 300), word("g" * 299))
        assert not lpo_gt(prec, word("g" * 299), word("g" * 300))


SYMBOLS = ["f", "g", "a", "b"]
TERMS = st.recursive(
    st.sampled_from([x, y, a, b]), lambda kids: st.one_of(
        st.builds(lambda s: Fun("g", (s,)), kids),
        st.builds(f, kids, kids)),
    max_leaves=8)


@st.composite
def partial_precedences(draw):
    """A random strict partial order on SYMBOLS: some of the pairs of a
    random total order."""
    order = draw(st.permutations(SYMBOLS))
    pairs = [(p, q) for i, p in enumerate(order) for q in order[i + 1:]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Precedence([pq for pq, k in zip(pairs, keep) if k])


@settings(max_examples=500, deadline=None)
@given(prec=partial_precedences(), s=TERMS, t=TERMS)
def test_lpo_gt_equals_the_memoized_definition(prec, s, t):
    assert lpo_gt(prec, s, t) == memo_lpo_gt(prec, s, t)
    assert lpo_gt(prec, t, s) == memo_lpo_gt(prec, t, s)
    # a pair with shared structure, where the equal-root cases decide
    u = Fun("f", (s, t))
    v = Fun("f", (s, Fun("g", (s,))))
    assert lpo_gt(prec, u, v) == memo_lpo_gt(prec, u, v)
    assert lpo_gt(prec, v, u) == memo_lpo_gt(prec, v, u)


class TestKbo:
    def test_braid_rule(self):
        prec = Precedence([("a", "b")])
        w = KboWeights(1, {})
        assert kbo_gt(prec, w, word("aba"), word("bab"))
        assert not kbo_gt(prec, w, word("bab"), word("aba"))

    def test_okb2_weights(self):
        prec = Precedence([("f", "b")])
        w = KboWeights(1, {})
        assert kbo_gt(prec, w, Fun("f", (x,)), b)

    def test_weight_dominates(self):
        prec = Precedence([("g", "f")])
        w = KboWeights(1, {"f": 3, "g": 1})
        assert kbo_gt(prec, w, f(a), Fun("g", (Fun("g", (a,)),)))

    def test_variable_count_condition(self):
        plus = lambda l, r: Fun("+", (l, r))
        prec = Precedence()
        w = KboWeights(1, {})
        assert not kbo_gt(prec, w, plus(x, y), plus(y, x))
        assert not kbo_gt(prec, w, f(x), f(y))

    def test_unary_chain_case(self):
        # f has weight 0 and is greatest: f(x) > x but also f(f(x)) > f(x)
        prec = Precedence([("f", "a")])
        w = KboWeights(1, {"f": 0})
        assert kbo_gt(prec, w, f(x), x)
        assert kbo_gt(prec, w, f(f(x)), f(x))

    def test_admissibility(self):
        arities = {"f": 1, "a": 0}
        assert kbo_admissible(Precedence([("f", "a")]),
                              KboWeights(1, {"f": 0}), arities) is None
        # weight-zero unary symbol that is not greatest
        msg = kbo_admissible(Precedence([("a", "f")]),
                             KboWeights(1, {"f": 0}), arities)
        assert msg is not None
        # constant below w0
        msg = kbo_admissible(Precedence(), KboWeights(2, {"a": 1}), arities)
        assert msg is not None

    def test_negative_weight_rejected(self):
        # with w(i) = -3, i(x) is lighter than x and kbo_gt would descend
        # forever: i(x) > i(i(x)) > ...
        arities = {"*": 2, "i": 1, "e": 0}
        prec = Precedence.total(["i", "*", "e"])
        msg = kbo_admissible(prec, KboWeights(1, {"i": -3}), arities)
        assert msg is not None and "negative" in msg


class TestGroundDerived:
    BASE = [Rule(Fun("f", (b,)), c), Rule(Fun("f", (c,)), c), Rule(a, c)]

    def order(self):
        return OrderSpec("ground", Precedence.total(["a", "b", "c", "f"]),
                         base=self.BASE)

    def test_distance(self):
        fb = Fun("f", (b,))
        ffb = Fun("f", (fb,))
        assert ground_derived_gt(self.BASE, self.order().precedence,
                                 ffb, Fun("f", (c,)))
        assert self.order().gt(ffb, c)
        assert not self.order().gt(c, ffb)

    def test_incomparable_when_not_convertible(self):
        assert not self.order().gt(b, c)
        assert not self.order().gt(c, b)

    def test_equal_distance_tiebreak_total(self):
        fb = Fun("f", (b,))
        assert self.order().gt(a, fb) or self.order().gt(fb, a)

    def test_validate_needs_base(self):
        with pytest.raises(InadmissibleOrder):
            OrderSpec("ground", Precedence.total(["a"])).validate({"a": 0})

    def test_validate_needs_ground_base(self):
        base = self.BASE + [Rule(Fun("f", (Var("x"),)), c)]
        spec = OrderSpec("ground", self.order().precedence, base=base)
        with pytest.raises(InadmissibleOrder, match="ground base TRS"):
            spec.validate({"a": 0, "b": 0, "c": 0, "f": 1})


class TestOrderSpec:
    def test_orient(self):
        spec = OrderSpec("lpo", Precedence([("a", "b")]))
        assert spec.orient(a, b) == (a, b)
        assert spec.orient(b, a) == (a, b)
        assert spec.orient(b, c) is None

    def test_unknown_kind(self):
        with pytest.raises(InadmissibleOrder):
            OrderSpec("rpo").validate({})

    def test_kbo_validate_rejects_inadmissible(self):
        spec = OrderSpec("kbo", Precedence([("a", "f")]),
                         KboWeights(1, {"f": 0}))
        with pytest.raises(InadmissibleOrder):
            spec.validate({"f": 1, "a": 0})
