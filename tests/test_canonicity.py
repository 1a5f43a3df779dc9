"""Canonicity transformations and normalization equivalence."""

import pytest

from kbd.canonicity import rddot, rdot, trs_variants
from kbd.terms import Fun, Rule, Var

from helpers import (enumerate_ground_terms, is_left_reduced, is_reduced,
                     is_right_reduced, same_normal_forms)

x, y = Var("x"), Var("y")
a, b, c = Fun("a"), Fun("b"), Fun("c")


def f(t):
    return Fun("f", (t,))


# the four-rule system from the variant-freeness example
VARIANT_R = [Rule(f(x), a), Rule(f(y), b), Rule(a, c), Rule(b, c)]

GROUND5 = [Rule(f(b), c), Rule(f(c), c), Rule(a, c)]


class TestReducedPredicates:
    def test_empty_reduced(self):
        assert is_reduced([])

    def test_ground_example_reduced(self):
        assert is_left_reduced(GROUND5)
        assert is_right_reduced(GROUND5)
        assert is_reduced(GROUND5)

    def test_variant_example_not_right_reduced(self):
        assert not is_right_reduced(VARIANT_R)
        # the two f-rules are variants of each other, so each left-hand
        # side is reducible by the other rule
        assert not is_left_reduced(VARIANT_R)

    def test_left_reducible(self):
        rules = [Rule(f(a), b), Rule(a, c)]
        assert not is_left_reduced(rules)


class TestRdot:
    def test_chain(self):
        assert rdot([Rule(a, b), Rule(b, c)]) == [Rule(a, c), Rule(b, c)]

    def test_variant_merge(self):
        out = rdot(VARIANT_R)
        assert trs_variants(out, [Rule(f(x), c), Rule(a, c), Rule(b, c)])

    def test_nonterminating_rhs_raises(self):
        with pytest.raises(RuntimeError):
            rdot([Rule(a, f(a))], fuel=20)


class TestRddot:
    def test_empty(self):
        assert rddot([]) == []

    def test_variant_example(self):
        out = rddot(VARIANT_R)
        assert trs_variants(out, [Rule(f(x), c), Rule(a, c), Rule(b, c)])

    def test_drops_covered_lhs(self):
        rules = [Rule(f(a), c), Rule(a, c), Rule(f(c), c)]
        out = rddot(rules)
        assert trs_variants(out, [Rule(a, c), Rule(f(c), c)])

    def test_output_reduced_and_equivalent(self):
        out = rddot(VARIANT_R)
        assert is_reduced(out)
        terms = enumerate_ground_terms({"f": 1, "a": 0, "b": 0, "c": 0}, 3)
        assert same_normal_forms(VARIANT_R, out, terms)

    def test_idempotent(self):
        once = rddot(VARIANT_R)
        assert trs_variants(once, rddot(once))


class TestTrsVariants:
    def test_variants(self):
        assert trs_variants([Rule(Fun("f", (x, y)), x)],
                            [Rule(Fun("f", (y, Var("z"))), y)])

    def test_nonlinear_mismatch(self):
        assert not trs_variants([Rule(Fun("f", (x, x)), x)],
                                [Rule(Fun("f", (x, y)), x)])

    def test_multiset_matching(self):
        r1 = [Rule(a, b), Rule(a, b)]
        r2 = [Rule(a, b)]
        assert not trs_variants(r1, r2)


class TestSameNormalForms:
    def test_direction_counterexample(self):
        # a -> b versus b -> a compute different normal forms for a
        assert not same_normal_forms([Rule(a, b)], [Rule(b, a)], [a, b])

    def test_consistent_with_rddot(self):
        terms = enumerate_ground_terms({"f": 1, "a": 0, "b": 0, "c": 0}, 3)
        assert same_normal_forms(GROUND5, rddot(GROUND5), terms)
