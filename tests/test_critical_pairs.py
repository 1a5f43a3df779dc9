"""Critical pairs: plain, prime, extended, and linear."""

import glob
import os

from kbd.cli import search_lpo
from kbd.critical_pairs import (critical_pairs, critical_peaks,
                                extended_critical_pairs,
                                linear_critical_pairs, overlaps,
                                prime_critical_pairs)
from kbd.orders import OrderSpec, Precedence
from kbd.parsing import parse_problem
from kbd.terms import (Equation, Fun, Rule, Var, canonical_pair,
                       equation_variants, pair_variants)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

x, y = Var("x"), Var("y")
a, b, c = Fun("a"), Fun("b"), Fun("c")

PCPEX = [Rule(Fun("f", (a,)), b), Rule(Fun("f", (a,)), c), Rule(a, a)]


def f(*args):
    return Fun("f", args)


def plus(l, r):
    return Fun("+", (l, r))


def word(w, tail=x):
    t = tail
    for ch in reversed(w):
        t = Fun(ch, (t,))
    return t


def has_variant(eqs, eq):
    return any(equation_variants(e, eq) for e in eqs)


def variant_set(eqs):
    return {canonical_pair(e) for e in eqs}


class TestOverlaps:
    def test_no_self_root_overlap(self):
        assert overlaps([Rule(a, b)]) == []
        assert overlaps([Rule(f(x, y), x)]) == []

    def test_word_self_overlap(self):
        rule = Rule(word("aba"), word("ab"))
        positions = {o.pos for o in overlaps([rule])}
        assert (1, 1) in positions
        assert () not in positions

    def test_root_overlap_of_distinct_rules(self):
        os = overlaps(PCPEX)
        assert any(o.pos == () and o.inner is not o.outer for o in os)
        assert any(o.pos == (1,) for o in os)


class TestCriticalPairs:
    def test_single_rule_none(self):
        assert critical_pairs([Rule(a, b)]) == []

    def test_braid_monoid_pairs(self):
        rules = [Rule(word("aba"), word("ab")), Rule(word("bb"), word("b"))]
        cps = critical_pairs(rules)
        assert has_variant(cps, Equation(word("abab", y), word("abba", y)))
        assert has_variant(cps, Equation(word("bb"), word("bb")))

    def test_pcpex_pairs(self):
        cps = critical_pairs(PCPEX)
        assert has_variant(cps, Equation(b, c))
        assert has_variant(cps, Equation(f(a), b))
        assert has_variant(cps, Equation(f(a), c))

    def test_dedup_up_to_renaming(self):
        rules = [Rule(f(f(x)), Fun("g", (x,)))]
        cps = critical_pairs(rules)
        assert len(cps) == 1
        assert has_variant(cps, Equation(f(Fun("g", (x,))),
                                         Fun("g", (f(x),))))


class TestPrimeCriticalPairs:
    def test_single_rule_none(self):
        assert prime_critical_pairs([Rule(a, b)]) == []

    def test_pcpex_exactly_two(self):
        pcps = prime_critical_pairs(PCPEX)
        assert len(pcps) == 2
        assert has_variant(pcps, Equation(f(a), b))
        assert has_variant(pcps, Equation(f(a), c))

    def test_root_pair_not_prime(self):
        pcps = prime_critical_pairs(PCPEX)
        cps = critical_pairs(PCPEX)
        assert has_variant(cps, Equation(b, c))
        assert not has_variant(pcps, Equation(b, c))

    def test_peak_prime_flags(self):
        peaks = critical_peaks(PCPEX)
        for p in peaks:
            if p.pos == ():
                assert not p.prime
            else:
                assert p.prime


def lpo(*chain):
    return OrderSpec("lpo", Precedence.total(list(chain)))


class TestExtendedCriticalPairs:
    def test_single_equation_no_pairs(self):
        order = lpo("a", "b")
        assert extended_critical_pairs([Equation(a, b)], [], order) == []

    def test_okb1_extended_pair(self):
        one, zero = Fun("1"), Fun("0")
        times = lambda l, r: Fun("*", (l, r))
        neg = lambda t: Fun("-", (t,))
        eqs = [Equation(times(one, plus(x, neg(x))), plus(x, neg(x))),
               Equation(plus(neg(x), x), plus(y, neg(y)))]
        order = lpo("*", "-", "+", "1", "0")
        xcps = extended_critical_pairs(eqs, [], order)
        target = Equation(times(one, plus(neg(Var("z")), Var("z"))),
                          plus(x, neg(x)))
        assert has_variant(xcps, target)

    def test_rule_rule_pairs_included(self):
        order = lpo("f", "a", "b", "c")
        xcps = extended_critical_pairs([], PCPEX, order)
        plain = prime_critical_pairs(PCPEX)
        for eq in plain:
            assert has_variant(xcps, eq)
        # with no equations and rules the order orients, every overlap
        # meets the ordering conditions: the two enumerations agree
        checked = 0
        for path in sorted(glob.glob(os.path.join(FIXTURES, "*.trs"))):
            with open(path) as fh:
                rules = parse_problem(fh.read()).rules
            prec = search_lpo(rules)
            if not rules or prec is None:
                continue
            order = OrderSpec("lpo", prec)
            assert variant_set(extended_critical_pairs([], rules, order)) == \
                variant_set(prime_critical_pairs(rules)), path
            checked += 1
        assert checked >= 5

    def test_unorientable_outer_condition(self):
        # overlap into the smaller side of an oriented equation is dropped
        order = lpo("a", "b", "c")
        eqs = [Equation(a, b), Equation(b, c)]
        xcps = extended_critical_pairs(eqs, [], order)
        # a ≈ b (at root of b within... ) only orientable-compatible peaks:
        # the peak c <- b <- a is no overlap; nothing to deduce
        assert all(not eq.is_trivial() for eq in xcps)


class TestLinearCriticalPairs:
    def test_empty(self):
        assert linear_critical_pairs([], [], lpo("a")) == []

    def test_plus_commutativity(self):
        zero = Fun("0")
        eqs = [Equation(plus(zero, x), x), Equation(plus(x, y), plus(y, x))]
        order = lpo("+", "0")
        lcps = linear_critical_pairs(eqs, [], order)
        assert has_variant(lcps, Equation(plus(x, zero), x)) or \
            has_variant(lcps, Equation(x, plus(x, zero)))

    def test_subset_of_extended(self):
        zero = Fun("0")
        eqs = [Equation(plus(zero, x), x), Equation(plus(x, y), plus(y, x))]
        order = lpo("+", "0")
        xcps = extended_critical_pairs(eqs, [], order)
        for eq in linear_critical_pairs(eqs, [], order):
            assert has_variant(xcps, eq)
