"""Critical pairs: plain, prime, extended, and linear."""

import glob
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from kbd.cli import search_lpo
from kbd.critical_pairs import (OverlapCache, critical_pairs,
                                extended_critical_pairs,
                                linear_critical_pairs, pair_overlaps,
                                peak_pairs, prime_critical_pairs)
from kbd.orders import OrderSpec, Precedence
from kbd.parsing import parse_problem
from kbd.rewriting import _equation_views, _rule_views
from kbd.terms import (Equation, Fun, Rule, Var, canonical_pair,
                       equation_variants, pair_variants, variables)

from helpers import reference_pairs

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
        for rule in (Rule(a, b), Rule(f(x, y), x)):
            assert pair_overlaps(rule, rule) == []

    def test_word_self_overlap(self):
        rule = Rule(word("aba"), word("ab"))
        positions = {o.pos for o in pair_overlaps(rule, rule)}
        assert (1, 1) in positions
        assert () not in positions

    def test_root_overlap_of_distinct_rules(self):
        os = [(outer, inner, o) for outer in PCPEX for inner in PCPEX
              for o in pair_overlaps(outer, inner)]
        assert any(o.pos == () and not pair_variants(inner, outer)
                   for outer, inner, o in os)
        assert any(o.pos == (1,) for _, _, o in os)


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
        # the root overlaps of f(a) -> b and f(a) -> c contract f(a), whose
        # argument a -> a reduces; a -> a into f(a) at 1 contracts a
        views = _rule_views(PCPEX)
        every = list(peak_pairs(views, prime=False))
        assert {peak.pos for _, peak in every} == {(), (1,)}
        assert list(peak_pairs(views)) == [(pair, peak) for pair, peak
                                           in every if peak.pos != ()]


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


# -- the one enumeration against the all-subterms primality oracle ------

LEAVES = st.sampled_from([x, y, a, b])
TERMS = st.recursive(
    LEAVES, lambda kids: st.one_of(
        st.builds(lambda s: Fun("g", (s,)), kids),
        st.builds(lambda s, t: Fun("f", (s, t)), kids, kids)),
    max_leaves=5)
RULES = st.tuples(TERMS.filter(lambda t: isinstance(t, Fun)), TERMS).filter(
    lambda lr: set(variables(lr[1])) <= set(variables(lr[0]))).map(
    lambda lr: Rule(*lr))
ORDERS = st.permutations(["f", "g", "a", "b"]).map(lpo)


@settings(max_examples=150, deadline=None)
@given(rules=st.lists(RULES, max_size=3),
       eqs=st.lists(st.builds(Equation, TERMS, TERMS), max_size=2),
       order=ORDERS)
def test_peak_pairs_match_reference(rules, eqs, order):
    """Testing only the redex's arguments for steps lists the same pairs,
    in the same order, as testing every proper subterm of it."""
    assert critical_pairs(rules) == reference_pairs(rules, prime=False)
    assert prime_critical_pairs(rules) == reference_pairs(rules)
    assert extended_critical_pairs(eqs, rules, order) == \
        reference_pairs(rules, eqs, order)
    assert linear_critical_pairs(eqs, rules, order) == \
        reference_pairs(rules, eqs, order, linear=True)
    views = _rule_views(rules) + _equation_views(eqs)
    assert [pair for pair, _ in peak_pairs(views, order, prime=False)] == \
        reference_pairs(rules, eqs, order, prime=False)
    # overlaps cached from a scan of other views give the same scan
    cache = OverlapCache()
    list(peak_pairs(_equation_views(eqs) + _rule_views(rules[1:]), order,
                    cache=cache))
    assert list(peak_pairs(views, order, cache=cache)) == \
        list(peak_pairs(views, order))
