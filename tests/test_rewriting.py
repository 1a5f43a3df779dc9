"""Rewriting: innermost steps, normalization, joinability, ordered steps."""

from hypothesis import given, settings
from hypothesis import strategies as st

from kbd.orders import OrderSpec, Precedence
from kbd.rewriting import (_equation_views, _normal_form, _rule_views,
                           conversion_oracle, is_normal_form, normalize,
                           ordered_normalize, ordered_step, rewrite_step)
from kbd.terms import (Equation, Fun, Rule, Var, apply_subst, match,
                       positions, replace_at, same, size, subterm_at,
                       variables)

from helpers import (GROUND_SIG, all_steps, joinable, postorder_positions,
                     random_ground_term, stepwise_normal_form)

x, y = Var("x"), Var("y")
a, b, c = Fun("a"), Fun("b"), Fun("c")
fb = Fun("f", (b,))
fc = Fun("f", (c,))

GROUND5 = [Rule(fb, c), Rule(fc, c), Rule(a, c)]


def f(*args):
    return Fun("f", args)


def plus(l, r):
    return Fun("+", (l, r))


def word(w, tail=x):
    t = tail
    for ch in reversed(w):
        t = Fun(ch, (t,))
    return t


class TestStep:
    def test_innermost_first(self):
        pos, _, result = rewrite_step(GROUND5, Fun("f", (fb,)))
        assert pos == (1,)
        assert result == fc

    def test_leftmost_of_parallel(self):
        rules = [Rule(a, b)]
        pos, _, _ = rewrite_step(rules, f(a, a))
        assert pos == (1,)

    def test_inner_before_outer(self):
        rules = [Rule(a, b), Rule(f(a), c)]
        pos, _, result = rewrite_step(rules, f(a))
        assert pos == (1,) and result == f(b)

    def test_normal_form_has_no_step(self):
        assert rewrite_step(GROUND5, c) is None
        assert is_normal_form(GROUND5, c)

    def test_nonterminating_rule_steps(self):
        assert rewrite_step([Rule(a, a)], a) == \
            ((), (("rule", 0), False), a)

    def test_all_steps(self):
        rules = [Rule(f(a), b), Rule(f(a), c), Rule(a, a)]
        results = {(pos, str(result))
                   for pos, _, result in all_steps(rules, f(a))}
        assert results == {((), "b"), ((), "c"), ((1,), "f(a)")}


class TestNormalize:
    def test_already_normal(self):
        assert normalize(GROUND5, c, 100) == c

    def test_two_steps(self):
        assert normalize(GROUND5, Fun("f", (fb,)), 100) == c

    def test_out_of_fuel_is_none(self):
        assert normalize([Rule(a, a)], a, 50) is None

    def test_deep_unary_term(self):
        deep = word("f" * 5000, a)
        assert same(normalize([Rule(f(x), Fun("g", (x,)))], deep, 5000),
                    word("g" * 5000, a))
        assert normalize([Rule(f(x), Fun("g", (x,)))], deep, 4999) is None


class TestJoinable:
    def test_common_reduct(self):
        assert joinable([Rule(a, c), Rule(b, c)], a, b, 10) is True

    def test_distinct_normal_forms(self):
        rules = [Rule(f(a), b), Rule(f(a), c), Rule(a, a)]
        assert joinable(rules, b, c, 10) is False

    def test_fuel_exhaustion_is_none(self):
        rules = [Rule(a, f(a))]
        assert joinable(rules, a, b, 3) is None

    def test_finite_loop_is_false(self):
        # the reachable sets are finite, so the verdict is definitive
        assert joinable([Rule(a, a)], a, b, 10) is False

    def test_joinable_despite_loops(self):
        # normal forms never emerge, but the reachable sets meet
        rules = [Rule(a, b), Rule(b, a), Rule(c, b)]
        assert joinable(rules, a, c, 100) is True


class TestOrderedRewriting:
    COMM = [Equation(plus(x, y), plus(y, x))]

    def order(self):
        return OrderSpec("lpo", Precedence.total(["b", "a", "+"]))

    def test_decreasing_instance(self):
        hit = ordered_step(self.COMM, [], self.order(), plus(b, a))
        assert hit == ((), (("eq", 0), False), plus(a, b))

    def test_no_step_on_smaller_side(self):
        assert ordered_step(self.COMM, [], self.order(), plus(a, b)) is None

    def test_unorientable_schema_no_variable_step(self):
        assert ordered_step(self.COMM, [], self.order(), plus(x, y)) is None

    def test_ordered_normalize(self):
        t = plus(plus(b, a), plus(b, a))
        nf = ordered_normalize(self.COMM, [], self.order(), t, 100)
        assert nf == plus(plus(a, b), plus(a, b))

    def test_rules_apply_too(self):
        rules = [Rule(a, b)]
        _, _, result = ordered_step(self.COMM, rules, self.order(), a)
        assert result == b

    def test_rules_before_equations_at_one_position(self):
        rules = [Rule(plus(b, a), a)]
        hit = ordered_step(self.COMM, rules, self.order(), plus(b, a))
        assert hit == ((), (("rule", 0), False), a)


class TestConversionOracle:
    def test_chain(self):
        eqs = [Equation(a, b), Equation(b, c)]
        assert conversion_oracle(eqs, a, c, 3) is True

    def test_unreachable(self):
        assert conversion_oracle([Equation(a, b)], a, c, 5) is False

    def test_braid_single_step(self):
        eqs = [Equation(word("aba"), word("bab"))]
        assert conversion_oracle(eqs, word("aba"), word("bab"), 1) is True

    def test_instance_step(self):
        eqs = [Equation(plus(Fun("0"), x), x)]
        assert conversion_oracle(eqs, plus(Fun("0"), a), a, 2) is True


class TestRandomProperties:
    def test_normalize_reaches_normal_form(self, rng):
        for _ in range(100):
            t = random_ground_term(rng, GROUND_SIG, 3)
            nf = normalize(GROUND5, t, 1000)
            assert nf is not None and is_normal_form(GROUND5, nf)

    def test_joinable_reflexive(self, rng):
        for _ in range(50):
            t = random_ground_term(rng, GROUND_SIG, 3)
            assert joinable(GROUND5, t, t, 1000) is True


# -- the shared redex search against a brute-force scan -------------------

LEAVES = st.sampled_from([x, y, a, b])
TERMS = st.recursive(
    LEAVES, lambda kids: st.one_of(
        st.builds(lambda s: Fun("g", (s,)), kids),
        st.builds(f, kids, kids)),
    max_leaves=6)
RULES = st.lists(
    st.tuples(TERMS, TERMS).filter(
        lambda p: isinstance(p[0], Fun)
        and set(variables(p[1])) <= set(variables(p[0]))).map(
            lambda p: Rule(*p)),
    max_size=3)
EQUATIONS = st.lists(st.builds(Equation, TERMS, TERMS), max_size=3)
LPO = OrderSpec("lpo", Precedence.total(["f", "g", "a", "b"]))


def scan_candidates(rules, eqs=()):
    """(index, is_equation, reversed, lhs, rhs): rules, then each equation
    left to right and right to left."""
    return [(i, False, False, r.lhs, r.rhs) for i, r in enumerate(rules)] + \
        [(j, True, rev, l, r) for j, eq in enumerate(eqs)
         for rev, (l, r) in enumerate([(eq.lhs, eq.rhs), (eq.rhs, eq.lhs)])]


def scan_at(t, pos, candidates, order=None):
    sub = subterm_at(t, pos)
    for index, is_eq, rev, l, r in candidates:
        sigma = match(l, sub)
        if sigma is None:
            continue
        reduct = apply_subst(sigma, r)
        if is_eq and not order.gt(sub, reduct):
            continue
        return (pos, index, replace_at(t, pos, reduct), is_eq, bool(rev))
    return None


def scan(t, candidates, order=None):
    """The first step over postorder positions × candidates."""
    for pos in postorder_positions(t):
        hit = scan_at(t, pos, candidates, order)
        if hit is not None:
            return hit
    return None


def as_tuple(hit):
    if hit is None:
        return None
    pos, ((space, index), rev), result = hit
    return (pos, index, result, space == "eq", rev)


@settings(max_examples=300, deadline=None)
@given(rules=RULES, t=TERMS)
def test_rewrite_step_is_the_first_step_of_a_scan(rules, t):
    assert as_tuple(rewrite_step(rules, t)) == \
        scan(t, scan_candidates(rules))


@settings(max_examples=300, deadline=None)
@given(rules=RULES, eqs=EQUATIONS, t=TERMS)
def test_ordered_step_is_the_first_step_of_a_scan(rules, eqs, t):
    assert as_tuple(ordered_step(eqs, rules, LPO, t)) == \
        scan(t, scan_candidates(rules, eqs), LPO)


def full_scan(t, sides):
    """Every ``(pos, index, result)`` over preorder positions × the
    ``(lhs, rhs)`` sides."""
    return [(pos, i, replace_at(t, pos, apply_subst(sigma, r)))
            for pos in positions(t)
            for i, (l, r) in enumerate(sides)
            for sigma in [match(l, subterm_at(t, pos))] if sigma is not None]


@settings(max_examples=300, deadline=None)
@given(rules=RULES, t=TERMS)
def test_all_steps_is_a_full_scan(rules, t):
    hits = all_steps(rules, t)
    assert all(ref == (("rule", ref[0][1]), False) for _, ref, _ in hits)
    assert [(pos, ref[0][1], result) for pos, ref, result in hits] == \
        full_scan(t, [(rule.lhs, rule.rhs) for rule in rules])


def scan_conversion(pairs, s, depth, cap):
    """The terms within ``depth`` steps of ``s`` by the pairs used both
    ways, through terms of size at most ``cap`` (``s`` itself exempt)."""
    sides = [(p.lhs, p.rhs) for p in pairs] + [(p.rhs, p.lhs) for p in pairs]
    seen = level = {s}
    for _ in range(depth):
        level = {v for u in level for _, _, v in full_scan(u, sides)
                 if size(v) <= cap} - seen
        seen = seen | level
    return seen


@settings(max_examples=200, deadline=None)
@given(rules=RULES, eqs=EQUATIONS, s=TERMS, depth=st.integers(0, 2),
       data=st.data())
def test_conversion_oracle_is_a_full_scan(rules, eqs, s, depth, data):
    pairs = rules + eqs
    near = sorted(scan_conversion(pairs, s, depth, size(s) + depth), key=str)
    t = data.draw(st.one_of(TERMS, st.sampled_from(near)))
    cap = max(size(s), size(t)) + depth
    assert conversion_oracle(pairs, s, t, depth) == \
        (t in scan_conversion(pairs, s, depth, cap))


@settings(max_examples=300, deadline=None)
@given(rules=RULES, eqs=EQUATIONS, t=TERMS, fuel=st.integers(0, 8))
def test_normal_form_equals_repeated_innermost_steps(rules, eqs, t, fuel):
    # a term with redexes inside and at the root, besides the random one
    terms = [t] + [f(t, Fun("g", (r.lhs,))) for r in rules[:1]]
    for views, order in ((_rule_views(rules), None),
                         (_rule_views(rules) + _equation_views(eqs), LPO)):
        for u in terms:
            assert _normal_form(u, views, order, fuel) == \
                stepwise_normal_form(u, views, order, fuel)
