"""Terms, substitutions, matching, unification, encompassment."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kbd.terms import (Equation, Fun, InvalidPosition, Rule, Var,
                       apply_subst, arities, canonical_pair, equation_variants,
                       is_ground, match, occurs, pair_variants, positions,
                       rename_apart, replace_at, same, size, subterm_at,
                       unify, var_count, variables)

from helpers import (GROUND_SIG, eager_unify, encompasses, literally_similar,
                     postorder_positions, properly_encompasses, random_term,
                     stack_match)

x, y, z = Var("x"), Var("y"), Var("z")
a, b, c = Fun("a"), Fun("b"), Fun("c")


def f(*args):
    return Fun("f", args)


def g(*args):
    return Fun("g", args)


def word(w, tail=x):
    t = tail
    for ch in reversed(w):
        t = Fun(ch, (t,))
    return t


class TestPositionsAndSubterms:
    def test_replace_at_second_argument(self):
        assert replace_at(f(a, b), (2,), c) == f(a, c)

    def test_replace_at_nested(self):
        assert replace_at(f(g(a)), (1, 1), b) == f(g(b))

    def test_replace_at_root(self):
        assert replace_at(a, (), f(b)) == f(b)

    def test_invalid_position(self):
        with pytest.raises(InvalidPosition):
            subterm_at(f(a), (2,))
        with pytest.raises(InvalidPosition):
            replace_at(x, (1,), a)

    def test_roundtrip_property(self, rng):
        for _ in range(200):
            t = random_term(rng, GROUND_SIG, ("x", "y"), 3)
            for p in positions(t):
                assert replace_at(t, p, subterm_at(t, p)) == t

    def test_postorder_is_permutation_with_root_last(self):
        t = f(g(a), b)
        post = postorder_positions(t)
        assert sorted(post) == sorted(positions(t))
        assert post[-1] == ()
        assert post[0] == (1, 1)

    def test_size_and_variables(self):
        t = f(x, g(x, y))
        assert size(t) == 5
        assert variables(t) == ["x", "y"]
        assert var_count(t, "x") == 2
        assert not is_ground(t)
        assert is_ground(f(a, b))


class TestSubstitution:
    def test_apply_duplicates(self):
        assert apply_subst({"x": b}, f(x, x)) == f(b, b)

    def test_apply_leaves_unbound(self):
        assert apply_subst({"x": g(y)}, f(x, z)) == f(g(y), z)


class TestMatch:
    def test_match_basic(self):
        sigma = match(f(x, y), f(a, g(b)))
        assert sigma == {"x": a, "y": g(b)}

    def test_match_nonlinear(self):
        assert match(f(x, x), f(a, b)) is None
        assert match(f(x, x), f(a, a)) == {"x": a}

    def test_match_fails_symbol(self):
        assert match(f(x, y), g(a, b)) is None


class TestUnify:
    def test_unify_word(self):
        sigma = unify(word("a"), word("aba", Var("y")))
        assert sigma == {"x": word("ba", Var("y"))}

    def test_unify_applies_equal(self, rng):
        for _ in range(300):
            s = random_term(rng, {"f": 2, "g": 1, "a": 0}, ("x", "y"), 3)
            t = random_term(rng, {"f": 2, "g": 1, "a": 0}, ("x", "y"), 3)
            sigma = unify(s, t)
            if sigma is not None:
                assert apply_subst(sigma, s) == apply_subst(sigma, t)
                # idempotent
                for key, val in sigma.items():
                    assert apply_subst(sigma, val) == val

    def test_occurs_check(self):
        assert occurs("x", f(g(x)))
        assert unify(x, f(x)) is None
        assert unify(f(x, a), f(g(x), a)) is None

    def test_unify_deterministic(self):
        s, t = f(x, g(y)), f(g(z), x)
        assert unify(s, t) == unify(s, t)
        sigma = unify(s, t)
        assert apply_subst(sigma, s) == apply_subst(sigma, t)


    def test_binding_order(self):
        # left to right: x is bound first, to y; then y meets itself
        assert unify(f(x, y), f(y, x)) == {"x": y}
        assert unify(f(g(x), x), f(y, a)) == {"y": g(a), "x": a}

    def test_deep_equality(self):
        deep = word("ab" * 2500)
        assert same(deep, word("ab" * 2500))
        assert not same(deep, word("ab" * 2499 + "ba"))
        assert not same(deep, word("ab" * 2500, y))


TERMS = st.recursive(
    st.sampled_from([x, y, z, a]), lambda kids: st.one_of(
        st.builds(g, kids), st.builds(f, kids, kids)),
    max_leaves=8)


@settings(max_examples=500, deadline=None)
@given(s=TERMS, t=TERMS, data=st.data())
def test_unify_equals_the_eager_unifier(s, t, data):
    assert unify(s, t) == eager_unify(s, t)
    # an instance of a variant of s, which often unifies with s
    u = data.draw(st.builds(
        lambda p, q: apply_subst({"x": p, "y": q, "z": Var("x")}, s),
        TERMS, TERMS))
    assert unify(s, u) == eager_unify(s, u)
    assert unify(u, s) == eager_unify(u, s)


MATCH_TERMS = st.recursive(
    st.sampled_from([x, y, z, a]), lambda kids: st.one_of(
        st.builds(g, kids), st.builds(f, kids, kids),
        st.builds(lambda r, s, t: Fun("h", (r, s, t)), kids, kids, kids)),
    max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(p=MATCH_TERMS, s=MATCH_TERMS, data=st.data())
def test_match_equals_the_stack_matcher(p, s, data):
    """Patterns over unary, binary and ternary symbols, non-linear and
    variable ones among them, against random subjects and instances of
    the pattern."""
    assert match(p, s) == stack_match(p, s)
    u = data.draw(st.builds(
        lambda q, r: apply_subst({"x": q, "y": r}, p), MATCH_TERMS,
        MATCH_TERMS))
    assert match(p, u) == stack_match(p, u)


class TestEncompassment:
    def test_variable_not_encompassed_by_bigger(self):
        assert not encompasses(x, f(x, x))

    def test_nonlinear_proper(self):
        assert properly_encompasses(f(x, x), f(x, y))

    def test_subterm_instance(self):
        # the interreduction example: s(s(x)) + s(x) properly encompasses
        # s(x) + x
        s_ = lambda t: Fun("s", (t,))
        plus = lambda l, r: Fun("+", (l, r))
        big = plus(s_(s_(x)), s_(x))
        small = plus(s_(x), x)
        assert properly_encompasses(big, small)
        assert not properly_encompasses(small, big)

    def test_variants_not_proper(self):
        assert encompasses(f(x, y), f(y, z))
        assert not properly_encompasses(f(x, y), f(y, z))


class TestSimilarityAndVariants:
    def test_literally_similar(self):
        assert literally_similar(f(x, y), f(y, z))
        assert not literally_similar(f(x, x), f(x, y))

    def test_pair_variants_joint_renaming(self):
        assert pair_variants(Rule(f(x, y), x), Rule(f(y, z), y))
        assert not pair_variants(Rule(f(x, y), x), Rule(f(x, y), y))

    def test_equation_variants_unordered(self):
        assert equation_variants(Equation(a, b), Equation(b, a))
        assert not pair_variants(Equation(a, b), Equation(b, a))

    def test_canonical_pair(self):
        assert canonical_pair(Rule(f(y, z), y)) == (f(Var("x1"), Var("x2")),
                                                    Var("x1"))


class TestRenameApart:
    def test_self_overlap(self):
        r = Rule(f(x, a), x)
        fresh = rename_apart(r, r)
        shared = set(variables(fresh.lhs)) & set(variables(r.lhs))
        assert not shared
        assert pair_variants(r, fresh)

    def test_disjoint_unchanged(self):
        r1, r2 = Rule(a, b), Rule(g(y), y)
        assert rename_apart(r1, r2) is r2

    def test_partial_clash(self):
        r1 = Rule(f(x, y), x)
        r2 = Rule(Fun("h", (y,)), y)
        fresh = rename_apart(r1, r2)
        assert "y" not in variables(fresh.lhs)


class TestRuleValidation:
    def test_variable_lhs_rejected(self):
        with pytest.raises(ValueError):
            Rule(x, a)

    def test_fresh_rhs_variable_rejected(self):
        with pytest.raises(ValueError):
            Rule(f(x, x), y)


class TestSignature:
    def test_arity_conflict(self):
        with pytest.raises(ValueError, match="^symbol f used with arities 2 "
                           "and 1$"):
            arities([f(a, b), Fun("f", (a,))])

    def test_symbols(self):
        assert arities([f(a, b)]) == {"f": 2, "a": 0, "b": 0}
