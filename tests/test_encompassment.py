"""Proper encompassment read off a match.

When ℓ matches s|p with matcher σ, s properly encompasses ℓ exactly when
p is not the root or σ is not a renaming.  The redex search, replay's
step check and ``encompass_reducible`` rely on this in place of a second
search over the subterms of s; these properties compare the claim, the
redex search and ``encompass_reducible`` with the definition, on terms
built to hold variants and instances of the left-hand sides at the root
and below it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from kbd.ordered import encompass_reducible
from kbd.rewriting import _equation_views, _rule_views, innermost_redex
from kbd.terms import Fun, Var, apply_subst, match, positions, subterm_at, \
    variables

from helpers import encompassing_redex, is_renaming, properly_encompasses
from test_rewriting import EQUATIONS, LPO, RULES, TERMS

x, y, z = Var("x"), Var("y"), Var("z")
a, b = Fun("a"), Fun("b")
VARS = st.sampled_from([x, y, z])


def f(*args):
    return Fun("f", args)


def g(t):
    return Fun("g", (t,))


# left-hand sides over a, b, g, f and x, y, z: any term, a variable, and
# non-linear ones
LHS = st.one_of(TERMS, VARS, st.builds(lambda v, t: f(v, f(t, v)), VARS,
                                       TERMS))


@st.composite
def around(draw, lhs):
    """A term holding an instance of ``lhs`` (a variant of it, often)
    under a random context of at most two layers."""
    names = variables(lhs)
    n = len(names)
    images = draw(st.one_of(st.permutations([x, y, z]).map(lambda vs: vs[:n]),
                            st.lists(st.one_of(VARS, TERMS), min_size=n,
                                     max_size=n)))
    t = apply_subst(dict(zip(names, images)), lhs)
    for _ in range(draw(st.integers(0, 2))):
        other = draw(TERMS)
        t = draw(st.sampled_from([g(t), f(t, other), f(other, t)]))
    return t


@settings(max_examples=200, deadline=None)
@given(data=st.data(), lhs=LHS)
def test_matcher_decides_proper_encompassment(data, lhs):
    s = data.draw(st.one_of(TERMS, around(lhs)))
    proper = properly_encompasses(s, lhs)
    for p in positions(s):
        sigma = match(lhs, subterm_at(s, p))
        if sigma is not None:
            assert proper == (p != () or not is_renaming(sigma))


def views_and_term(rules, eqs, data):
    views = _rule_views(rules) + _equation_views(eqs)
    lhss = [view.lhs for _, view in views]
    t = data.draw(st.one_of(TERMS, st.sampled_from(lhss).flatmap(around))
                  if lhss else TERMS)
    return views, t


@settings(max_examples=200, deadline=None)
@given(rules=RULES, eqs=EQUATIONS, data=st.data())
def test_encompassing_redex_is_its_definition(rules, eqs, data):
    views, t = views_and_term(rules, eqs, data)
    for order in (None, LPO):
        assert innermost_redex(t, views, order, True) == \
            encompassing_redex(t, views, order)


@settings(max_examples=200, deadline=None)
@given(rules=RULES, eqs=EQUATIONS, data=st.data())
def test_encompass_reducible_tests_each_rule(rules, eqs, data):
    _, t = views_and_term(rules, [], data)
    assert encompass_reducible(eqs, rules, LPO, t) == \
        (any(properly_encompasses(t, rule.lhs) for rule in rules)
         or encompass_reducible(eqs, [], LPO, t))

