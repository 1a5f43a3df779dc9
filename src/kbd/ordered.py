"""Ordered completion and its linear variant.

Ordered completion rewrites not only with rules but with any instance of
an equation that the reduction order makes decreasing.  It never fails:
unorientable equations simply stay in the equation part, and the limit
``E-oriented ∪ R`` is ground-complete.  The linear variant restricts
rewriting in the side conditions to rules and deduction to linear
critical pairs, which keeps linear systems linear.

``simplify_ground_complete`` interreduces a ground-complete presentation
without losing ground normal forms, and ``ground_joinable`` decides
joinability of ground terms under ordered rewriting.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Optional, Sequence

from .completion import RunResult, _Driver
from .critical_pairs import dedup_pairs
from .orders import OrderSpec
from .rewriting import (_contractions, _equation_views, _rule_views,
                        innermost_redex, normalize, ordered_normalize)
from .terms import (Equation, Fun, Position, Rule, Term, Var, positions,
                    replace_at, subterm_at, var_count, variables)


class _OrderedDriver(_Driver):
    """The engine loop of ordered ('kbo') and linear ('kbl') completion.
    Their calculus records say all that differs; the class stays because
    ``bench/tracer.py`` looks it up by name."""


def run_kbo(eqs: Sequence[Equation], order: OrderSpec,
            fuel: Optional[int] = 10000) -> RunResult:
    """Ordered completion; quiesces with a ground-complete (E, R)."""
    return _OrderedDriver(eqs, order, "kbo", fuel).run()


def run_kbl(eqs: Sequence[Equation], order: OrderSpec,
            fuel: Optional[int] = 10000) -> RunResult:
    """Ordered completion for linear input: rewriting in side conditions
    uses rules only and deduction adds linear critical pairs only."""
    return _OrderedDriver(eqs, order, "kbl", fuel).run()


def ground_joinable(eqs: Sequence[Equation], rules: Sequence[Rule],
                    order: OrderSpec, s: Term, t: Term,
                    fuel: int) -> Optional[bool]:
    """Do ground terms ``s`` and ``t`` meet under ordered rewriting?

    For a ground-complete system the ordered normal forms of convertible
    ground terms coincide, so comparing them decides conversion.
    """
    sn = ordered_normalize(eqs, rules, order, s, fuel)
    tn = ordered_normalize(eqs, rules, order, t, fuel)
    if sn is None or tn is None:
        return None
    return sn == tn


def covers(t: Term) -> Iterator[Term]:
    """The covers of ``t`` that are not variables: the terms one step more
    general than ``t`` in the subsumption order, each once up to renaming.

    Each cover puts one fresh variable at
    - a nonempty set of occurrences of one constant,
    - every occurrence of a subterm f(y1, …, yn) whose arguments are
      variables occurring nowhere else in ``t`` (hence distinct), or
    - a nonempty proper subset of one variable's occurrences, taken from
      all but its first, so that each split of them comes once.

    These undo the elementary substitutions {z ↦ c}, {z ↦ f(y1, …, yn)}
    and {z ↦ x} (Plotkin 1970; Huet 1976).  The root stays, since
    generalizing it gives a variable.
    """
    sites: dict[Term, list[Position]] = {}
    for p in positions(t)[1:]:
        sites.setdefault(subterm_at(t, p), []).append(p)
    # longer than every variable name of t, so fresh
    fresh = Var("_" * (1 + max(map(len, variables(t)), default=0)))
    for u, ps in sites.items():
        if isinstance(u, Fun) and u.args:
            choices = [ps] if all(
                isinstance(y, Var) and var_count(t, y.name) == len(ps)
                for y in u.args) else []
        else:
            if isinstance(u, Var):
                ps = ps[1:]
            choices = (c for k in range(1, len(ps) + 1)
                       for c in combinations(ps, k))
        for chosen in choices:
            w = t
            for p in chosen:
                w = replace_at(w, p, fresh)
            yield w


def encompass_reducible(eqs: Sequence[Equation], rules: Sequence[Rule],
                        order: OrderSpec, t: Term) -> bool:
    """Is ``t`` reducible by a rule of E-oriented ∪ R lying properly
    below it in the encompassment order?

    Rules fire when ``t`` properly encompasses their left-hand side.  For
    equations any decreasing instance counts, provided ``t`` properly
    encompasses that instance.  Strictly inside ``t`` this is any ordered
    step; at the root it means a strict generalization of ``t`` that is a
    decreasing instance of an equation.  A view that matches such a
    generalization also matches ``t``, so the generalizations are only
    searched when some view matches ``t``.

    The root search tries the :func:`covers` of ``t`` alone.  A reduction
    order is stable under substitution: when a strict generalization w =
    lσ of ``t`` has lσ > rσ, for a view l ≈ r whose sides have the same
    variables, then lσρ > rσρ for every term wρ between w and ``t``.
    Every strict generalization of ``t`` but a variable lies above a
    cover of ``t``, which is then a decreasing instance too.  A variable
    on one side of a view only stays unbound in the instance, so for such
    a view the answer of either search can depend on variable names.

    Proper encompassment is read off the match that finds a redex: when
    ℓ matches ``t`` at position p with matcher σ, ``t`` properly
    encompasses ℓ exactly when p is not the root or σ is not a renaming
    (it maps two variables to one, or one to a non-variable).  If ℓ
    encompassed ``t`` as well, then size(ℓ) >= size(t) >= size(t|p) =
    size(ℓσ) >= size(ℓ), so p is the root and σ maps each variable to a
    variable or a constant; as ℓ also encompasses ``t`` = ℓσ at its root
    alone, σ can neither send a variable to a constant nor two variables
    to one.  The converse is immediate: a renaming makes ``t`` a variant
    of ℓ.
    """
    if innermost_redex(t, _rule_views(rules), encompass=True) is not None:
        return True
    views = _equation_views(eqs)
    if isinstance(t, Fun) and any(innermost_redex(a, views, order)
                                  for a in t.args):
        return True
    return next(_contractions(t, views), None) is not None and \
        any(next(_contractions(w, views, order), None)
            for w in covers(t))


def simplify_ground_complete(eqs: Sequence[Equation],
                             rules: Sequence[Rule], order: OrderSpec,
                             fuel: int) -> tuple[list[Equation], list[Rule]]:
    """Interreduce a ground-complete system, preserving ground normal forms.

    The orientable equation instances join the rules; right-hand sides are
    normalized; rules whose left-hand side is reducible strictly below
    itself (in the encompassment order) by the original system are
    dropped; finally the equations are normalized with the surviving
    rules and trivial ones removed.  Raises RuntimeError when a term does
    not normalize within ``fuel`` steps.
    """
    def nf(system, t):
        out = normalize(system, t, fuel)
        if out is None:
            raise RuntimeError("%s does not normalize within %d steps"
                               % (t, fuel))
        return out

    q = list(rules)
    for eq in eqs:
        for (l, r) in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
            if order.gt(l, r) and not isinstance(l, Var) and \
                    set(variables(r)) <= set(variables(l)):
                q.append(Rule(l, r))
    qdot = dedup_pairs([Rule(rule.lhs, nf(q, rule.rhs)) for rule in q])
    new_rules = [rule for rule in qdot
                 if not encompass_reducible(eqs, rules, order, rule.lhs)]
    new_eqs = []
    for eq in eqs:
        l, r = nf(new_rules, eq.lhs), nf(new_rules, eq.rhs)
        if l != r:
            new_eqs.append(Equation(l, r))
    return dedup_pairs(new_eqs), new_rules
