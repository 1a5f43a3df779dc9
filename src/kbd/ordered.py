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

from typing import Optional, Sequence

from .completion import RunResult, _Driver
from .critical_pairs import dedup_pairs
from .orders import OrderSpec
from .rewriting import (_contractions, _equation_views, _rule_views,
                        innermost_redex, normalize, ordered_normalize)
from .terms import (Equation, Fun, Rule, Term, Var, canonical_terms,
                    positions, replace_at, subterm_at, variables)


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


def strict_generalizations(t: Term) -> list[Term]:
    """All terms strictly more general than ``t``, up to renaming.

    Generalizations replace the subterms at an antichain of positions by
    variables, where positions carrying equal subterms may share one.
    Variants of ``t`` itself are excluded.
    """
    pos = [p for p in positions(t) if p != ()]
    out = []
    seen = {canonical_terms([t])[0]}

    def parallel(p, q):
        return p[:len(q)] != q and q[:len(p)] != p

    def antichains(rest):
        if not rest:
            yield []
            return
        head, tail = rest[0], rest[1:]
        for chain in antichains(tail):
            yield chain
        compatible = [q for q in tail if parallel(head, q)]
        for chain in antichains(compatible):
            yield [head] + chain

    def partitions(items):
        if not items:
            yield []
            return
        head, tail = items[0], items[1:]
        for part in partitions(tail):
            for i, group in enumerate(part):
                if subterm_at(t, group[0]) == subterm_at(t, head):
                    yield part[:i] + [[head] + group] + part[i + 1:]
            yield [[head]] + part

    for chain in antichains(pos):
        if not chain:
            continue
        for part in partitions(chain):
            w = t
            for i, group in enumerate(part):
                for p in group:
                    w = replace_at(w, p, Var("g%d" % i))
            key = canonical_terms([w])[0]
            if key not in seen:
                seen.add(key)
                out.append(w)
    return out


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
            for w in strict_generalizations(t))


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
