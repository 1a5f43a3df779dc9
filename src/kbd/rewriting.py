"""Rewriting with rule sets and with ordered instances of equations.

Every step is found by one primitive, :func:`_contractions`, which lists
the ``(ref, reduct)`` of each candidate rule or oriented equation that
applies at the root of a term.  :func:`_steps` runs it at every position
in preorder (all one-step successors, for :func:`conversion_oracle`),
and :func:`innermost_redex` takes its first hit at each position in
leftmost-innermost order: arguments left to right before the root, so
repeated stepping computes a unique innermost normal form.  Rules,
decreasing equation instances and the completion engines all step
through these.  :func:`_normal_form` takes the same steps bottom-up:
it normalizes the arguments of a node left to right, then tries the
root, and after a root step normalizes the reduct, so that no part of
the term already found normal is searched again.

Searches take a ``fuel`` budget counted in rewrite steps.  Running out of
fuel yields ``None`` (a "maybe" answer), never an exception.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .orders import OrderSpec
from .terms import (Equation, Fun, Position, Rule, Term, Var, apply_subst,
                    match, positions, replace_at, size, subterm_at)


Rules = Sequence[Rule]
Eqns = Sequence[Equation]
Step = tuple[Position, tuple, Term]  # (pos, ref, result), as _steps yields


def _rule_views(rules: Rules, skip: Optional[int] = None) -> list:
    """The candidates of :func:`innermost_redex` for the rules but
    rule#skip."""
    return [((("rule", k), False), rule) for k, rule in enumerate(rules)
            if k != skip]


def _equation_views(eqs: Eqns, skip: Optional[int] = None) -> list:
    """The candidates for the equations but eq#skip, each read both ways."""
    return [((("eq", j), rev), eq.reversed() if rev else eq)
            for j, eq in enumerate(eqs) if j != skip for rev in (False, True)]


def _format_ref(ref) -> str:
    """A view's reference as traces print it: rule#k, eq#j fwd or rev."""
    (space, k), rev = ref
    out = "%s#%d" % (space, k)
    if space == "eq":
        out += " rev" if rev else " fwd"
    return out


def _renames(sigma) -> bool:
    """Does the matcher ``sigma`` map its variables to distinct
    variables?"""
    values = sigma.values()
    return all(isinstance(u, Var) for u in values) and \
        len(set(values)) == len(sigma)


def _contractions(t: Term, candidates, order: Optional[OrderSpec] = None,
                  proper: bool = False):
    """Every candidate applicable at the root of ``t``, in order, as
    ``(ref, reduct)``.

    With ``order``, an equation view applies only where its instance is
    decreasing.  With ``proper``, a view applies only where ``t`` properly
    encompasses its left-hand side, which at the root means that the
    matcher is not a renaming (see :func:`kbd.ordered.encompass_reducible`).
    """
    symbol = t.symbol if isinstance(t, Fun) else None
    for ref, view in candidates:
        if isinstance(view.lhs, Fun) and view.lhs.symbol != symbol:
            continue
        sigma = match(view.lhs, t)
        if sigma is None or proper and _renames(sigma):
            continue
        reduct = apply_subst(sigma, view.rhs)
        if order is not None and ref[0][0] == "eq" and \
                not order.gt(t, reduct):
            continue
        yield ref, reduct


def _steps(t: Term, candidates):
    """Every step on ``t`` as ``(pos, ref, result)``: positions in
    preorder, candidates in order at each."""
    for pos in positions(t):
        for ref, reduct in _contractions(subterm_at(t, pos), candidates):
            yield pos, ref, replace_at(t, pos, reduct)


def innermost_redex(t: Term, candidates, order: Optional[OrderSpec] = None,
                    encompass: bool = False):
    """The leftmost-innermost step on ``t``: ``(pos, ref, result)`` or None.

    ``candidates`` are ``(ref, view)`` pairs, tried in order at each
    position: ``ref`` is ``(('rule', k), False)`` for a rule, or
    ``(('eq', j), rev)`` for an equation read right-to-left when ``rev``,
    and ``view`` is that rule or oriented equation.  ``order`` is as for
    :func:`_contractions`.  The arguments are searched left to right
    before the root.  With ``encompass``, a view applies at the root only
    when its matcher is not a renaming, that is, when ``t`` properly
    encompasses its left-hand side; below the root it always does, so the
    search of the arguments drops the flag.  ``result`` is ``t`` after
    the step.
    """
    if isinstance(t, Var):
        return None
    for i, a in enumerate(t.args, start=1):
        hit = innermost_redex(a, candidates, order)
        if hit is not None:
            pos, ref, result = hit
            return (i,) + pos, ref, replace_at(t, (i,), result)
    hit = next(_contractions(t, candidates, order, encompass), None)
    return None if hit is None else ((), hit[0], hit[1])


def rewrite_step(rules: Rules, t: Term) -> Optional[Step]:
    """Leftmost-innermost rewrite step, or None if ``t`` is a normal form."""
    return innermost_redex(t, _rule_views(rules))


def is_normal_form(rules: Rules, t: Term) -> bool:
    return rewrite_step(rules, t) is None


def _normal_form(t: Term, candidates, order: Optional[OrderSpec],
                 fuel: int) -> Optional[tuple[Term, int]]:
    """The innermost normal form of ``t`` and the number of steps to it,
    or None when it takes more than ``fuel`` steps.

    The term is normalized bottom-up: the arguments of a node left to
    right, then its root, and after a root step the reduct.  When a node
    is reached, every part of the term left of it or below it is normal,
    so each step is the one :func:`innermost_redex` would take.  A node
    known to be normal is not searched again: ``normal`` holds them by
    identity (and keeps them alive, so that an identity is not reused).
    """
    steps = 0
    normal: dict[int, Term] = {}
    done: list[Term] = []
    # a term to normalize, or a (term) node whose arguments are on ``done``
    todo: list = [t]
    while todo:
        u = todo.pop()
        if isinstance(u, tuple):
            u = u[0]
            if u.args:
                n = len(u.args)
                args = tuple(done[-n:])
                del done[-n:]
                if any(a is not b for a, b in zip(args, u.args)):
                    u = Fun(u.symbol, args)
            hit = next(_contractions(u, candidates, order), None)
            if hit is not None:
                if steps == fuel:
                    return None
                steps += 1
                todo.append(hit[1])
                continue
            normal[id(u)] = u
            done.append(u)
        elif isinstance(u, Var) or id(u) in normal:
            done.append(u)
        else:
            todo.append((u,))
            todo.extend(reversed(u.args))
    return done[0], steps


def normalize(rules: Rules, t: Term, fuel: int) -> Optional[Term]:
    """Innermost normal form of ``t``, or None when fuel runs out."""
    nf = _normal_form(t, _rule_views(rules), None, fuel)
    return None if nf is None else nf[0]


def ordered_step(eqs: Eqns, rules: Rules, order: Optional[OrderSpec],
                 t: Term) -> Optional[Step]:
    """Leftmost-innermost step of the rewrite relation R ∪ E-oriented;
    with no equations this is :func:`rewrite_step`."""
    return innermost_redex(t, _rule_views(rules) + _equation_views(eqs),
                           order)


def ordered_normalize(eqs: Eqns, rules: Rules, order: OrderSpec, t: Term,
                      fuel: int) -> Optional[Term]:
    """Innermost normal form under R ∪ E-oriented, or None when fuel runs
    out."""
    nf = _normal_form(t, _rule_views(rules) + _equation_views(eqs), order,
                      fuel)
    return None if nf is None else nf[0]


def conversion_oracle(pairs: Sequence, s: Term, t: Term,
                      depth: int = 4) -> bool:
    """Is there an equational proof s <->* t of at most ``depth`` steps?

    ``pairs`` may mix rules and equations; all are used in both directions.
    Intermediate terms larger than ``max(|s|,|t|) + depth`` are pruned,
    which keeps the search finite but may miss long detours.
    """
    cap = max(size(s), size(t)) + depth
    views = _equation_views([Equation(p.lhs, p.rhs) for p in pairs])
    seen = {s}
    frontier = [s]
    for _ in range(depth):
        if t in seen:
            return True
        new: list[Term] = []
        for u in frontier:
            for _, _, v in _steps(u, views):
                if size(v) <= cap and v not in seen:
                    seen.add(v)
                    new.append(v)
        frontier = new
        if not frontier:
            break
    return t in seen
