"""Rewriting with rule sets and with ordered instances of equations.

Every step is found by one primitive, :func:`_contractions`, which lists
the ``(ref, reduct)`` of each candidate rule or oriented equation that
applies at the root of a term.  :func:`_steps` runs it at every position
in preorder (all one-step successors, for confluence checks and oracles),
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

from collections import deque
from typing import Optional, Sequence

from .orders import OrderSpec
from .terms import (Equation, Fun, Position, Rule, Term, Var, apply_subst,
                    match, positions, properly_encompasses, replace_at, size,
                    subterm_at)


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


def _contractions(t: Term, candidates, order: Optional[OrderSpec] = None,
                  whole: Optional[Term] = None):
    """Every candidate applicable at the root of ``t``, in order, as
    ``(ref, reduct)``.

    With ``order``, an equation view applies only where its instance is
    decreasing; with ``whole``, a view applies only when ``whole`` properly
    encompasses its left-hand side.
    """
    symbol = t.symbol if isinstance(t, Fun) else None
    for ref, view in candidates:
        if isinstance(view.lhs, Fun) and view.lhs.symbol != symbol:
            continue
        sigma = match(view.lhs, t)
        if sigma is None:
            continue
        reduct = apply_subst(sigma, view.rhs)
        if order is not None and ref[0][0] == "eq" and \
                not order.gt(t, reduct):
            continue
        if whole is not None and not properly_encompasses(whole, view.lhs):
            continue
        yield ref, reduct


def _steps(t: Term, candidates, order: Optional[OrderSpec] = None):
    """Every step on ``t`` as ``(pos, ref, result)``: positions in
    preorder, candidates in order at each."""
    for pos in positions(t):
        for ref, reduct in _contractions(subterm_at(t, pos), candidates,
                                         order):
            yield pos, ref, replace_at(t, pos, reduct)


def _redex(t: Term, candidates, order, whole):
    if isinstance(t, Var):
        return None
    for i, a in enumerate(t.args, start=1):
        hit = _redex(a, candidates, order, whole)
        if hit is not None:
            pos, ref, result = hit
            return (i,) + pos, ref, replace_at(t, (i,), result)
    hit = next(_contractions(t, candidates, order, whole), None)
    return None if hit is None else ((), hit[0], hit[1])


def innermost_redex(t: Term, candidates, order: Optional[OrderSpec] = None,
                    encompass: bool = False):
    """The leftmost-innermost step on ``t``: ``(pos, ref, result)`` or None.

    ``candidates`` are ``(ref, view)`` pairs, tried in order at each
    position: ``ref`` is ``(('rule', k), False)`` for a rule, or
    ``(('eq', j), rev)`` for an equation read right-to-left when ``rev``,
    and ``view`` is that rule or oriented equation.  ``order`` is as for
    :func:`_contractions`; with ``encompass``, a view applies only when
    ``t`` properly encompasses its left-hand side.  ``result`` is ``t``
    after the step.
    """
    return _redex(t, candidates, order, t if encompass else None)


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


def normalize(rules: Rules, t: Term, fuel: int = 1000) -> Optional[Term]:
    """Innermost normal form of ``t``, or None when fuel runs out."""
    nf = _normal_form(t, _rule_views(rules), None, fuel)
    return None if nf is None else nf[0]


def all_steps(rules: Rules, t: Term) -> list[Step]:
    """Every one-step successor of ``t``: all positions, all rules."""
    return list(_steps(t, _rule_views(rules)))


def joinable(rules: Rules, s: Term, t: Term, fuel: int = 1000) -> Optional[bool]:
    """Do ``s`` and ``t`` rewrite to a common term?

    Tries normal forms first (decisive for complete systems), then a
    bidirectional breadth-first search over all reducts.  Returns True,
    False (both reachable sets exhausted), or None when fuel runs out.
    """
    if s == t:
        return True
    sn = normalize(rules, s, fuel)
    tn = normalize(rules, t, fuel)
    if sn is not None and sn == tn:
        return True
    seen_s, seen_t = {s}, {t}
    frontier_s, frontier_t = deque([s]), deque([t])
    budget = fuel
    while frontier_s or frontier_t:
        for seen, frontier, other in ((seen_s, frontier_s, seen_t),
                                      (seen_t, frontier_t, seen_s)):
            if not frontier:
                continue
            u = frontier.popleft()
            for _, _, v in all_steps(rules, u):
                budget -= 1
                if budget < 0:
                    return None
                if v in other:
                    return True
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return False


def ordered_step(eqs: Eqns, rules: Rules, order: Optional[OrderSpec],
                 t: Term) -> Optional[Step]:
    """Leftmost-innermost step of the rewrite relation R ∪ E-oriented;
    with no equations this is :func:`rewrite_step`."""
    return innermost_redex(t, _rule_views(rules) + _equation_views(eqs),
                           order)


def ordered_normalize(eqs: Eqns, rules: Rules, order: OrderSpec, t: Term,
                      fuel: int = 1000) -> Optional[Term]:
    """Innermost normal form under R ∪ E-oriented, or None when fuel runs
    out."""
    nf = _normal_form(t, _rule_views(rules) + _equation_views(eqs), order,
                      fuel)
    return None if nf is None else nf[0]


def conversion_oracle(pairs: Sequence, s: Term, t: Term, depth: int = 4,
                      size_cap: Optional[int] = None) -> bool:
    """Is there an equational proof s <->* t of at most ``depth`` steps?

    ``pairs`` may mix rules and equations; all are used in both directions.
    Intermediate terms larger than ``max(|s|,|t|) + depth`` (or the given
    ``size_cap``) are pruned, which keeps the search finite but may miss
    long detours.
    """
    cap = size_cap if size_cap is not None else max(size(s), size(t)) + depth
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
