"""Overlaps and critical pairs, plain and ordered.

A critical peak arises when one rule's left-hand side unifies with a
function-symbol position inside another's.  A critical pair is prime when
the contracted redex has no reducible proper subterms; for terminating
systems joinability of the prime critical pairs already decides local
confluence.  Extended critical pairs generalize both notions to ordered
rewriting with a mix of rules and (possibly unorientable) equations.

One enumeration, :func:`peak_pairs`, lists the critical pairs of a list
of views (the rules, and in the ordered calculi each equation read both
ways), each with the first :class:`Peak` that yields it.  The completion
engines scan with it, keeping each pair of views' overlaps for a whole
run in an :class:`OverlapCache`; replay checks a deduce that names no
peak against it; and CP, PCP and the extended and linear critical pairs
are one-liners over it.  Plain completion is the case of rule views and
no order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional, Sequence

from .orders import OrderSpec
from .rewriting import (Eqns, Rules, _equation_views, _rule_views,
                        innermost_redex)
from .terms import (Equation, Position, RuleLike, Term, Var, apply_subst,
                    canonical_pair, fun_positions, pair_variants,
                    rename_apart, replace_at, subterm_at, unify)


class Peak(NamedTuple):
    """The critical peak a critical pair comes from: ``inner`` overlaps
    ``outer`` at position ``pos`` of ``outer``'s left-hand side.

    Each participant is a reference and a direction, as the views of
    :func:`kbd.rewriting.innermost_redex` carry them: ``(('rule', k),
    False)`` or, for an equation, ``(('eq', j), rev)``.
    """

    outer: tuple[tuple[str, int], bool]
    inner: tuple[tuple[str, int], bool]
    pos: Position


class Overlap(NamedTuple):
    """An overlap at position ``pos`` of the outer view's left-hand side:
    its critical pair (the inner step's result against the outer's) and
    the contracted inner redex."""

    pos: Position
    pair: Equation
    redex: Term


def _overlap(outer: RuleLike, inner: RuleLike, pos: Position,
             order: Optional[OrderSpec]) -> Optional[Overlap]:
    """The overlap of ``inner``, already renamed apart from ``outer``, at
    the function position ``pos`` of ``outer.lhs``, or None."""
    mgu = unify(inner.lhs, subterm_at(outer.lhs, pos))
    if mgu is None or pos == () and pair_variants(inner, outer):
        return None
    redex, reduct = apply_subst(mgu, inner.lhs), apply_subst(mgu, inner.rhs)
    if order is not None and order.gt(reduct, redex):
        return None
    source, other = apply_subst(mgu, outer.lhs), apply_subst(mgu, outer.rhs)
    if order is not None and order.gt(other, source):
        return None
    return Overlap(pos, Equation(replace_at(source, pos, reduct), other),
                   redex)


def _linear_condition(inner: RuleLike, outer: RuleLike,
                      order: OrderSpec) -> bool:
    """One participant is oriented by the order and the other is not
    increasing, judged on the equations before instantiation."""
    l1, r1 = inner.lhs, inner.rhs
    l2, r2 = outer.lhs, outer.rhs
    return (order.gt(l1, r1) and not order.gt(r2, l2)) or \
        (order.gt(l2, r2) and not order.gt(r1, l1))


def pair_overlaps(outer: RuleLike, inner: RuleLike,
                  order: Optional[OrderSpec] = None,
                  linear: bool = False) -> list[Overlap]:
    """Overlaps of a renamed-apart variant of ``inner`` into ``outer``.

    A rule overlapping a variant of itself at the root is excluded.  With
    an ``order`` the participants are oriented equations and an overlap
    with mgu μ is kept only when r1μ not > l1μ and r2μ not > l2μ; with
    ``linear`` as well, only when one participant is oriented (see
    :func:`linear_critical_pairs`).  The result depends on ``outer`` and
    ``inner`` alone, so a completion run can compute it once per pair.
    """
    inner = rename_apart(outer, inner)
    out = []
    for pos in fun_positions(outer.lhs):
        o = _overlap(outer, inner, pos, order)
        if o is not None:
            out.append(o)
    if linear and out and not _linear_condition(inner, outer, order):
        return []
    return out


def overlap_at(outer: RuleLike, inner: RuleLike, pos: Position,
               order: Optional[OrderSpec] = None) -> Optional[Overlap]:
    """The overlap of ``inner`` into ``outer`` at ``pos``, under the
    conditions of :func:`pair_overlaps`, or None.

    Raises InvalidPosition when ``pos`` is not a position of ``outer.lhs``.
    """
    if isinstance(subterm_at(outer.lhs, pos), Var):
        return None
    return _overlap(outer, rename_apart(outer, inner), pos, order)


@dataclass
class OverlapCache:
    """The overlaps of each pair of views, kept by :func:`peak_pairs`
    from one scan to the next of a completion run.

    The overlaps of two views depend on the two views alone (and on the
    order and ``linear``, fixed for the run).  Each view gets a small id
    the first time it is seen, so that a scan hashes each view once; an
    entry holds a pair of views' :class:`Overlap` list, and each scan
    keeps only its own pairs'.
    """

    ids: dict[RuleLike, int] = field(default_factory=dict)
    overlaps: dict[tuple[int, int], list] = field(default_factory=dict)


def peak_pairs(views, order: Optional[OrderSpec] = None,
               linear: bool = False, prime: bool = True,
               cache: Optional[OverlapCache] = None
               ) -> Iterator[tuple[Equation, Peak]]:
    """The critical pairs of ``views``, each with the first peak that
    yields it, one at a time, so that a search for one pair stops when it
    finds it.

    ``views`` are ``(ref, view)`` pairs as :func:`kbd.rewriting.
    _rule_views` and :func:`kbd.rewriting._equation_views` build them.
    Overlaps are those of :func:`pair_overlaps` under ``order`` and
    ``linear``, taken by outer view, then inner view, then position, and
    the pairs are deduplicated up to variants (as ordered pairs), keeping
    the first.  With ``prime``, only prime pairs are kept: those whose
    redex has arguments irreducible by the views (the order deciding
    which equation instances apply), since a reducible subterm makes every
    term around it reducible.  ``cache`` carries the overlaps from one
    scan to the next, for scans with the same ``order`` and ``linear``; a
    scan left unfinished keeps only the pairs it reached.
    """
    if cache is None:
        cache = OverlapCache()
    ids = [cache.ids.setdefault(view, len(cache.ids))
           for _, view in views]
    old, cache.overlaps = cache.overlaps, {}
    seen = set()
    for (oref, outer), oid in zip(views, ids):
        for (iref, inner), iid in zip(views, ids):
            found = old.get((oid, iid))
            if found is None:
                found = pair_overlaps(outer, inner, order, linear)
            cache.overlaps[oid, iid] = found
            for pos, pair, redex in found:
                if prime and any(innermost_redex(a, views, order)
                                 for a in redex.args):
                    continue
                key = canonical_pair(pair)
                if key not in seen:
                    seen.add(key)
                    yield pair, Peak(oref, iref, pos)


def dedup_pairs(eqs: Sequence[RuleLike]) -> list[RuleLike]:
    """Drop equations or rules that are variants (as ordered pairs) of
    earlier ones."""
    seen = set()
    out = []
    for eq in eqs:
        key = canonical_pair(eq)
        if key not in seen:
            seen.add(key)
            out.append(eq)
    return out


def critical_pairs(rules: Rules) -> list[Equation]:
    """CP(R): all critical pairs, deduplicated up to literal similarity."""
    return [pair for pair, _ in peak_pairs(_rule_views(rules), prime=False)]


def prime_critical_pairs(rules: Rules) -> list[Equation]:
    """PCP(R): critical pairs whose contracted redex has irreducible
    proper subterms."""
    return [pair for pair, _ in peak_pairs(_rule_views(rules))]


def extended_critical_pairs(eqs: Eqns, rules: Rules,
                            order: OrderSpec) -> list[Equation]:
    """PCP_>(E ∪ R): prime extended critical pairs, deduplicated.

    For an overlap of l1 ≈ r1 into l2 ≈ r2 with mgu μ the ordering
    conditions require r1μ not > l1μ and r2μ not > l2μ.
    """
    views = _rule_views(rules) + _equation_views(eqs)
    return [pair for pair, _ in peak_pairs(views, order)]


def linear_critical_pairs(eqs: Eqns, rules: Rules,
                          order: OrderSpec) -> list[Equation]:
    """Extended critical pairs from overlaps where one side is oriented.

    Keeps an extended overlap of l1 ≈ r1 into l2 ≈ r2 only when
    l1 > r1 and r2 not > l2, or l2 > r2 and r1 not > l1 (on the equations
    themselves, before instantiation).
    """
    views = _rule_views(rules) + _equation_views(eqs)
    return [pair for pair, _ in peak_pairs(views, order, linear=True)]
