"""Overlaps and critical pairs, plain and ordered.

A critical peak arises when one rule's left-hand side unifies with a
function-symbol position inside another's.  A critical pair is prime when
the contracted redex has no reducible proper subterms; for terminating
systems joinability of the prime critical pairs already decides local
confluence.  Extended critical pairs generalize both notions to ordered
rewriting with a mix of rules and (possibly unorientable) equations.

One enumeration, :func:`critical_peaks`, lists the peaks of E± ∪ R (the
rules, and each equation read both ways); plain completion is the case
E = ∅ with no order.  The prime, extended and linear critical pairs are
filters over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .orders import OrderSpec
from .rewriting import (Eqns, Rules, _equation_views, _rule_views,
                        ordered_step)
from .terms import (Equation, Position, Rule, RuleLike, Term, Var,
                    apply_subst, canonical_terms, fun_positions,
                    pair_variants, proper_subterms, rename_apart, replace_at,
                    subterm_at, unify)


@dataclass(frozen=True)
class Overlap:
    """Rule ``inner`` applies at position ``pos`` inside ``outer``'s lhs."""

    inner: Rule
    outer: Rule
    pos: Position
    mgu: dict

    def redex(self) -> Term:
        """The contracted inner redex, ``inner.lhs`` under the mgu."""
        return apply_subst(self.mgu, self.inner.lhs)

    def pair(self) -> Equation:
        """The critical pair: the inner step's result against the outer's."""
        source = apply_subst(self.mgu, self.outer.lhs)
        reduct = apply_subst(self.mgu, self.inner.rhs)
        return Equation(replace_at(source, self.pos, reduct),
                        apply_subst(self.mgu, self.outer.rhs))


@dataclass(frozen=True)
class CriticalPeak:
    """The two reducts of a critical overlap.

    ``left`` is the result of contracting the inner redex at ``pos`` inside
    the overlapped term; ``right`` contracts that term at the root.
    """

    left: Term
    pos: Position
    right: Term
    prime: bool

    def pair(self) -> Equation:
        return Equation(self.left, self.right)


def _overlap(outer: RuleLike, inner: RuleLike, pos: Position,
             order: Optional[OrderSpec]) -> Optional[Overlap]:
    """The overlap of ``inner``, already renamed apart from ``outer``, at
    the function position ``pos`` of ``outer.lhs``, or None."""
    mgu = unify(inner.lhs, subterm_at(outer.lhs, pos))
    if mgu is None or pos == () and pair_variants(inner, outer):
        return None
    if order is not None and (
            order.gt(apply_subst(mgu, inner.rhs), apply_subst(mgu, inner.lhs))
            or order.gt(apply_subst(mgu, outer.rhs),
                        apply_subst(mgu, outer.lhs))):
        return None
    return Overlap(inner, outer, pos, mgu)


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


def overlaps(rules: Rules) -> list[Overlap]:
    """All overlaps between (renamed-apart) variants of rules in ``rules``.

    A rule overlapping a variant of itself at the root is excluded.
    """
    rule_list = list(rules)
    return [o for outer in rule_list for inner in rule_list
            for o in pair_overlaps(outer, inner)]


def critical_peaks(rules: Rules, eqs: Eqns = (),
                   order: Optional[OrderSpec] = None,
                   linear: bool = False) -> list[CriticalPeak]:
    """The critical peaks of E± ∪ R, under the conditions of
    :func:`pair_overlaps`.

    A peak is prime when every proper subterm of its contracted redex is
    a normal form of the rewrite relation R ∪ E-oriented (of R alone when
    there are no equations).
    """
    views = [view for _, view in _rule_views(rules) + _equation_views(eqs)]
    out = []
    for outer in views:
        for inner in views:
            for o in pair_overlaps(outer, inner, order, linear):
                pair = o.pair()
                prime = all(ordered_step(eqs, rules, order, u) is None
                            for u in proper_subterms(o.redex()))
                out.append(CriticalPeak(pair.lhs, o.pos, pair.rhs, prime))
    return out


def dedup_pairs(eqs: Sequence[Equation]) -> list[Equation]:
    """Drop equations that are variants (as ordered pairs) of earlier ones."""
    seen = set()
    out = []
    for eq in eqs:
        key = canonical_terms([eq.lhs, eq.rhs])
        if key not in seen:
            seen.add(key)
            out.append(eq)
    return out


def critical_pairs(rules: Rules) -> list[Equation]:
    """CP(R): all critical pairs, deduplicated up to literal similarity."""
    return dedup_pairs([o.pair() for o in overlaps(rules)])


def _prime_pairs(peaks: list[CriticalPeak]) -> list[Equation]:
    return dedup_pairs([p.pair() for p in peaks if p.prime])


def prime_critical_pairs(rules: Rules) -> list[Equation]:
    """PCP(R): critical pairs whose contracted redex has irreducible
    proper subterms."""
    return _prime_pairs(critical_peaks(rules))


def extended_critical_pairs(eqs: Eqns, rules: Rules,
                            order: OrderSpec) -> list[Equation]:
    """PCP_>(E ∪ R): prime extended critical pairs, deduplicated.

    For an overlap of l1 ≈ r1 into l2 ≈ r2 with mgu μ the ordering
    conditions require r1μ not > l1μ and r2μ not > l2μ.
    """
    return _prime_pairs(critical_peaks(rules, eqs, order))


def linear_critical_pairs(eqs: Eqns, rules: Rules,
                          order: OrderSpec) -> list[Equation]:
    """Extended critical pairs from overlaps where one side is oriented.

    Keeps an extended overlap of l1 ≈ r1 into l2 ≈ r2 only when
    l1 > r1 and r2 not > l2, or l2 > r2 and r1 not > l1 (on the equations
    themselves, before instantiation).
    """
    return _prime_pairs(critical_peaks(rules, eqs, order, linear=True))
