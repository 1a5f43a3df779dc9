"""Reduction orders: lexicographic path order, Knuth-Bendix order, and a
ground order derived from a reduced ground rewrite system.

All comparisons go through :class:`OrderSpec`, whose ``gt(s, t)`` method
dispatches on the order kind.  The lexicographic and multiset extensions of
an arbitrary strict order live here as well.

The LPO follows B. Löchner, "Things to know when implementing LPO"
(IJAIT 15(1), 2006): each case compares only what the subterm property
and transitivity leave open, so it needs no memo table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .terms import Fun, Term, Var, occurs, same, var_count, variables


class InadmissibleOrder(ValueError):
    """Raised when order parameters violate the admissibility conditions."""


class Precedence:
    """A strict partial order on function symbols, given by pairs f > g.

    The transitive closure is computed up front; a cycle is rejected,
    naming its least symbol.
    """

    def __init__(self, pairs: Sequence[tuple[str, str]] = ()):
        self.pairs = set(pairs)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(self.pairs):
                for (c, d) in list(self.pairs):
                    if b == c and (a, d) not in self.pairs:
                        self.pairs.add((a, d))
                        changed = True
        for (a, b) in sorted(self.pairs):
            if a == b:
                raise InadmissibleOrder("cyclic precedence through %s" % a)

    @classmethod
    def total(cls, symbols: Sequence[str]) -> "Precedence":
        """Total precedence with symbols listed from greatest to least."""
        syms = list(symbols)
        return cls([(syms[i], syms[j])
                    for i in range(len(syms)) for j in range(i + 1, len(syms))])

    def gt(self, f: str, g: str) -> bool:
        return (f, g) in self.pairs

    def is_total_on(self, symbols: Sequence[str]) -> bool:
        syms = list(symbols)
        return all(self.gt(f, g) or self.gt(g, f)
                   for i, f in enumerate(syms) for g in syms[i + 1:] if f != g)

    def __repr__(self):
        return "Precedence(%r)" % sorted(self.pairs)


GtFn = Callable[[Term, Term], bool]


def lex_ext(gt: GtFn, xs: Sequence, ys: Sequence) -> bool:
    """Lexicographic extension of a strict order to sequences."""
    for x, y in zip(xs, ys):
        if x == y:
            continue
        return gt(x, y)
    return len(xs) > len(ys)


def lpo_gt(prec: Precedence, s: Term, t: Term) -> bool:
    """Lexicographic path order induced by a (possibly partial) precedence.

    Löchner's formulation: with equal root symbols and ``i`` the first
    argument where ``s`` and ``t`` differ, ``s > t`` is decided by
    ``s > t_j`` for the ``j > i`` when ``s_i > t_i``, and otherwise by
    ``s_j >= t`` for some ``j > i``; with ``f > g`` every ``s > t_j`` must
    hold, and otherwise some ``s_j >= t``.  The cases left out are implied
    by the subterm property and transitivity, so no comparison is
    repeated and nothing is memoized.
    """
    if isinstance(t, Var):
        return isinstance(s, Fun) and occurs(t.name, s)
    if isinstance(s, Var):
        return False
    if s.symbol == t.symbol:
        for i, (si, ti) in enumerate(zip(s.args, t.args)):
            if not same(si, ti):
                break
        else:
            return False
        if lpo_gt(prec, si, ti):
            return _lpo_dominates(prec, s, t.args[i + 1:])
        rest = s.args[i + 1:]
    elif prec.gt(s.symbol, t.symbol):
        return _lpo_dominates(prec, s, t.args)
    else:
        rest = s.args
    for sj in rest:
        if same(sj, t) or lpo_gt(prec, sj, t):
            return True
    return False


def _lpo_dominates(prec: Precedence, s: Term, ts) -> bool:
    """``s > t_j`` for every ``t_j`` in ``ts``."""
    for tj in ts:
        if not lpo_gt(prec, s, tj):
            return False
    return True


@dataclass
class KboWeights:
    """Weight function for the Knuth-Bendix order."""

    w0: int = 1
    weights: dict[str, int] = field(default_factory=dict)

    def of_symbol(self, f: str) -> int:
        return self.weights.get(f, 1)

    def of_term(self, t: Term) -> int:
        if isinstance(t, Var):
            return self.w0
        return self.of_symbol(t.symbol) + \
            sum(self.of_term(a) for a in t.args)


def kbo_admissible(prec: Precedence, w: KboWeights,
                   arities: dict[str, int]) -> Optional[str]:
    """None if the KBO parameters are admissible, else a reason string."""
    if w.w0 <= 0:
        return "w0 must be positive"
    for f, wf in w.weights.items():
        if wf < 0:
            return "symbol %s has negative weight %d" % (f, wf)
    for f, n in arities.items():
        wf = w.of_symbol(f)
        if n == 0 and wf < w.w0:
            return "constant %s has weight %d < w0" % (f, wf)
        if n == 1 and wf == 0:
            for g in arities:
                if g != f and not prec.gt(f, g):
                    return ("unary symbol %s of weight 0 must be greatest "
                            "in the precedence" % f)
    return None


def kbo_gt(prec: Precedence, w: KboWeights, s: Term, t: Term) -> bool:
    """Knuth-Bendix order with weights ``w`` and precedence ``prec``."""
    for x in variables(t):
        if var_count(s, x) < var_count(t, x):
            return False
    ws, wt = w.of_term(s), w.of_term(t)
    if ws > wt:
        return True
    if ws < wt:
        return False
    if isinstance(s, Var):
        return False
    if isinstance(t, Var):
        # s = f(f(...f(x))) for a chain of unary symbols above x
        u: Term = s
        while isinstance(u, Fun) and len(u.args) == 1:
            u = u.args[0]
        return u == t
    if prec.gt(s.symbol, t.symbol):
        return True
    if s.symbol != t.symbol:
        return False
    return lex_ext(lambda a, b: kbo_gt(prec, w, a, b), s.args, t.args)


@dataclass
class OrderSpec:
    """A reduction order selected by kind: 'lpo', 'kbo' or 'ground'.

    For 'ground' the order is derived from a reduced ground TRS ``base``:
    s > t iff s and t are convertible in ``base`` and either s needs more
    rewrite steps to reach the (unique) normal form, or equally many and
    s is greater in a tie-breaking KBO with all weights 1.
    """

    kind: str = "lpo"
    precedence: Precedence = field(default_factory=Precedence)
    weights: KboWeights = field(default_factory=KboWeights)
    base: Optional[object] = None  # a TRS when kind == 'ground'

    def validate(self, arities: dict[str, int]):
        if self.kind == "kbo":
            reason = kbo_admissible(self.precedence, self.weights, arities)
            if reason:
                raise InadmissibleOrder(reason)
        elif self.kind == "ground":
            if self.base is None:
                raise InadmissibleOrder("ground order needs a base TRS")
            for rule in self.base:
                if variables(rule.lhs) or variables(rule.rhs):
                    raise InadmissibleOrder(
                        "ground order needs a ground base TRS: %s" % rule)
            if not self.precedence.is_total_on(list(arities)):
                raise InadmissibleOrder(
                    "ground order needs a total precedence")
        elif self.kind != "lpo":
            raise InadmissibleOrder("unknown order kind %r" % self.kind)

    def total_on(self, symbols: Sequence[str]) -> bool:
        """Is the order total on the ground terms over ``symbols``?  LPO
        and KBO are when their precedence is; a ground order never is."""
        return self.kind in ("lpo", "kbo") and \
            self.precedence.is_total_on(symbols)

    def gt(self, s: Term, t: Term) -> bool:
        if self.kind == "lpo":
            return lpo_gt(self.precedence, s, t)
        if self.kind == "kbo":
            return kbo_gt(self.precedence, self.weights, s, t)
        if self.kind == "ground":
            return ground_derived_gt(self.base, self.precedence, s, t)
        raise InadmissibleOrder("unknown order kind %r" % self.kind)

    def orient(self, lhs: Term, rhs: Term) -> Optional[tuple[Term, Term]]:
        """Orient an equation into a decreasing pair, or None."""
        if self.gt(lhs, rhs):
            return (lhs, rhs)
        if self.gt(rhs, lhs):
            return (rhs, lhs)
        return None


def ground_derived_gt(base, prec: Precedence, s: Term, t: Term) -> bool:
    """Ground order derived from a reduced ground TRS (see OrderSpec).

    Each side is walked once to its base-normal form, counting the steps;
    in a reduced ground system every maximal rewrite sequence from a term
    has the same length.
    """
    from .rewriting import _normal_form, _rule_views

    if s == t:
        return False
    views = _rule_views(base)
    sn = _normal_form(s, views, None, 10000)
    tn = _normal_form(t, views, None, 10000)
    if sn is None or tn is None or sn[0] != tn[0]:
        return False  # not convertible (or not normalizing): incomparable
    if sn[1] != tn[1]:
        return sn[1] > tn[1]
    return kbo_gt(prec, KboWeights(w0=1, weights={}), s, t)
