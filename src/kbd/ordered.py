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

from .completion import (Inference, Peak, RunResult, _Driver, _indexed_step,
                         is_linear, single_step_connects)
from .critical_pairs import dedup_pairs, oriented_views, pair_overlaps
from .orders import OrderSpec
from .rewriting import (normalize, ordered_normalize, ordered_step,
                        rewrite_step)
from .terms import (Equation, Rule, RuleLike, Term, Var, apply_subst,
                    canonical_pair, canonical_terms, literally_similar, match,
                    pair_variants, positions, postorder_positions,
                    properly_encompasses, replace_at, subterm_at, variables)


def _eq_step(state, order: OrderSpec, t: Term, skip: Optional[int] = None,
             encompass: bool = True):
    """First decreasing equation-instance step on ``t``, innermost first.

    Returns ``(pos, eq_index, reversed)`` or None.  With ``encompass`` the
    whole term must properly encompass the equation side being used.
    """
    for pos in postorder_positions(t):
        sub = subterm_at(t, pos)
        for j, eq in enumerate(state.E):
            if j == skip:
                continue
            for rev, (l, r) in enumerate(((eq.lhs, eq.rhs),
                                          (eq.rhs, eq.lhs))):
                sigma = match(l, sub)
                if sigma is None:
                    continue
                if not order.gt(sub, apply_subst(sigma, r)):
                    continue
                if encompass and not properly_encompasses(t, l):
                    continue
                return pos, j, bool(rev)
    return None


class _OrderedDriver(_Driver):
    """Engine loop for ordered ('kbo') and linear ('kbl') completion."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # canonical pairs of e_union's members, both ways round, and how
        # much of the append-only e_union they cover
        self.recorded: set = set()
        self.recorded_upto = 0

    def can_fail(self) -> bool:
        return False

    def simplify_to_normal_form(self, eq: Equation) -> Equation:
        changed = True
        while changed and not self.spent():
            changed = False
            for side in ("lhs", "rhs"):
                term = eq.lhs if side == "lhs" else eq.rhs
                rep = rewrite_step(self.state.R, term)
                if rep is not None:
                    self.emit(Inference("simplify", equation=eq, side=side,
                                        pos=rep.position,
                                        ref=("rule", rep.index)))
                    eq = Equation(rep.result, eq.rhs) if side == "lhs" \
                        else Equation(eq.lhs, rep.result)
                    changed = True
                    break
                if self.variant == "kbo":
                    i = self.state.E.index(eq)
                    hit = _eq_step(self.state, self.order, term, skip=i)
                    if hit is not None:
                        pos, j, rev = hit
                        self.emit(Inference("simplify", equation=eq,
                                            side=side, pos=pos,
                                            ref=("eq", j), ref_rev=rev))
                        new = self.state.E[i]
                        eq = new
                        changed = True
                        break
        return eq

    def interreduce(self):
        changed = True
        while changed and not self.spent():
            changed = False
            for m in range(len(self.state.R)):
                rule = self.state.R[m]
                rep = _indexed_step(self.collapse_candidates(m), rule.lhs)
                if rep is not None:
                    self.emit(Inference("collapse", target=m,
                                        pos=rep.position,
                                        ref=("rule", rep.index)))
                    self.parked.clear()
                    changed = True
                    break
                if self.variant == "kbo":
                    hit = _eq_step(self.state, self.order, rule.lhs)
                    if hit is not None:
                        pos, j, rev = hit
                        self.emit(Inference("collapse", target=m, pos=pos,
                                            ref=("eq", j), ref_rev=rev))
                        self.parked.clear()
                        changed = True
                        break
                others = [(j, r) for j, r in enumerate(self.state.R)
                          if j != m]
                rep = _indexed_step(others, rule.rhs)
                if rep is not None:
                    self.emit(Inference("compose", target=m,
                                        pos=rep.position,
                                        ref=("rule", rep.index)))
                    changed = True
                    break
                if self.variant == "kbo":
                    hit = _eq_step(self.state, self.order, rule.rhs,
                                   encompass=False)
                    if hit is not None:
                        pos, j, rev = hit
                        self.emit(Inference("compose", target=m, pos=pos,
                                            ref=("eq", j), ref_rev=rev))
                        changed = True
                        break

    def collapse_candidates(self, m: int):
        rule = self.state.R[m]
        return [(j, r) for j, r in enumerate(self.state.R)
                if j != m and properly_encompasses(rule.lhs, r.lhs)]

    def peak_views(self) -> list[tuple[tuple, RuleLike]]:
        refs = [(("rule", k), False) for k in range(len(self.state.R))] + \
            [(("eq", j), rev) for j in range(len(self.state.E))
             for rev in (False, True)]
        return list(zip(refs, oriented_views(self.state.E, self.state.R)))

    def peak_overlaps(self, outer: RuleLike, inner: RuleLike):
        return pair_overlaps(outer, inner, self.order,
                             linear=(self.variant == "kbl"))

    def irreducible(self, t: Term) -> bool:
        return ordered_step(self.state.E, self.state.R, self.order, t) is None

    def fairness_gap(self) -> list[tuple[Equation, Peak]]:
        """Prime extended (for kbl: linear) critical pairs not accounted
        for, with their peaks."""
        for e in self.state.e_union[self.recorded_upto:]:
            self.recorded.add(canonical_pair(e))
            self.recorded.add(canonical_pair(e.reversed()))
        self.recorded_upto = len(self.state.e_union)
        gap = []
        for eq, peak in self.prime_peaks():
            if eq.is_trivial():
                continue
            if canonical_pair(eq) in self.recorded:
                continue
            if single_step_connects(self.state.e_union, eq.lhs, eq.rhs):
                continue
            l = ordered_normalize(self.state.E, self.state.R, self.order,
                                  eq.lhs, 2000)
            r = ordered_normalize(self.state.E, self.state.R, self.order,
                                  eq.rhs, 2000)
            if l is not None and l == r:
                continue
            gap.append((eq, peak))
        return gap


def run_kbo(eqs: Sequence[Equation], order: OrderSpec,
            fuel: Optional[int] = 10000) -> RunResult:
    """Ordered completion; quiesces with a ground-complete (E, R)."""
    return _OrderedDriver(eqs, order, "kbo", fuel, do_compose=True).run()


def run_kbl(eqs: Sequence[Equation], order: OrderSpec,
            fuel: Optional[int] = 10000) -> RunResult:
    """Ordered completion for linear systems: rewriting in side conditions
    uses rules only and deduction adds linear critical pairs only."""
    for eq in eqs:
        if not (is_linear(eq.lhs) and is_linear(eq.rhs)):
            raise ValueError("linear completion needs linear input: %s" % eq)
    return _OrderedDriver(eqs, order, "kbl", fuel, do_compose=True).run()


def ground_joinable(eqs: Sequence[Equation], rules: Sequence[Rule],
                    order: OrderSpec, s: Term, t: Term,
                    fuel: int = 2000) -> Optional[bool]:
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
    seen = set()

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
            if literally_similar(w, t):
                continue
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
    encompasses that instance; at the root this means searching for a
    strict generalization of ``t`` that is a decreasing instance of the
    equation.
    """
    for rule in rules:
        if properly_encompasses(t, rule.lhs):
            return True
    oriented = []
    for eq in eqs:
        oriented.append((eq.lhs, eq.rhs))
        oriented.append((eq.rhs, eq.lhs))
    gens = None
    for pos in positions(t):
        sub = subterm_at(t, pos)
        for (l, r) in oriented:
            sigma = match(l, sub)
            if sigma is None:
                continue
            if pos != ():
                # the instance sits strictly inside t, so proper
                # encompassment is automatic; use the most specific one
                if order.gt(sub, apply_subst(sigma, r)):
                    return True
            else:
                if gens is None:
                    gens = strict_generalizations(t)
                for w in gens:
                    tau = match(l, w)
                    if tau is not None and \
                            order.gt(w, apply_subst(tau, r)):
                        return True
    return False


def simplify_ground_complete(eqs: Sequence[Equation],
                             rules: Sequence[Rule], order: OrderSpec,
                             fuel: int = 2000) -> tuple[list[Equation],
                                                        list[Rule]]:
    """Interreduce a ground-complete system, preserving ground normal forms.

    The orientable equation instances join the rules; right-hand sides are
    normalized; rules whose left-hand side is reducible strictly below
    itself (in the encompassment order) by the original system are
    dropped; finally the equations are normalized with the surviving
    rules and trivial ones removed.
    """
    q = list(rules)
    for eq in eqs:
        for (l, r) in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
            if order.gt(l, r) and not isinstance(l, Var) and \
                    set(variables(r)) <= set(variables(l)):
                q.append(Rule(l, r))
    qdot = []
    for rule in q:
        nf = normalize(q, rule.rhs, fuel)
        if nf is None:
            nf = rule.rhs
        cand = Rule(rule.lhs, nf)
        if not any(pair_variants(cand, other) for other in qdot):
            qdot.append(cand)
    new_rules = [rule for rule in qdot
                 if not encompass_reducible(eqs, rules, order, rule.lhs)]
    new_eqs = []
    for eq in eqs:
        l = normalize(new_rules, eq.lhs, fuel)
        r = normalize(new_rules, eq.rhs, fuel)
        if l is None or r is None or l == r:
            continue
        new_eqs.append(Equation(l, r))
    return dedup_pairs(new_eqs), new_rules
