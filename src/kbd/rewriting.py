"""Rewriting with rule sets and with ordered instances of equations.

The single-step strategy everywhere is leftmost-innermost: arguments are
searched left to right before the root, so repeated stepping computes a
unique innermost normal form.  Exhaustive one-step successors (all redexes,
all rules) are also provided for confluence checks and oracles.

Searches take a ``fuel`` budget counted in rewrite steps.  Running out of
fuel yields ``None`` (a "maybe" answer), never an exception.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .orders import OrderSpec
from .terms import (Equation, Position, Rule, Term, Var, apply_subst,
                    match, positions, properly_encompasses, replace_at, size,
                    subterm_at)


@dataclass(frozen=True)
class TRS:
    """An ordered collection of rewrite rules."""

    rules: tuple[Rule, ...] = ()

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    def __getitem__(self, i) -> Rule:
        return self.rules[i]

    def __str__(self):
        return "\n".join(str(r) for r in self.rules)


@dataclass(frozen=True)
class ES:
    """An ordered collection of equations."""

    equations: tuple[Equation, ...] = ()

    def __iter__(self) -> Iterator[Equation]:
        return iter(self.equations)

    def __len__(self):
        return len(self.equations)

    def __getitem__(self, i) -> Equation:
        return self.equations[i]

    def __str__(self):
        return "\n".join(str(e) for e in self.equations)


Rules = Union[TRS, Sequence[Rule]]
Eqns = Union[ES, Sequence[Equation]]


@dataclass(frozen=True)
class StepReport:
    """One rewrite step: where it happened, with what, and the result."""

    position: Position
    index: int
    result: Term
    is_equation: bool = False
    oriented_from_rhs: bool = False


def step_at(rules: Rules, t: Term, pos: Position) -> Optional[StepReport]:
    """First rule (in order) applicable to ``t`` at ``pos``."""
    sub = subterm_at(t, pos)
    for i, rule in enumerate(rules):
        sigma = match(rule.lhs, sub)
        if sigma is not None:
            return StepReport(pos, i, replace_at(t, pos, apply_subst(sigma, rule.rhs)))
    return None


def rewrite_step(rules: Rules, t: Term) -> Optional[StepReport]:
    """Leftmost-innermost rewrite step, or None if ``t`` is a normal form."""
    if isinstance(t, Var):
        return None
    for i, a in enumerate(t.args, start=1):
        report = rewrite_step(rules, a)
        if report is not None:
            return StepReport((i,) + report.position, report.index,
                              replace_at(t, (i,), report.result))
    return step_at(rules, t, ())


def is_normal_form(rules: Rules, t: Term) -> bool:
    return rewrite_step(rules, t) is None


def normalize(rules: Rules, t: Term, fuel: int = 1000) -> Optional[Term]:
    """Innermost normal form of ``t``, or None when fuel runs out."""
    for _ in range(fuel + 1):
        report = rewrite_step(rules, t)
        if report is None:
            return t
        t = report.result
    return None


def all_steps(rules: Rules, t: Term) -> list[StepReport]:
    """Every one-step successor of ``t``: all positions, all rules."""
    out = []
    for pos in positions(t):
        sub = subterm_at(t, pos)
        for i, rule in enumerate(rules):
            sigma = match(rule.lhs, sub)
            if sigma is not None:
                out.append(StepReport(pos, i,
                                      replace_at(t, pos, apply_subst(sigma, rule.rhs))))
    return out


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
            for rep in all_steps(rules, u):
                budget -= 1
                if budget < 0:
                    return None
                if rep.result in other:
                    return True
                if rep.result not in seen:
                    seen.add(rep.result)
                    frontier.append(rep.result)
    return False


def ordered_step_at(eqs: Eqns, rules: Rules, order: OrderSpec, t: Term,
                    pos: Position) -> Optional[StepReport]:
    """Step at ``pos`` with a rule, or with an orientable equation instance."""
    report = step_at(rules, t, pos)
    if report is not None:
        return report
    sub = subterm_at(t, pos)
    for j, eq in enumerate(eqs):
        for rev, (l, r) in enumerate([(eq.lhs, eq.rhs), (eq.rhs, eq.lhs)]):
            sigma = match(l, sub)
            if sigma is None:
                continue
            lt, rt = apply_subst(sigma, l), apply_subst(sigma, r)
            if order.gt(lt, rt):
                return StepReport(pos, j, replace_at(t, pos, rt),
                                  is_equation=True, oriented_from_rhs=bool(rev))
    return None


def ordered_step(eqs: Eqns, rules: Rules, order: OrderSpec,
                 t: Term) -> Optional[StepReport]:
    """Leftmost-innermost step of the rewrite relation R ∪ E-oriented."""
    if isinstance(t, Var):
        return None
    for i, a in enumerate(t.args, start=1):
        report = ordered_step(eqs, rules, order, a)
        if report is not None:
            return StepReport((i,) + report.position, report.index,
                              replace_at(t, (i,), report.result),
                              report.is_equation, report.oriented_from_rhs)
    return ordered_step_at(eqs, rules, order, t, ())


def ordered_normalize(eqs: Eqns, rules: Rules, order: OrderSpec, t: Term,
                      fuel: int = 1000) -> Optional[Term]:
    for _ in range(fuel + 1):
        report = ordered_step(eqs, rules, order, t)
        if report is None:
            return t
        t = report.result
    return None


def encompassment_step(rules: Rules, t: Term) -> Optional[StepReport]:
    """Leftmost-innermost step restricted to rules properly below ``t``.

    Only rules whose left-hand side is properly encompassed by the whole
    term ``t`` may fire (the relation written ->⊐ in collapse conditions).
    """
    allowed = [i for i, rule in enumerate(rules)
               if properly_encompasses(t, rule.lhs)]
    if not allowed:
        return None
    sub_rules = [rules[i] for i in allowed]
    report = rewrite_step(sub_rules, t)
    if report is None:
        return None
    return StepReport(report.position, allowed[report.index], report.result)


def conversion_oracle(pairs: Sequence, s: Term, t: Term, depth: int = 4,
                      size_cap: Optional[int] = None) -> bool:
    """Is there an equational proof s <->* t of at most ``depth`` steps?

    ``pairs`` may mix rules and equations; all are used in both directions.
    Intermediate terms larger than ``max(|s|,|t|) + depth`` (or the given
    ``size_cap``) are pruned, which keeps the search finite but may miss
    long detours.
    """
    cap = size_cap if size_cap is not None else max(size(s), size(t)) + depth
    eqs = []
    for p in pairs:
        eqs.append((p.lhs, p.rhs))
        eqs.append((p.rhs, p.lhs))
    seen = {s}
    frontier = [s]
    for _ in range(depth):
        if t in seen:
            return True
        new: list[Term] = []
        for u in frontier:
            for pos in positions(u):
                sub = subterm_at(u, pos)
                for (l, r) in eqs:
                    sigma = match(l, sub)
                    if sigma is None:
                        continue
                    v = replace_at(u, pos, apply_subst(sigma, r))
                    if size(v) <= cap and v not in seen:
                        seen.add(v)
                        new.append(v)
        frontier = new
        if not frontier:
            break
    return t in seen
