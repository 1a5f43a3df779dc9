"""Knuth-Bendix completion: inference steps, run states and engines.

One inference system has five instances, which differ only in the side
conditions that :data:`CALCULI` records for each:

* ``kbf`` -- classic completion for finite runs; collapse may use any
  rule of the remaining system.
* ``kbg`` -- completion of ground systems; no deduction is needed and
  every run terminates.
* ``kbi`` -- completion sound for infinite runs; collapse is only
  allowed when the collapsed left-hand side properly encompasses the
  left-hand side of the rule used.
* ``kbo`` and ``kbl`` -- ordered and linear completion; their engines are
  in :mod:`kbd.ordered`.

Every state change is an :class:`Inference`; a run's trace can be printed
and replayed step by step, with all side conditions re-checked.  An
engine spends its fuel, one unit per inference, in ``_Driver.emit`` and
nowhere else, so a run that needs exactly N inferences ends under fuel N
as it would with no cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional, Sequence

from .critical_pairs import (OverlapCache, Peak, _linear_condition,
                             _orientation, pair_overlaps, peak_pairs)
from .orders import OrderSpec
from .rewriting import (_contractions, _equation_views, _format_ref,
                        _normal_form, _rule_views, innermost_redex)
from .terms import (Equation, Fun, InvalidPosition, Position, Rule, RuleLike,
                    Term, Var, canonical_pair, match, replace_at, size,
                    subterm_at, subterms, variables)


class SideConditionError(Exception):
    """An inference step whose side condition does not hold."""


@dataclass(frozen=True)
class Calculus:
    """The side conditions of one instance of the completion calculus."""

    deduces: bool = True          # has deduce; without it, ground input
    ordered: bool = False         # peaks over E± ∪ R under the ordering
                                  # conditions; a run never fails
    equation_steps: bool = False  # simplify, compose and collapse may use
                                  # decreasing equation instances
    encompassing: bool = False    # collapse needs proper encompassment
    linear: bool = False          # linear input, linear condition on
                                  # peaks, linear deduced equations
    composes: bool = False        # the engine composes while interreducing
                                  # (a strategy, not a side condition)
    deduce_word: str = "deduce"   # starts a deduce line in traces


CALCULI = {
    "kbf": Calculus(),
    "kbg": Calculus(deduces=False, composes=True),
    "kbi": Calculus(encompassing=True),
    "kbo": Calculus(ordered=True, equation_steps=True, encompassing=True,
                    composes=True, deduce_word="deduce-ext"),
    "kbl": Calculus(ordered=True, encompassing=True, linear=True,
                    composes=True, deduce_word="deduce-lin"),
}


def calculus(variant: str) -> Calculus:
    """The calculus of a variant name; ValueError for an unknown one."""
    try:
        return CALCULI[variant]
    except KeyError:
        raise ValueError("unknown calculus %r (one of %s)"
                         % (variant, ", ".join(CALCULI)))


@dataclass
class RunState:
    """The pair (E, R) of a completion run, and ``e_union``, the set of
    equations ever in E, against which fairness is judged.  It is an
    insertion-ordered set (a dict whose values are None), so that it is
    filed in the order its members first entered E.
    """

    E: list[Equation]
    R: list[Rule]
    e_union: dict[Equation, None]

    @classmethod
    def start(cls, eqs: Sequence[Equation],
              rules: Sequence[Rule] = ()) -> "RunState":
        return cls(list(eqs), list(rules), dict.fromkeys(eqs))


@dataclass(frozen=True)
class Inference:
    """One completion inference.

    ``ref`` names the rewrite rule or oriented equation used by simplify,
    compose and collapse as the step searches do: ``(('rule', k), False)``
    or ``(('eq', j), rev)``, with indices into the current run state and
    ``rev`` for an equation used right-to-left.
    ``peak`` is the peak whose two ends a deduce adds; every deduce names one.
    """

    kind: str                      # orient, delete, deduce, simplify,
                                   # compose, collapse
    equation: Optional[Equation] = None
    reverse: bool = False          # orient the equation right-to-left
    side: Optional[str] = None     # simplify: 'lhs' or 'rhs'
    pos: Position = ()
    target: Optional[int] = None   # compose/collapse: rule index
    ref: Optional[tuple[tuple[str, int], bool]] = None
    peak: Optional[Peak] = None


def is_linear(t: Term) -> bool:
    names = [u.name for u in subterms(t) if isinstance(u, Var)]
    return len(names) == len(set(names))


def _check_input(calc: Calculus, eqs: Sequence[RuleLike]):
    """Raise ValueError unless the engines and replay may start from
    ``eqs``, equations or rules: ground without deduce, linear if linear."""
    for eq in eqs:
        if not calc.deduces and (variables(eq.lhs) or variables(eq.rhs)):
            raise ValueError("ground completion needs ground equations: %s"
                             % eq)
        if calc.linear and not (is_linear(eq.lhs) and is_linear(eq.rhs)):
            raise ValueError("linear completion needs linear input: %s" % eq)


def _find_equation(state: RunState, eq: Equation) -> int:
    for i, e in enumerate(state.E):
        if e == eq:
            return i
    raise SideConditionError("equation %s not present" % eq)


def _record_equation(state: RunState, eq: Equation):
    state.E.append(eq)
    state.e_union[eq] = None


def _check_rule_index(state: RunState, k) -> Rule:
    if k is None or not 0 <= k < len(state.R):
        raise SideConditionError("no rule #%s" % k)
    return state.R[k]


def _subterm(term: Term, pos: Position) -> Term:
    try:
        return subterm_at(term, pos)
    except InvalidPosition:
        raise SideConditionError("no position %r in %s" % (pos, term))


def _rewrite_views(state: RunState, calc: Calculus, kind: str, own):
    """The views a simplify, compose or collapse step may use, in the
    groups the engine searches in turn, each with whether the rewritten
    term must properly encompass the side used (it does below the root,
    and at the root when the matcher is not a renaming): the rules, then,
    with equation steps, the equations read both ways.  Neither holds
    ``own``, the rule or equation rewritten, ``('rule', m)`` or
    ``('eq', i)``."""
    space, k = own
    groups = [(_rule_views(state.R, k if space == "rule" else None),
               kind == "collapse" and calc.encompassing)]
    if calc.equation_steps:
        groups.append((_equation_views(state.E, k if space == "eq" else None),
                       kind != "compose"))
    return groups


def _peak_views(state: RunState, calc: Calculus) -> list:
    """The participants of critical peaks, with their references: the
    rules, and in the ordered calculi each equation read both ways.  They
    also make up the rewrite relation (with the order applying to equation
    views) under which a peak is prime and the engine joins a pair."""
    views = _rule_views(state.R)
    return views + _equation_views(state.E) if calc.ordered else views


def _rewrite_with_ref(state: RunState, calc: Calculus, kind: str, own,
                      term: Term, pos: Position, ref,
                      order: OrderSpec) -> Term:
    """Apply the view ``ref`` at ``pos`` of ``term``, which ``own`` holds,
    through the one step primitive, :func:`_contractions`.  ``ref`` must
    be among the views the engine searches for this step
    (:func:`_rewrite_views`), under its group's encompassment demand; an
    equation instance must be decreasing."""
    for views, encompass in _rewrite_views(state, calc, kind, own):
        view = dict(views).get(ref)
        if view is not None:
            break
    else:
        raise SideConditionError("%s may not use %s"
                                 % (kind, _format_ref(ref)))
    hit = next(_contractions(_subterm(term, pos), [(ref, view)],
                             order, encompass and pos == ()), None)
    if hit is None:
        raise SideConditionError(
            "%s -> %s does not rewrite %s at position %r (no match, an "
            "equation instance that is not decreasing, or the encompassment "
            "condition fails)" % (view.lhs, view.rhs, term, pos))
    return replace_at(term, pos, hit[1])


def _check_peak(state: RunState, calc: Calculus, eq: Equation, peak: Peak,
                order: OrderSpec):
    """``eq`` must be, up to variants, the critical pair of the named peak,
    whose participants are among the peak views (:func:`_peak_views`).
    The engine's overlap search, :func:`pair_overlaps`, looks at the named
    position only, under the calculus's ordering and linear conditions."""
    views = dict(_peak_views(state, calc))
    for ref in (peak.outer, peak.inner):
        if ref not in views:
            raise SideConditionError("deduce may not use %s"
                                     % _format_ref(ref))
    outer, inner = views[peak.outer], views[peak.inner]
    site = _subterm(outer.lhs, peak.pos)
    sites = [(peak.pos, site.symbol)] if isinstance(site, Fun) else []
    if calc.linear and not _linear_condition(_orientation(inner, order),
                                             _orientation(outer, order)):
        sites = []
    found = pair_overlaps(outer, inner, order if calc.ordered else None,
                          sites)
    if not found:
        raise SideConditionError("%s does not overlap %s at position %r"
                                 % (inner, outer, peak.pos))
    _, pair, _, key = found[0]
    if key not in (canonical_pair(eq), canonical_pair(eq.reversed())):
        raise SideConditionError("the peak yields %s, not %s" % (pair, eq))


def apply_inference(state: RunState, inf: Inference, variant: str,
                    order: OrderSpec):
    """Apply one inference to ``state`` in place, checking side conditions.

    ``variant`` names an entry of :data:`CALCULI`, whose side conditions
    govern simplify, compose, collapse and deduce.
    """
    kind = inf.kind
    calc = calculus(variant)

    if kind == "orient":
        i = _find_equation(state, inf.equation)
        eq = state.E[i]
        lhs, rhs = (eq.rhs, eq.lhs) if inf.reverse else (eq.lhs, eq.rhs)
        if not order.gt(lhs, rhs):
            raise SideConditionError("cannot orient %s: %s is not greater"
                                     % (eq, lhs))
        del state.E[i]
        state.R.append(Rule(lhs, rhs))
        return

    if kind == "delete":
        i = _find_equation(state, inf.equation)
        if not state.E[i].is_trivial():
            raise SideConditionError("delete needs equal sides: %s"
                                     % state.E[i])
        del state.E[i]
        return

    if kind == "deduce":
        if not calc.deduces:
            raise SideConditionError("ground completion has no deduce rule")
        eq = inf.equation
        if calc.linear and not (is_linear(eq.lhs) and is_linear(eq.rhs)):
            raise SideConditionError("linear completion deduces only "
                                     "linear equations: %s" % eq)
        if inf.peak is None:
            raise SideConditionError("deduce names no peak: %s" % eq)
        _check_peak(state, calc, eq, inf.peak, order)
        _record_equation(state, eq)
        return

    if kind == "simplify":
        i = _find_equation(state, inf.equation)
        eq = state.E[i]
        if inf.side not in ("lhs", "rhs"):
            raise SideConditionError("simplify side must be lhs or rhs")
        term = eq.lhs if inf.side == "lhs" else eq.rhs
        new_term = _rewrite_with_ref(state, calc, kind, ("eq", i), term,
                                     inf.pos, inf.ref, order)
        new_eq = Equation(new_term, eq.rhs) if inf.side == "lhs" \
            else Equation(eq.lhs, new_term)
        state.E[i] = new_eq
        state.e_union[new_eq] = None
        return

    if kind == "compose":
        rule = _check_rule_index(state, inf.target)
        new_rhs = _rewrite_with_ref(state, calc, kind, ("rule", inf.target),
                                    rule.rhs, inf.pos, inf.ref, order)
        state.R[inf.target] = Rule(rule.lhs, new_rhs)
        return

    if kind == "collapse":
        rule = _check_rule_index(state, inf.target)
        new_lhs = _rewrite_with_ref(state, calc, kind, ("rule", inf.target),
                                    rule.lhs, inf.pos, inf.ref, order)
        del state.R[inf.target]
        _record_equation(state, Equation(new_lhs, rule.rhs))
        return

    raise SideConditionError("unknown inference kind %r" % kind)


@dataclass
class RunResult:
    """Outcome of a completion run.

    ``status`` is 'success', 'fail' or 'out-of-fuel'; the final system is
    ``state``, whose E holds the unorientable equations of a failed run.
    """

    status: str
    state: RunState
    trace: list[Inference]


class _OutOfFuel(Exception):
    """An inference was asked for after the fuel was used up."""


class _Driver:
    """The engine loop of every calculus, whose :class:`Calculus` record
    says which views each inference searches.

    Every inference goes through :meth:`emit`, the one place where fuel is
    spent: asked for one more inference than the fuel allows, it raises
    ``_OutOfFuel``, which :meth:`run` turns into an 'out-of-fuel' result.
    The phases read the effect of each inference from the state."""

    def __init__(self, eqs, order: OrderSpec, variant: str,
                 fuel: Optional[int]):
        self.state = RunState.start(eqs)
        self.order = order
        self.variant = variant
        self.calculus = calculus(variant)
        _check_input(self.calculus, self.state.E)
        self.fuel = fuel
        self.trace: list[Inference] = []
        self.parked: set[Equation] = set()
        # the pick key of each equation in E (see priority)
        self.priorities: dict[Equation, tuple[int, str]] = {}
        # the peak views' overlaps, kept from one fairness scan to the next
        self.overlaps = OverlapCache()
        # the e_union members filed by _file_pairs, and how many they are
        self.e_union_pairs: dict = {}
        self.fed = 0
        # critical pairs covered for good: found trivial, joining or one
        # ↔E step apart by a scan, or deduced (see fairness_gap)
        self.covered: set[Equation] = set()

    def emit(self, inf: Inference):
        if self.fuel is not None and len(self.trace) >= self.fuel:
            raise _OutOfFuel
        apply_inference(self.state, inf, self.variant, self.order)
        self.trace.append(inf)
        if inf.kind in ("orient", "delete", "simplify"):
            # the equation has left E
            self.priorities.pop(inf.equation, None)

    def priority(self, eq: Equation) -> tuple[int, str]:
        """The order in which equations are picked: smallest size sum
        first, then by the printed equation.  Computed once while ``eq``
        is in E."""
        key = self.priorities.get(eq)
        if key is None:
            key = self.priorities[eq] = (size(eq.lhs) + size(eq.rhs),
                                         str(eq))
        return key

    def step(self, kind: str, term: Term, own):
        """The leftmost-innermost step of a ``kind`` inference on ``term``,
        which ``own`` holds, with the views of the first group of
        :func:`_rewrite_views` that has one: ``(pos, ref, result)`` or
        None."""
        for views, encompass in _rewrite_views(self.state, self.calculus,
                                               kind, own):
            hit = innermost_redex(term, views, self.order, encompass)
            if hit is not None:
                return hit
        return None

    def interreduce(self):
        """Collapse (and optionally compose) until no rule is reducible."""
        while True:
            for m, rule in enumerate(self.state.R):
                kind = "collapse"
                hit = self.step(kind, rule.lhs, ("rule", m))
                if hit is None and self.calculus.composes:
                    kind = "compose"
                    hit = self.step(kind, rule.rhs, ("rule", m))
                if hit is not None:
                    pos, ref, _ = hit
                    self.emit(Inference(kind, target=m, pos=pos, ref=ref))
                    break
            else:
                return

    def simplify_to_normal_form(self, eq: Equation) -> Equation:
        """Simplify ``eq`` in place in E, side by side, to its normal
        form, which is returned."""
        E = self.state.E
        i = E.index(eq)
        for side in ("lhs", "rhs"):
            while True:
                eq = E[i]
                hit = self.step("simplify", getattr(eq, side), ("eq", i))
                if hit is None:
                    break
                pos, ref, _ = hit
                self.emit(Inference("simplify", equation=eq, side=side,
                                    pos=pos, ref=ref))
        return eq

    def joins(self, s: Term, t: Term) -> bool:
        """Do ``s`` and ``t`` reach the same normal form under the peak
        views (which exists, the rewrite relation being contained in a
        reduction order)?"""
        views = _peak_views(self.state, self.calculus)
        l = _normal_form(s, views, self.order, 2000)
        if l is None:
            return False
        r = _normal_form(t, views, self.order, 2000)
        return r is not None and l[0] == r[0]

    def feed_e_union(self):
        """File the members added to ``e_union`` since the last call in
        ``e_union_pairs``, both ways round (see :func:`_file_pairs`)."""
        _file_pairs(self.e_union_pairs,
                    islice(self.state.e_union, self.fed, None))
        self.fed = len(self.state.e_union)

    def fairness_gap(self) -> list[tuple[Equation, Peak]]:
        """Prime critical pairs not yet covered, with their peaks.  A run
        is fair when PCP(R_ω) ⊆ ↓_{R_∪} ∪ ↔_{E_∪}: a pair is covered by
        equal sides, joining normal forms (ordered steps use decreasing
        instances of E members, which stay in E_∪) or one ↔E step with an
        ``e_union`` member (:func:`single_step_connects`).  R_∪ and E_∪
        only grow, so a pair once covered, or deduced, stays covered: it
        goes into ``covered`` and is not tested again."""
        calc = self.calculus
        if not calc.deduces:
            return []
        self.feed_e_union()
        peaks = peak_pairs(_peak_views(self.state, calc),
                           self.order if calc.ordered else None, calc.linear,
                           cache=self.overlaps)
        gap = []
        for eq, peak in peaks:
            if eq in self.covered:
                continue
            if eq.is_trivial() or self.joins(eq.lhs, eq.rhs) \
                    or self.steps_across(eq):
                self.covered.add(eq)
            else:
                gap.append((eq, peak))
        return gap

    def steps_across(self, eq: Equation) -> bool:
        """Are the sides of ``eq`` one ↔E step apart by ``e_union``?"""
        return single_step_connects(self.e_union_pairs, eq.lhs, eq.rhs)

    def run(self) -> RunResult:
        state = self.state
        try:
            while True:
                live = [e for e in state.E if e not in self.parked]
                if not live:
                    gap = self.fairness_gap()
                    if not gap:
                        break
                    for eq, peak in gap:
                        self.emit(Inference("deduce", equation=eq, peak=peak))
                        self.covered.add(eq)
                    continue
                eq = self.simplify_to_normal_form(min(live, key=self.priority))
                if eq.is_trivial():
                    self.emit(Inference("delete", equation=eq))
                    continue
                oriented = self.order.orient(eq.lhs, eq.rhs)
                if oriented is None:
                    self.parked.add(eq)
                    continue
                self.emit(Inference("orient", equation=eq,
                                    reverse=oriented[0] == eq.rhs))
                self.parked.clear()
                self.interreduce()
        except _OutOfFuel:
            return RunResult("out-of-fuel", state, self.trace)
        if state.E and not self.calculus.ordered:
            return RunResult("fail", state, self.trace)
        return RunResult("success", state, self.trace)


def _step_sites(s: Term, t: Term) -> list[tuple[Term, Term]]:
    """``(s|p, t|p)`` for every position p at which one step can turn
    ``s`` into ``t``.

    A step at p changes nothing outside p, so when ``s`` and ``t`` differ,
    p lies on the path from the root to the deepest position below which
    all their differences lie; when they are equal, p can be anywhere.
    """
    if s == t:
        return [(u, u) for u in subterms(s)]
    out = [(s, t)]
    while isinstance(s, Fun) and isinstance(t, Fun) and \
            s.symbol == t.symbol and len(s.args) == len(t.args):
        differ = [i for i, (a, b) in enumerate(zip(s.args, t.args)) if a != b]
        if len(differ) != 1:
            break
        s, t = s.args[differ[0]], t.args[differ[0]]
        out.append((s, t))
    return out


def _file_pairs(filed: dict, eqs: Iterable[Equation]):
    """File each of ``eqs`` in ``filed``, both ways round, as the pair
    term ``=(l, r)`` under the root symbol of l (None for a variable),
    after those filed before."""
    for eq in eqs:
        for l, r in ((eq.lhs, eq.rhs), (eq.rhs, eq.lhs)):
            key = l.symbol if isinstance(l, Fun) else None
            filed.setdefault(key, []).append(Fun("=", (l, r)))


def single_step_connects(filed: dict, s: Term, t: Term) -> bool:
    """Is ``s`` one ↔E step from ``t``, E being the equations filed by
    :func:`_file_pairs`: does a filed ``=(l, r)`` match ``=(s|p, t|p)``
    at a position p outside which s and t agree?  One matcher binds both
    sides, and each equation is filed both ways round, so the relation is
    symmetric.  Only the pairs filed under s|p's root symbol or None can
    match."""
    for u, v in _step_sites(s, t):
        subject = Fun("=", (u, v))
        keys = (u.symbol, None) if isinstance(u, Fun) else (None,)
        if any(match(pair, subject) is not None
               for key in keys for pair in filed.get(key, ())):
            return True
    return False


def run_kbf(eqs: Sequence[Equation], order: OrderSpec,
            fuel: Optional[int] = 10000) -> RunResult:
    """Classic Knuth-Bendix completion (finite runs)."""
    return _Driver(eqs, order, "kbf", fuel).run()


def run_kbg(eqs: Sequence[Equation], order: OrderSpec,
            fuel: Optional[int] = None) -> RunResult:
    """Ground completion: terminates on every ground input with a ground-
    total reduction order, producing the canonical presentation; ``fuel``
    may still cap the number of inferences."""
    return _Driver(eqs, order, "kbg", fuel).run()


def run_kbi(eqs: Sequence[Equation], order: OrderSpec,
            fuel: Optional[int] = 10000) -> RunResult:
    """Completion sound for infinite runs: collapse demands proper
    encompassment, so persistent rules are never destroyed."""
    return _Driver(eqs, order, "kbi", fuel).run()


def replay(eqs: Sequence[Equation], rules: Sequence[Rule],
           script: Sequence[Inference], variant: str,
           order: OrderSpec) -> RunState:
    """Re-run a recorded trace, checking the input and every side
    condition."""
    state = RunState.start(eqs, rules)
    _check_input(calculus(variant), state.E + state.R)
    for inf in script:
        apply_inference(state, inf, variant, order)
    return state
