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

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .critical_pairs import OverlapCache, Peak, overlap_at, peak_pairs
from .orders import OrderSpec
from .rewriting import (_contractions, _equation_views, _format_ref,
                        _normal_form, _rule_views, conversion_oracle,
                        innermost_redex)
from .terms import (Equation, Fun, InvalidPosition, Position, Rule, Term,
                    Var, canonical_pair, equation_variants, pair_variants,
                    replace_at, size, subterm_at, subterms, variables)


class SideConditionError(Exception):
    """An inference step whose side condition does not hold."""


@dataclass(frozen=True)
class Calculus:
    """The side conditions of one instance of the completion calculus."""

    deduces: bool = True          # deduce is an inference of the calculus
    ordered: bool = False         # peaks over E± ∪ R under the ordering
                                  # conditions; a run never fails
    equation_steps: bool = False  # simplify, compose and collapse may use
                                  # decreasing equation instances
    encompassing: bool = False    # collapse needs proper encompassment
    linear: bool = False          # deduce adds linear equations only
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
    """Current equations and rules of a completion run.

    ``e_union`` accumulates every equation that was ever present in the
    equation list; fairness is judged against it.
    """

    E: list[Equation]
    R: list[Rule]
    e_union: list[Equation] = field(default_factory=list)

    @classmethod
    def start(cls, eqs: Sequence[Equation],
              rules: Sequence[Rule] = ()) -> "RunState":
        return cls(list(eqs), list(rules), list(eqs))

    def copy(self) -> "RunState":
        return RunState(list(self.E), list(self.R), list(self.e_union))


@dataclass(frozen=True)
class Inference:
    """One completion inference.

    ``ref`` names the rewrite rule or oriented equation used by simplify,
    compose and collapse as the step searches do: ``(('rule', k), False)``
    or ``(('eq', j), rev)``, with indices into the current run state and
    ``rev`` for an equation used right-to-left.
    ``peak`` names where a deduced equation comes from; a deduce without
    one is checked by a search for some peak that yields it.
    """

    kind: str                      # orient, delete, deduce, simplify,
                                   # compose, collapse
    equation: Optional[Equation] = None
    reverse: bool = False          # orient the equation right-to-left
    side: Optional[str] = None     # simplify: 'lhs' or 'rhs'
    pos: Optional[Position] = None
    target: Optional[int] = None   # compose/collapse: rule index
    ref: Optional[tuple[tuple[str, int], bool]] = None
    peak: Optional[Peak] = None


def is_linear(t: Term) -> bool:
    names = [u.name for u in subterms(t) if isinstance(u, Var)]
    return len(names) == len(set(names))


def _find_equation(state: RunState, eq: Equation) -> int:
    for i, e in enumerate(state.E):
        if e == eq:
            return i
    raise SideConditionError("equation %s not present" % eq)


def _record_equation(state: RunState, eq: Equation):
    state.E.append(eq)
    state.e_union.append(eq)


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
    term must properly encompass the side used: the rules, then, with
    equation steps, the equations read both ways.  Neither holds ``own``,
    the rule or equation rewritten, ``('rule', m)`` or ``('eq', i)``."""
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


def _view(groups, kind: str, ref):
    """The view that ``ref`` names among ``groups`` of ``(views, flag)``,
    with its group's flag; a ``kind`` step may use no other."""
    for views, flag in groups:
        view = dict(views).get(ref)
        if view is not None:
            return view, flag
    raise SideConditionError("%s may not use %s" % (kind, _format_ref(ref)))


def _rewrite_with_ref(state: RunState, calc: Calculus, kind: str, own,
                      term: Term, pos: Position, ref,
                      order: OrderSpec) -> Term:
    """Apply the view ``ref`` at ``pos`` of ``term``, which ``own`` holds,
    through the one step primitive, :func:`_contractions`.  ``ref`` must
    be among the views the engine searches for this step
    (:func:`_rewrite_views`), under its group's encompassment demand; an
    equation instance must be decreasing."""
    view, encompass = _view(_rewrite_views(state, calc, kind, own), kind, ref)
    hit = next(_contractions(_subterm(term, pos), [(ref, view)],
                             order, term if encompass else None), None)
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

    In the ordered calculi the overlap must meet the ordering conditions
    of extended critical pairs.
    """
    groups = [(_peak_views(state, calc), None)]
    outer, _ = _view(groups, "deduce", peak.outer)
    inner, _ = _view(groups, "deduce", peak.inner)
    _subterm(outer.lhs, peak.pos)
    o = overlap_at(outer, inner, peak.pos, order if calc.ordered else None)
    if o is None:
        raise SideConditionError("%s does not overlap %s at position %r"
                                 % (inner, outer, peak.pos))
    if not equation_variants(eq, o.pair):
        raise SideConditionError("the peak yields %s, not %s"
                                 % (o.pair, eq))


def _deduce_ok(state: RunState, calc: Calculus, eq: Equation,
               order: OrderSpec) -> bool:
    """A deduce that names no peak must come from some peak of the
    current system.

    Membership in the critical pairs of the peak views (under the ordering
    conditions in the ordered calculi) is checked first.  Otherwise, in
    the ordered calculi, a conversion of at most two E± steps between the
    two sides is accepted: E± steps are symmetric, so it is a peak, and it
    covers instances of equations.  Rule steps do not count, as
    ``s -> u <- t`` is a valley.
    """
    keys = {canonical_pair(eq), canonical_pair(eq.reversed())}
    if any(canonical_pair(pair) in keys for pair, _ in
           peak_pairs(_peak_views(state, calc),
                      order if calc.ordered else None, prime=False)):
        return True
    E = state.E if calc.ordered else []
    cap = max(size(eq.lhs), size(eq.rhs)) + \
        max([max(size(e.lhs), size(e.rhs)) for e in E] or [0]) + 2
    return conversion_oracle(E, eq.lhs, eq.rhs, depth=2, size_cap=cap)


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
        rule = Rule(lhs, rhs)
        del state.E[i]
        if not any(pair_variants(rule, r) for r in state.R):
            state.R.append(rule)
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
        if inf.peak is not None:
            _check_peak(state, calc, eq, inf.peak, order)
        elif not _deduce_ok(state, calc, eq, order):
            raise SideConditionError("no peak yields %s" % eq)
        _record_equation(state, eq)
        return

    if kind == "simplify":
        i = _find_equation(state, inf.equation)
        eq = state.E[i]
        if inf.side not in ("lhs", "rhs"):
            raise SideConditionError("simplify side must be lhs or rhs")
        term = eq.lhs if inf.side == "lhs" else eq.rhs
        new_term = _rewrite_with_ref(state, calc, kind, ("eq", i), term,
                                     inf.pos or (), inf.ref, order)
        new_eq = Equation(new_term, eq.rhs) if inf.side == "lhs" \
            else Equation(eq.lhs, new_term)
        state.E[i] = new_eq
        state.e_union.append(new_eq)
        return

    if kind == "compose":
        rule = _check_rule_index(state, inf.target)
        new_rhs = _rewrite_with_ref(state, calc, kind, ("rule", inf.target),
                                    rule.rhs, inf.pos or (), inf.ref, order)
        state.R[inf.target] = Rule(rule.lhs, new_rhs)
        return

    if kind == "collapse":
        rule = _check_rule_index(state, inf.target)
        new_lhs = _rewrite_with_ref(state, calc, kind, ("rule", inf.target),
                                    rule.lhs, inf.pos or (), inf.ref, order)
        del state.R[inf.target]
        _record_equation(state, Equation(new_lhs, rule.rhs))
        return

    raise SideConditionError("unknown inference kind %r" % kind)


@dataclass
class RunResult:
    """Outcome of a completion run.

    ``status`` is 'success', 'fail' or 'out-of-fuel'; ``stuck`` lists the
    unorientable equations of a failed run.
    """

    status: str
    state: RunState
    trace: list[Inference]
    stuck: list[Equation] = field(default_factory=list)

    @property
    def rules(self) -> list[Rule]:
        return list(self.state.R)


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
        self.fuel = fuel
        self.trace: list[Inference] = []
        self.parked: set[Equation] = set()
        # the pick key of each equation in E (see priority)
        self.priorities: dict[Equation, tuple[int, str]] = {}
        # the overlaps of the peak views, kept from one fairness scan to
        # the next
        self.overlaps = OverlapCache()
        # the append-only e_union's members read both ways, and in the
        # ordered calculi their canonical pairs, fed from its new tail
        self.e_union_views: list = []
        self.recorded: set = set()

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
                    if kind == "collapse":
                        self.parked.clear()
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
        """Extend ``e_union_views`` and, in the ordered calculi,
        ``recorded`` by the members added to ``e_union`` since the last
        call.  The views' references index the tail they came from; only
        the views are read."""
        new = self.state.e_union[len(self.e_union_views) // 2:]
        self.e_union_views += _equation_views(new)
        if self.calculus.ordered:
            for e in new:
                self.recorded.add(canonical_pair(e))
                self.recorded.add(canonical_pair(e.reversed()))

    def fairness_gap(self) -> list[tuple[Equation, Peak]]:
        """Prime critical pairs of the current system not yet accounted
        for, with their peaks.

        A pair is covered when its sides join in their normal forms or a
        single step with a recorded equation connects them.  The ordered
        calculi, which keep equations unoriented, also count a variant of
        a recorded equation, which a single step misses when the sides
        differ in their variables; they test it first, as it is cheapest.
        """
        calc = self.calculus
        if not calc.deduces:
            return []
        self.feed_e_union()
        ordered = calc.ordered
        peaks = peak_pairs(_peak_views(self.state, calc),
                           self.order if ordered else None, calc.linear,
                           cache=self.overlaps)
        return [(eq, peak) for eq, peak in peaks
                if not (eq.is_trivial()
                        or ordered and canonical_pair(eq) in self.recorded
                        or self.joins(eq.lhs, eq.rhs)
                        or single_step_connects(self.e_union_views,
                                                eq.lhs, eq.rhs))]

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
                    continue
                eq = self.simplify_to_normal_form(min(live, key=self.priority))
                if eq.is_trivial():
                    self.emit(Inference("delete", equation=eq))
                    continue
                oriented = self.order.orient(eq.lhs, eq.rhs)
                if oriented is None:
                    self.parked.add(eq)
                    continue
                rules = len(state.R)
                self.emit(Inference("orient", equation=eq,
                                    reverse=(oriented[0] == eq.rhs
                                             and eq.lhs != eq.rhs)))
                self.parked.clear()
                if len(state.R) > rules:
                    # a new rule, not a variant of one in R
                    self.interreduce()
        except _OutOfFuel:
            return RunResult("out-of-fuel", state, self.trace)
        if state.E and not self.calculus.ordered:
            return RunResult("fail", state, self.trace, stuck=list(state.E))
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


def single_step_connects(views, s: Term, t: Term) -> bool:
    """Is there a single step from ``s`` to ``t`` with one of the
    candidate ``views`` (for an equational step, the equations' views both
    ways, as ``_equation_views`` builds them)?"""
    return any(reduct == target for sub, target in _step_sites(s, t)
               for _, reduct in _contractions(sub, views))


def run_kbf(eqs: Sequence[Equation], order: OrderSpec,
            fuel: Optional[int] = 10000) -> RunResult:
    """Classic Knuth-Bendix completion (finite runs)."""
    return _Driver(eqs, order, "kbf", fuel).run()


def run_kbg(eqs: Sequence[Equation], order: OrderSpec,
            fuel: Optional[int] = None) -> RunResult:
    """Ground completion: terminates on every ground input with a ground-
    total reduction order, producing the canonical presentation; ``fuel``
    may still cap the number of inferences."""
    for eq in eqs:
        if variables(eq.lhs) or variables(eq.rhs):
            raise ValueError("ground completion needs ground equations: %s"
                             % eq)
    return _Driver(eqs, order, "kbg", fuel).run()


def run_kbi(eqs: Sequence[Equation], order: OrderSpec,
            fuel: Optional[int] = 10000) -> RunResult:
    """Completion sound for infinite runs: collapse demands proper
    encompassment, so persistent rules are never destroyed."""
    return _Driver(eqs, order, "kbi", fuel).run()


def replay(eqs: Sequence[Equation], rules: Sequence[Rule],
           script: Sequence[Inference], variant: str,
           order: OrderSpec) -> RunState:
    """Re-run a recorded trace, checking every side condition."""
    state = RunState.start(eqs, rules)
    for inf in script:
        apply_inference(state, inf, variant, order)
    return state
