"""First-order terms, positions, substitutions, matching and unification.

Terms are either variables or function applications, both immutable.
Positions are tuples of 1-based argument indices (the empty tuple is the
root).  Substitutions are plain dicts mapping variable names to terms; by
convention they are never mutated after creation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Union


@dataclass(frozen=True)
class Var:
    """A term variable, identified by name."""

    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Fun:
    """A function application ``f(t1, ..., tn)``; constants have no args."""

    symbol: str
    args: tuple["Term", ...] = ()

    def __str__(self):
        if not self.args:
            return self.symbol
        return "%s(%s)" % (self.symbol, ",".join(str(a) for a in self.args))


Term = Union[Var, Fun]
Position = tuple[int, ...]
Subst = dict[str, Term]


class InvalidPosition(ValueError):
    """Raised when a position does not exist in a term."""


def size(t: Term) -> int:
    """Number of symbol occurrences (variables included) in a term."""
    if isinstance(t, Var):
        return 1
    return 1 + sum(size(a) for a in t.args)


def is_ground(t: Term) -> bool:
    if isinstance(t, Var):
        return False
    return all(is_ground(a) for a in t.args)


def variables(t: Term) -> list[str]:
    """Variable names of ``t`` in order of first occurrence (no duplicates)."""
    seen: list[str] = []

    def walk(u: Term):
        if isinstance(u, Var):
            if u.name not in seen:
                seen.append(u.name)
        else:
            for a in u.args:
                walk(a)

    walk(t)
    return seen


def var_count(t: Term, name: str) -> int:
    """Number of occurrences of variable ``name`` in ``t``."""
    if isinstance(t, Var):
        return 1 if t.name == name else 0
    return sum(var_count(a, name) for a in t.args)


def positions(t: Term) -> list[Position]:
    """All positions of ``t`` in left-to-right preorder; root first."""
    out: list[Position] = [()]
    if isinstance(t, Fun):
        for i, a in enumerate(t.args, start=1):
            out.extend((i,) + p for p in positions(a))
    return out


def fun_sites(t: Term) -> list[tuple[Position, str]]:
    """``(pos, symbol)`` for each position of ``t`` whose subterm is a
    function application with root ``symbol``, in preorder."""
    out: list[tuple[Position, str]] = []
    stack: list[tuple[Position, Term]] = [((), t)]
    while stack:
        pos, u = stack.pop()
        if isinstance(u, Fun):
            out.append((pos, u.symbol))
            for i in range(len(u.args), 0, -1):
                stack.append((pos + (i,), u.args[i - 1]))
    return out


def subterm_at(t: Term, pos: Position) -> Term:
    for i in pos:
        if isinstance(t, Var) or not 1 <= i <= len(t.args):
            raise InvalidPosition("position %r not in %s" % (pos, t))
        t = t.args[i - 1]
    return t


def subterms(t: Term) -> Iterator[Term]:
    """All subterms of ``t`` (with repetitions), preorder."""
    yield t
    if isinstance(t, Fun):
        for a in t.args:
            yield from subterms(a)


def replace_at(t: Term, pos: Position, s: Term) -> Term:
    """Replace the subterm of ``t`` at ``pos`` with ``s``."""
    if not pos:
        return s
    if isinstance(t, Var) or not 1 <= pos[0] <= len(t.args):
        raise InvalidPosition("position %r not in %s" % (pos, t))
    i = pos[0]
    args = list(t.args)
    args[i - 1] = replace_at(args[i - 1], pos[1:], s)
    return Fun(t.symbol, tuple(args))


def apply_subst(sigma: Subst, t: Term) -> Term:
    if isinstance(t, Var):
        return sigma.get(t.name, t)
    if not t.args:
        return t
    return Fun(t.symbol, tuple(apply_subst(sigma, a) for a in t.args))


def match(pattern: Term, subject: Term) -> Optional[Subst]:
    """The substitution that instantiates ``pattern`` to ``subject``, or
    None.

    The loop descends into the first argument of each application and
    keeps only the other argument pairs for later.
    """
    out: Subst = {}
    pending: list[tuple[Term, Term]] = []
    p, s = pattern, subject
    while True:
        if isinstance(p, Var):
            bound = out.get(p.name)
            if bound is None:
                out[p.name] = s
            elif bound != s:
                return None
        elif isinstance(s, Var) or p.symbol != s.symbol \
                or len(p.args) != len(s.args):
            return None
        elif p.args:
            pargs, sargs = p.args, s.args
            if len(pargs) == 2:
                pending.append((pargs[1], sargs[1]))
            elif len(pargs) > 2:
                pending.extend(zip(pargs[1:], sargs[1:]))
            p, s = pargs[0], sargs[0]
            continue
        if not pending:
            return out
        p, s = pending.pop()


def same(s: Term, t: Term) -> bool:
    """``s == t`` without recursion, for terms of any depth."""
    pending: list[tuple[Term, Term]] = []
    while True:
        if s is not t:
            if isinstance(s, Var) or isinstance(t, Var):
                if not (isinstance(s, Var) and isinstance(t, Var)
                        and s.name == t.name):
                    return False
            elif s.symbol != t.symbol or len(s.args) != len(t.args):
                return False
            else:
                pending.extend(zip(s.args, t.args))
        if not pending:
            return True
        s, t = pending.pop()


def occurs(name: str, t: Term) -> bool:
    stack = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Var):
            if u.name == name:
                return True
        else:
            stack.extend(u.args)
    return False


def unify(s: Term, t: Term) -> Optional[Subst]:
    """Idempotent most general unifier of ``s`` and ``t``, or None.

    The algorithm is deterministic: equations are processed left to right,
    and a variable is bound to the other side as it stands, so the
    bindings form a triangular substitution that is read through (and
    occurs-checked through) instead of being applied at every step.  The
    result resolves the bindings in the order they were made; it is the
    unifier that eagerly composing each binding would give, and depends
    only on the input pair.
    """
    bound: Subst = {}

    def walk(u: Term) -> Term:
        while isinstance(u, Var) and u.name in bound:
            u = bound[u.name]
        return u

    def occurs_bound(name: str, u: Term) -> bool:
        stack, seen = [u], set()
        while stack:
            u = stack.pop()
            if isinstance(u, Var):
                if u.name == name:
                    return True
                if u.name in bound and u.name not in seen:
                    seen.add(u.name)
                    stack.append(bound[u.name])
            else:
                stack.extend(u.args)
        return False

    stack: list[tuple[Term, Term]] = [(s, t)]
    while stack:
        lhs, rhs = stack.pop()
        lhs, rhs = walk(lhs), walk(rhs)
        if isinstance(lhs, Fun) and isinstance(rhs, Fun):
            if lhs.symbol != rhs.symbol or len(lhs.args) != len(rhs.args):
                return None
            stack.extend(reversed(list(zip(lhs.args, rhs.args))))
            continue
        if isinstance(lhs, Fun):
            lhs, rhs = rhs, lhs
        # lhs is an unbound variable now
        if lhs == rhs:
            continue
        if occurs_bound(lhs.name, rhs):
            return None
        bound[lhs.name] = rhs

    resolved: Subst = {}

    def resolve(u: Term) -> Term:
        if isinstance(u, Var):
            if u.name not in bound:
                return u
            if u.name not in resolved:
                resolved[u.name] = resolve(bound[u.name])
            return resolved[u.name]
        if not u.args:
            return u
        return Fun(u.symbol, tuple(resolve(a) for a in u.args))

    return {x: resolve(Var(x)) for x in bound}


def rename(t: Term, mapping: dict[str, str]) -> Term:
    return apply_subst({x: Var(y) for x, y in mapping.items()}, t)


def canonical_terms(ts: Sequence[Term]) -> tuple[Term, ...]:
    """Rename variables across ``ts`` to x1, x2, ... in first-occurrence order."""
    mapping: dict[str, str] = {}
    for t in ts:
        for x in variables(t):
            if x not in mapping:
                mapping[x] = "x%d" % (len(mapping) + 1)
    return tuple(rename(t, mapping) for t in ts)


@dataclass(frozen=True)
class Equation:
    """An unordered pair of terms, kept in the orientation it was written."""

    lhs: Term
    rhs: Term

    def __str__(self):
        return "%s == %s" % (self.lhs, self.rhs)

    def reversed(self) -> "Equation":
        return Equation(self.rhs, self.lhs)

    def is_trivial(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class Rule:
    """A rewrite rule lhs -> rhs.

    The usual variable conditions are enforced: the left-hand side is not a
    variable and every right-hand side variable occurs on the left.
    """

    lhs: Term
    rhs: Term

    def __post_init__(self):
        if isinstance(self.lhs, Var):
            raise ValueError("rule left-hand side may not be a variable: %s" % self)
        extra = set(variables(self.rhs)) - set(variables(self.lhs))
        if extra:
            raise ValueError(
                "rule %s has right-hand side variables %s not in left-hand side"
                % (self, sorted(extra)))

    def __str__(self):
        return "%s -> %s" % (self.lhs, self.rhs)

    def as_equation(self) -> Equation:
        return Equation(self.lhs, self.rhs)


RuleLike = Union[Rule, Equation]


def canonical_pair(p: RuleLike) -> tuple[Term, Term]:
    """Jointly renumbered (lhs, rhs); variants map to the same value."""
    return tuple(canonical_terms([p.lhs, p.rhs]))  # type: ignore[return-value]


def pair_variants(p: RuleLike, q: RuleLike) -> bool:
    """True if p and q are equal up to a renaming applied to both sides."""
    return canonical_pair(p) == canonical_pair(q)


def equation_variants(p: RuleLike, q: RuleLike) -> bool:
    """Variants as unordered pairs: p matches q or its reverse."""
    cp = canonical_pair(p)
    return cp == canonical_pair(q) or \
        cp == tuple(canonical_terms([q.rhs, q.lhs]))


def rename_apart(keep: RuleLike, shift: RuleLike) -> RuleLike:
    """A variant of ``shift`` sharing no variables with ``keep``.

    Renaming is deterministic: primes are appended to every variable of
    ``shift`` until the variable sets are disjoint.
    """
    keep_vars = set(variables(keep.lhs)) | set(variables(keep.rhs))
    shift_vars = set(variables(shift.lhs)) | set(variables(shift.rhs))
    suffix = ""
    while {v + suffix for v in shift_vars} & keep_vars:
        suffix += "'"
    if not suffix:
        return shift
    mapping = {v: v + suffix for v in shift_vars}
    out = type(shift)(rename(shift.lhs, mapping), rename(shift.rhs, mapping))
    return out


def arities(ts: Iterable[Term]) -> dict[str, int]:
    """The arity of each function symbol of the terms ``ts``; ValueError
    when a symbol occurs with two arities."""
    out: dict[str, int] = {}
    for t in ts:
        for u in subterms(t):
            if isinstance(u, Fun):
                known = out.setdefault(u.symbol, len(u.args))
                if known != len(u.args):
                    raise ValueError(
                        "symbol %s used with arities %d and %d"
                        % (u.symbol, known, len(u.args)))
    return out
