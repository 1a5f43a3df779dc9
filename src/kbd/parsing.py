"""Problem files and trace scripts: parsing and printing.

Problem files use a small s-expression-flavoured format:

    (VAR x y)
    (RULES
      f(x,y) -> f(y,x)
    )
    (EQUATIONS
      a == b
    )

Traces record one inference per line, for example::

    orient f(a) -> b
    simplify a == b lhs at 1.2 with rule#0
    compose rule#2 at e with eq#1 rev
    deduce-ext f(b) == b from eq#0 fwd rule#1 at 1

A deduce names the peak it comes from (``from <outer> <inner> at <pos>``).

String-rewriting input is supported by expanding words into unary
terms: the word ``aba`` becomes ``a(b(a(x)))``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .completion import CALCULI, Inference, Peak, calculus
from .rewriting import _format_ref
from .terms import Equation, Fun, Position, Rule, Term, Var, arities


class ParseError(ValueError):
    """Malformed problem file or trace."""


_TOKEN = re.compile(r"[(),]|[^\s(),]+")


class _Tokens:
    """The tokens of ``text``: parentheses, commas and the maximal runs of
    other non-blank characters, each with its offset in ``text``."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = [(m.group(), m.start()) for m in _TOKEN.finditer(text)]
        self.i = 0

    def here(self) -> str:
        """Where the token last read starts, as "line L, column C"."""
        offset = self.tokens[self.i - 1][1]
        line_start = self.text.rfind("\n", 0, offset) + 1
        return "line %d, column %d" % (self.text.count("\n", 0, offset) + 1,
                                       offset - line_start + 1)

    def peek(self) -> Optional[str]:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, tok: str):
        got = self.next()
        if got != tok:
            raise ParseError("expected %r but found %r at %s"
                             % (tok, got, self.here()))

    def done(self) -> bool:
        return self.i >= len(self.tokens)


_RESERVED = {"(", ")", ",", "->", "<-", "=="}


def parse_term(ts: _Tokens, is_var: Callable[[str], bool]) -> Term:
    tok = ts.next()
    if tok in _RESERVED:
        raise ParseError("expected a term but found %r at %s"
                         % (tok, ts.here()))
    if ts.peek() == "(":
        ts.next()
        args = [parse_term(ts, is_var)]
        while ts.peek() == ",":
            ts.next()
            args.append(parse_term(ts, is_var))
        ts.expect(")")
        return Fun(tok, tuple(args))
    if is_var(tok):
        return Var(tok)
    return Fun(tok)


def parse_term_string(text: str, var_names: Sequence[str]) -> Term:
    ts = _Tokens(text)
    names = set(var_names)
    t = parse_term(ts, lambda s: s in names)
    if not ts.done():
        raise ParseError("trailing input after term: %r" % ts.peek())
    return t


def word_term(word: str) -> Term:
    """The unary-term encoding of a word: ``abc`` -> a(b(c(x)))."""
    t: Term = Var("x")
    for ch in reversed(word):
        t = Fun(ch, (t,))
    return t


def term_word(t: Term) -> Optional[str]:
    """Inverse of :func:`word_term`, or None for non-word terms."""
    out = ""
    while isinstance(t, Fun):
        if len(t.args) != 1:
            return None
        out += t.symbol
        t = t.args[0]
    return out


@dataclass
class ProblemFile:
    """Declared variables plus the rules and equations of a problem."""

    var_names: list[str] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)
    equations: list[Equation] = field(default_factory=list)

    def arities(self, *extra: Term) -> dict[str, int]:
        """The arity of each function symbol of the problem and of the
        terms ``extra``; ValueError when a symbol occurs with two."""
        return arities([t for p in (*self.rules, *self.equations)
                        for t in (p.lhs, p.rhs)] + list(extra))

    def var_test(self) -> Callable[[str], bool]:
        """Which names a trace of this problem reads as variables: trace
        terms may carry primed or numbered copies of variables, but a
        function symbol of the problem is never read as one."""
        declared = set(self.var_names)
        symbols = self.arities()

        def is_var(name: str) -> bool:
            if name in declared:
                return True
            if name in symbols:
                return False
            return name.rstrip("'") in declared or \
                (name[:1] == "x" and name[1:].isdigit())
        return is_var


def parse_problem(text: str, string_mode: bool = False) -> ProblemFile:
    if string_mode:
        return _parse_string_problem(text)
    ts = _Tokens(text)
    pf = ProblemFile()
    names: set[str] = set()
    while not ts.done():
        ts.expect("(")
        section = ts.next()
        if section == "VAR":
            while ts.peek() != ")":
                name = ts.next()
                if name in _RESERVED:
                    raise ParseError("bad variable name %r" % name)
                pf.var_names.append(name)
                names.add(name)
            ts.next()
        elif section in ("RULES", "EQUATIONS"):
            while ts.peek() != ")":
                lhs = parse_term(ts, lambda s: s in names)
                op = ts.next()
                rhs = parse_term(ts, lambda s: s in names)
                if section == "RULES":
                    if op != "->":
                        raise ParseError("rules need '->', found %r" % op)
                    try:
                        pf.rules.append(Rule(lhs, rhs))
                    except ValueError as e:
                        raise ParseError(str(e))
                else:
                    if op != "==":
                        raise ParseError("equations need '==', found %r" % op)
                    pf.equations.append(Equation(lhs, rhs))
            ts.next()
        else:
            raise ParseError("unknown section %r" % section)
    try:
        pf.arities()
    except ValueError as e:
        raise ParseError(str(e))
    return pf


def _parse_string_problem(text: str) -> ProblemFile:
    pf = ProblemFile(var_names=["x"])
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        for op, target in (("->", pf.rules), ("==", pf.equations)):
            if op in line:
                l, r = (part.strip() for part in line.split(op, 1))
                if not l.isalpha() or not (r.isalpha() or r == ""):
                    raise ParseError("line %d: words must be alphabetic"
                                     % lineno)
                cls = Rule if op == "->" else Equation
                target.append(cls(word_term(l), word_term(r)))
                break
        else:
            raise ParseError("line %d: expected 'word -> word' or "
                             "'word == word'" % lineno)
    return pf


def format_position(pos: Position) -> str:
    return ".".join(str(i) for i in pos) if pos else "e"


def parse_position(text: str) -> Position:
    if text == "e":
        return ()
    try:
        return tuple(int(part) for part in text.split("."))
    except ValueError:
        raise ParseError("bad position %r" % text)


_DEDUCE_WORDS = {c.deduce_word for c in CALCULI.values()}


def format_inference(inf: Inference, variant: str) -> str:
    if inf.kind == "orient":
        eq = inf.equation
        if inf.reverse:
            return "orient %s <- %s" % (eq.rhs, eq.lhs)
        return "orient %s -> %s" % (eq.lhs, eq.rhs)
    if inf.kind == "delete":
        return "delete %s" % inf.equation
    if inf.kind == "deduce":
        outer, inner, pos = inf.peak
        return "%s %s from %s %s at %s" % (
            calculus(variant).deduce_word, inf.equation, _format_ref(outer),
            _format_ref(inner), format_position(pos))
    if inf.kind == "simplify":
        return "simplify %s %s at %s with %s" % (
            inf.equation, inf.side, format_position(inf.pos),
            _format_ref(inf.ref))
    if inf.kind in ("compose", "collapse"):
        return "%s rule#%d at %s with %s" % (
            inf.kind, inf.target, format_position(inf.pos),
            _format_ref(inf.ref))
    raise ValueError("cannot format inference %r" % (inf,))


def format_trace(trace: Sequence[Inference], variant: str) -> str:
    return "\n".join(format_inference(inf, variant) for inf in trace) + "\n"


def _parse_ref(ts: _Tokens):
    tok = ts.next()
    if "#" not in tok:
        raise ParseError("expected rule#k or eq#k, found %r" % tok)
    space, _, num = tok.partition("#")
    if space not in ("rule", "eq") or not num.isdecimal():
        raise ParseError("bad reference %r" % tok)
    rev = False
    if space == "eq":
        d = ts.next()
        if d not in ("fwd", "rev"):
            raise ParseError("expected fwd or rev, found %r" % d)
        rev = d == "rev"
    return (space, int(num)), rev


def parse_inference(line: str, is_var: Callable[[str], bool]) -> Inference:
    ts = _Tokens(line)
    inf = _parse_step(ts, is_var)
    if not ts.done():
        raise ParseError("trailing input after the step: %r" % ts.peek())
    return inf


def _parse_step(ts: _Tokens, is_var: Callable[[str], bool]) -> Inference:
    kind = ts.next()
    if kind == "orient":
        lhs = parse_term(ts, is_var)
        op = ts.next()
        rhs = parse_term(ts, is_var)
        if op == "->":
            return Inference("orient", equation=Equation(lhs, rhs))
        if op == "<-":
            return Inference("orient", equation=Equation(rhs, lhs),
                             reverse=True)
        raise ParseError("orient needs -> or <-, found %r" % op)
    if kind == "delete" or kind in _DEDUCE_WORDS:
        lhs = parse_term(ts, is_var)
        ts.expect("==")
        eq = Equation(lhs, parse_term(ts, is_var))
        if kind == "delete":
            return Inference("delete", equation=eq)
        if ts.done() or ts.next() != "from":
            raise ParseError("a deduce needs 'from <outer> <inner> at <pos>'")
        outer, inner = _parse_ref(ts), _parse_ref(ts)
        ts.expect("at")
        return Inference("deduce", equation=eq,
                         peak=Peak(outer, inner, parse_position(ts.next())))
    if kind == "simplify":
        lhs = parse_term(ts, is_var)
        ts.expect("==")
        rhs = parse_term(ts, is_var)
        side = ts.next()
        if side not in ("lhs", "rhs"):
            raise ParseError("simplify side must be lhs or rhs")
        ts.expect("at")
        pos = parse_position(ts.next())
        ts.expect("with")
        return Inference("simplify", equation=Equation(lhs, rhs), side=side,
                         pos=pos, ref=_parse_ref(ts))
    if kind in ("compose", "collapse"):
        (space, target), _ = _parse_ref(ts)
        if space != "rule":
            raise ParseError("%s needs a rule#k target" % kind)
        ts.expect("at")
        pos = parse_position(ts.next())
        ts.expect("with")
        return Inference(kind, target=target, pos=pos, ref=_parse_ref(ts))
    raise ParseError("unknown inference %r" % kind)


def parse_trace(text: str, is_var: Callable[[str], bool],
                variant: str) -> list[Inference]:
    """The steps of a trace whose deduce lines use ``variant``'s word."""
    word = calculus(variant).deduce_word
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            inf = parse_inference(line, is_var)
            found = line.split(None, 1)[0]
            if inf.kind == "deduce" and found != word:
                raise ParseError("%s writes a deduce as %r, found %r"
                                 % (variant, word, found))
        except ParseError as e:
            raise ParseError("line %d: %s" % (lineno, e))
        out.append(inf)
    return out
