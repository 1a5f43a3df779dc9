"""Fixed inputs of the kbd benchmark: completion cases, goldens, queries.

Case flags and fuel caps are data.  Nobody may shrink them to make a slow
case disappear; inputs left out on purpose are listed in README.md.
The reference answers here are computed without kbd: goldens are written
out by hand, and each query class has its own small decision procedure.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

PROBLEMS = Path(__file__).resolve().parent / "problems"


@dataclass(frozen=True)
class Case:
    """One kbd command run from problem file to printed system.

    ``argv`` is the command line after ``kbd``, with the problem file name
    relative to ``problems/``.  Finite cases carry a ``golden`` system that
    the result must match up to variants after ``rddot``; diverge cases
    carry their fuel cap, which the trace length must equal.
    """

    name: str
    argv: tuple[str, ...]
    golden: Optional[str] = None
    fuel: Optional[int] = None

    @property
    def variant(self) -> str:
        return {"complete": "kbf", "complete-ground": "kbg",
                "complete-inf": "kbi", "complete-ordered": "kbo",
                "complete-linear": "kbl"}[self.argv[0]]

    def command(self) -> list[str]:
        return [self.argv[0], str(PROBLEMS / self.argv[1])] + \
            list(self.argv[2:])

    def order_flags(self) -> list[str]:
        """The flags that ``kbd replay`` needs to rebuild the same order."""
        flags = list(self.argv[2:])
        if "--fuel" in flags:
            i = flags.index("--fuel")
            del flags[i:i + 2]
        return flags


def _chain_golden(n: int) -> str:
    def g(i):
        t = "c"
        for _ in range(i):
            t = "g(%s)" % t
        return t
    return "(RULES\n%s\n)" % "\n".join(
        "  f(%s) -> %s" % (g(i), g(i + 1)) for i in range(n))


# The canonical system of group theory (Knuth and Bendix, 1970).
GROUPS_GOLDEN = """(RULES
  *(e,x) -> x
  *(x,e) -> x
  *(i(x),x) -> e
  *(x,i(x)) -> e
  i(e) -> e
  i(i(x)) -> x
  *(*(x,y),z) -> *(x,*(y,z))
  *(i(x),*(x,y)) -> y
  *(x,*(i(x),y)) -> y
  i(*(x,y)) -> *(i(y),i(x))
)"""

PLUS_GOLDEN = """(RULES
  +(0,x) -> x
  +(x,0) -> x
)
(EQUATIONS
  +(x,y) == +(y,x)
)"""

COLLAPSE6_GOLDEN = """(RULES
  b(b(x)) -> b(x)
  a(b(a(x))) -> a(b(x))
)"""

FINITE = (
    # the one long case: most of its time is the all-pairs fairness scan
    Case("groups", ("complete", "groups.es", "--prec", "i>*>e"),
         golden=GROUPS_GOLDEN),
    # the test_13 chain family at n=20: many orients and interreductions
    Case("chain20", ("complete", "chain20.es", "--order", "kbo",
                     "--prec", "f>g"), golden=_chain_golden(20)),
    Case("en4", ("complete", "en4.es", "--order", "kbo", "--prec", "f>g"),
         golden=_chain_golden(4)),
    Case("strategy", ("complete", "strategy.es", "--prec", "a>b>d,a>c>d"),
         golden="(RULES\n  a -> d\n  b -> d\n  c -> d\n  f(d) -> d\n)"),
    Case("ground", ("complete-ground", "ground.es", "--prec", "a>b>c>f"),
         golden="(RULES\n  a -> c\n  f(b) -> c\n  f(c) -> c\n)"),
    Case("collapse6", ("complete-inf", "collapse6.es", "--order", "kbo",
                       "--prec", "a>b"), golden=COLLAPSE6_GOLDEN),
    Case("okb1", ("complete-ordered", "okb1.es", "--prec", "+>*>->1>0"),
         golden="(RULES\n  +(x,-(x)) -> 0\n  *(1,0) -> 0\n"
                "  +(-(x),x) -> 0\n)"),
    Case("okb2", ("complete-ordered", "okb2.es", "--prec", "g>f>a>b"),
         golden="(RULES\n  f(b) -> b\n)\n(EQUATIONS\n  f(x) == f(a)\n"
                "  g(b,x) == g(x,b)\n)"),
    Case("plus", ("complete-ordered", "plus.es", "--prec", "+>0"),
         golden=PLUS_GOLDEN),
)

DIVERGE = (
    # 90% of the time in fairness_gap on the parent of this benchmark
    Case("braid", ("complete-inf", "braid.str", "--string", "--order", "kbo",
                   "--prec", "a>b", "--fuel", "700"), fuel=700),
    # critical_peaks recomputed 24 times in 80 inferences
    Case("devie", ("complete", "devie.es", "--prec",
                   "i1>i2>f1>f2>g1>g2>h1>h2>a", "--fuel", "80"), fuel=80),
    # deduce re-validation and lpo_gt
    Case("comm_kbo", ("complete-ordered", "comm.es", "--prec", "+>s>0",
                      "--fuel", "100"), fuel=100),
    # orders.gt inside extended_overlaps and ordered_step
    Case("comm_kbl", ("complete-linear", "comm.es", "--prec", "+>s>0",
                      "--fuel", "50"), fuel=50),
)

CASES = {"finite": FINITE, "diverge": DIVERGE}


def system_text(output: str) -> str:
    """The printed system of a ``kbd complete*`` or ``replay`` run: every
    line after the status line."""
    return output.split("\n", 1)[1] if "\n" in output else ""


def declare_vars(text: str, var_names) -> str:
    """Prefix ``text`` with a VAR section naming every variable in it.

    Engines print renamed-apart variables with primes (``y'``), so a
    name is a variable when it is a declared name plus primes.
    """
    names = sorted({tok for tok in re.findall(r"[^\s(),]+", text)
                    if tok.rstrip("'") in var_names})
    return "(VAR %s)\n%s" % (" ".join(names), text) if names else text


# ---------------------------------------------------------------- queries

QUERY_CLASSES = ("groups-nf", "plus-ground", "words-nf")

# plus.es completed with a precedence total on the query signature
PLUS_PREC = (("+", "s"), ("s", "a"), ("a", "b"), ("b", "0"))
# collapse6's complete string rewriting system, as words
WORD_RULES = (("bb", "b"), ("aba", "ab"))


def _random_groups_term(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.18:
        return [rng.choice("eabc")]
    if rng.random() < 0.7:
        return ["*", _random_groups_term(rng, depth - 1),
                _random_groups_term(rng, depth - 1)]
    return ["i", _random_groups_term(rng, depth - 1)]


def _random_plus_term(rng: random.Random, depth: int):
    r = rng.random()
    if depth == 0 or r < 0.22:
        return [rng.choice("0ab")]
    if r < 0.75:
        return ["+", _random_plus_term(rng, depth - 1),
                _random_plus_term(rng, depth - 1)]
    return ["s", _random_plus_term(rng, depth - 1)]


def _plus_variant(rng: random.Random, t):
    """A term equal to ``t`` modulo commutativity of + and the unit 0."""
    if t[0] == "+":
        args = [_plus_variant(rng, t[1]), _plus_variant(rng, t[2])]
        if rng.random() < 0.5:
            args.reverse()
        t = ["+"] + args
    elif t[0] == "s":
        t = ["s", _plus_variant(rng, t[1])]
    if rng.random() < 0.15:
        t = ["+", ["0"], t] if rng.random() < 0.5 else ["+", t, ["0"]]
    return t


def _draw(cls: str, rng: random.Random) -> list:
    if cls == "groups-nf":
        return [cls, _random_groups_term(rng, 7)]
    if cls == "plus-ground":
        s = _random_plus_term(rng, 6)
        t = _plus_variant(rng, s) if rng.random() < 0.5 \
            else _random_plus_term(rng, 6)
        return [cls, s, t]
    n = rng.randint(50, 150)
    return [cls, "".join(rng.choice("ab") for _ in range(n))]


# candidates drawn per query kept; see _by_size
OVERSAMPLE = 10


def _nodes(tree: list) -> int:
    return 1 + sum(_nodes(a) for a in tree[1:])


def _size(query: list) -> int:
    """Input size: nodes of the terms, or letters of the word."""
    return sum(len(a) if isinstance(a, str) else _nodes(a)
               for a in query[1:])


def _by_size(cls: str, rng: random.Random, count: int) -> list[list]:
    """``count`` queries of one class, evenly spaced in size among
    OVERSAMPLE times as many candidates.  Every seed then gets nearly the
    same mix of small and large queries: with plain draws, the median of a
    class's 130 queries moves between seeds by more than the timing noise.
    """
    candidates = sorted((_draw(cls, rng) for _ in range(OVERSAMPLE * count)),
                        key=_size)
    picked = candidates[OVERSAMPLE // 2::OVERSAMPLE]
    rng.shuffle(picked)
    return picked


def make_queries(seed: int, count: int) -> list[list]:
    """``count`` queries ``[class, input...]``, the classes in fixed
    rotation.  Terms are nested lists ``[symbol, arg...]``; words are
    strings.  About half the plus-ground pairs are equal by construction.
    """
    rng = random.Random(seed)
    streams = [_by_size(cls, rng, (count + 2) // 3) for cls in QUERY_CLASSES]
    return [streams[k % 3][k // 3] for k in range(count)]


def _free_word(t) -> list[tuple[str, int]]:
    """The freely reduced group word of a groups term."""
    if t[0] == "e":
        return []
    if t[0] == "i":
        return [(x, -s) for x, s in reversed(_free_word(t[1]))]
    if t[0] == "*":
        out: list[tuple[str, int]] = []
        for letter in _free_word(t[1]) + _free_word(t[2]):
            if out and out[-1] == (letter[0], -letter[1]):
                out.pop()
            else:
                out.append(letter)
        return out
    return [(t[0], 1)]


def _cu_normal(t):
    """Normal form modulo commutativity of + with unit 0: drop units, then
    sort the arguments of every +."""
    if t[0] == "s":
        return ("s", _cu_normal(t[1]))
    if t[0] == "+":
        a, b = _cu_normal(t[1]), _cu_normal(t[2])
        if a == ("0",):
            return b
        if b == ("0",):
            return a
        return ("+",) + tuple(sorted((a, b), key=repr))
    return (t[0],)


def _word_normal(w: str) -> str:
    changed = True
    while changed:
        changed = False
        for lhs, rhs in WORD_RULES:
            if lhs in w:
                w = w.replace(lhs, rhs)
                changed = True
    return w


def expected_answer(query) -> str:
    """The reference answer, printed as kbd prints the result term."""
    cls = query[0]
    if cls == "groups-nf":
        letters = ["i(%s)" % x if s < 0 else x
                   for x, s in _free_word(query[1])]
        if not letters:
            return "e"
        out = letters[-1]
        for letter in reversed(letters[:-1]):
            out = "*(%s,%s)" % (letter, out)
        return out
    if cls == "plus-ground":
        return str(_cu_normal(query[1]) == _cu_normal(query[2]))
    w = _word_normal(query[1])
    return "".join(ch + "(" for ch in w) + "x" + ")" * len(w)
