"""Canonical presentations of complete rewrite systems.

A complete system is canonical when every right-hand side is a normal
form and every left-hand side is irreducible by the other rules.  Two
transformations get there: ``rdot`` normalizes the right-hand sides (and
removes duplicate variants), ``rddot`` additionally drops rules whose
left-hand side another rule already reduces.  For a complete input the
result is again complete, defines the same conversion and the same
normal forms, and is unique up to renaming of variables.
"""

from __future__ import annotations

from collections import Counter

from .critical_pairs import dedup_pairs
from .terms import Rule, canonical_pair
from .rewriting import Rules, is_normal_form, normalize


def rdot(rules: Rules, fuel: int = 10000) -> list[Rule]:
    """Normalize right-hand sides and drop duplicate rule variants.

    Rules are processed in order, rewriting against the current system,
    so already-normalized right-hand sides are reused; each surviving
    rule is a variant of a rule l -> r-normal-form of the input.
    """
    out = list(rules)
    for i in range(len(out)):
        rhs = normalize(out, out[i].rhs, fuel)
        if rhs is None:
            raise RuntimeError("right-hand side of %s does not normalize "
                               "within %d steps" % (out[i], fuel))
        out[i] = Rule(out[i].lhs, rhs)
    return dedup_pairs(out)


def rddot(rules: Rules, fuel: int = 10000) -> list[Rule]:
    """The canonical companion of a complete system.

    After right-normalization, a rule is kept only when no other
    surviving candidate reduces its left-hand side.
    """
    dotted = rdot(rules, fuel)
    out = []
    for i, rule in enumerate(dotted):
        rest = dotted[:i] + dotted[i + 1:]
        if is_normal_form(rest, rule.lhs):
            out.append(rule)
    return out


def trs_variants(r1: Rules, r2: Rules) -> bool:
    """Equality of rule sets up to renaming of variables in each rule."""
    return Counter(map(canonical_pair, r1)) == \
        Counter(map(canonical_pair, r2))
