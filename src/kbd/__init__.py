"""Knuth-Bendix completion toolkit.

First-order terms, reduction orders (LPO/KBO), rewriting, critical pairs,
and five completion procedures: classic finite-run completion, ground
completion, completion for possibly-infinite runs, ordered completion and
linear ordered completion, plus interreduction to canonical presentations.
"""

from .terms import Var, Fun, Term, Rule, Equation
from .orders import Precedence, OrderSpec

__all__ = [
    "Var", "Fun", "Term", "Rule", "Equation",
    "Precedence", "OrderSpec",
]
