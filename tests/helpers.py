"""Shared generators and small oracles for the test suites."""

import itertools
from typing import NamedTuple

from kbd.critical_pairs import dedup_pairs, pair_overlaps
from kbd.orders import OrderSpec, Precedence, lex_ext, lpo_gt
from kbd.rewriting import (_equation_views, _rule_views, all_steps,
                           innermost_redex, is_normal_form, joinable,
                           normalize, ordered_step)
from kbd.terms import (Equation, Fun, Rule, Var, apply_subst, is_ground,
                       occurs, proper_subterms, size, subterms, variables)

# -- term generation ---------------------------------------------------

GROUND_SIG = {"f": 1, "g": 1, "a": 0, "b": 0}


def random_term(rng, sig, var_names=(), depth=3):
    """A random term over ``sig`` (symbol -> arity) and optional variables."""
    choices = list(sig)
    leaves = [s for s in choices if sig[s] == 0] + list(var_names)
    if depth == 0 or (leaves and rng.random() < 0.3):
        pick = rng.choice(leaves)
        if pick in var_names:
            return Var(pick)
        return Fun(pick)
    sym = rng.choice(choices)
    args = tuple(random_term(rng, sig, var_names, depth - 1)
                 for _ in range(sig[sym]))
    return Fun(sym, args)


def random_ground_term(rng, sig=GROUND_SIG, depth=3):
    return random_term(rng, sig, (), depth)


def random_ground_es(rng, sig=GROUND_SIG, n=4, depth=3):
    return [Equation(random_ground_term(rng, sig, depth),
                     random_ground_term(rng, sig, depth))
            for _ in range(rng.randint(1, n))]


def random_linear_term(rng, sig, pool, depth=3):
    """A random linear term; ``pool`` is a list of still-unused variables."""
    leaves = [s for s in sig if sig[s] == 0]
    if depth == 0 or rng.random() < 0.3:
        if pool and rng.random() < 0.5:
            return Var(pool.pop())
        if leaves:
            return Fun(rng.choice(leaves))
        return Var(pool.pop()) if pool else Fun(min(sig))
    sym = rng.choice(list(sig))
    args = tuple(random_linear_term(rng, sig, pool, depth - 1)
                 for _ in range(sig[sym]))
    return Fun(sym, args)


def enumerate_ground_terms(sig, depth):
    """All ground terms over ``sig`` of depth at most ``depth``."""
    by_depth = [[Fun(s) for s, n in sig.items() if n == 0]]
    for d in range(1, depth + 1):
        pool = [t for level in by_depth for t in level]
        fresh = []
        for s, n in sig.items():
            if n == 0:
                continue
            for args in itertools.product(pool, repeat=n):
                t = Fun(s, args)
                if max_depth(t) == d:
                    fresh.append(t)
        by_depth.append(fresh)
    return [t for level in by_depth for t in level]


def max_depth(t):
    if isinstance(t, Var) or not t.args:
        return 0
    return 1 + max(max_depth(a) for a in t.args)


# -- a ground-total reduction order for generator bookkeeping ----------

def ground_gt(s, t):
    """Size, then string representation: a total reduction order on
    ground terms (the first string difference sits inside the changed
    subterm, so the comparison is closed under contexts)."""
    if size(s) != size(t):
        return size(s) > size(t)
    return str(s) > str(t)


def random_reduced_ground_trs(rng, sig=GROUND_SIG, n=4, depth=3):
    """A random reduced ground TRS (hence complete: no overlaps exist)."""
    rules = []
    for _ in range(n * 3):
        if len(rules) >= n:
            break
        s = random_ground_term(rng, sig, depth)
        t = random_ground_term(rng, sig, depth)
        s = normalize(rules, s, 1000)
        t = normalize(rules, t, 1000)
        if s is None or t is None or s == t:
            continue
        l, r = (s, t) if ground_gt(s, t) else (t, s)
        # keep the system reduced: the new left-hand side may not occur
        # in any existing rule, nor be reducible itself
        if not is_normal_form(rules, l):
            continue
        if any(any(u == l for u in subterms(old.lhs)) or
               any(u == l for u in subterms(old.rhs))
               for old in rules):
            continue
        rules.append(Rule(l, r))
    return rules


# -- LPO search and random orientable TRSs -----------------------------

def search_lpo_precedence(rules):
    symbols = sorted({u.symbol for r in rules for t in (r.lhs, r.rhs)
                      for u in subterms(t) if isinstance(u, Fun)})
    for perm in itertools.permutations(symbols):
        prec = Precedence.total(perm)
        if all(lpo_gt(prec, r.lhs, r.rhs) for r in rules):
            return prec
    return None


def random_orientable_trs(rng, sig, var_names, n=3, depth=2,
                          attempts=200):
    """A random TRS together with a total LPO precedence orienting it."""
    for _ in range(attempts):
        rules = []
        ok = True
        for _ in range(rng.randint(1, n)):
            l = random_term(rng, sig, var_names, depth)
            r = random_term(rng, sig, var_names, depth)
            if isinstance(l, Var) or \
                    not set(variables(r)) <= set(variables(l)):
                ok = False
                break
            rules.append(Rule(l, r))
        if not ok or not rules:
            continue
        prec = search_lpo_precedence(rules)
        if prec is not None:
            return rules, prec
    return None, None


# -- brute-force confluence oracle -------------------------------------

def brute_force_confluent(rules, terms, fuel=500):
    """Check joinability of every one-step peak from the given terms."""
    for t in terms:
        reducts = [v for _, _, v in all_steps(rules, t)]
        for i, u in enumerate(reducts):
            for v in reducts[i + 1:]:
                verdict = joinable(rules, u, v, fuel)
                if not verdict:
                    return False
    return True


def lpo_order(prec):
    return OrderSpec("lpo", prec)


# -- reference kernels: the straightforward versions of the fast paths ---

def memo_lpo_gt(prec, s, t):
    """LPO by its textbook definition, with every subterm comparison
    memoized."""
    cache = {}

    def gt(s, t):
        key = (s, t)
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = compute(s, t)
        return hit

    def compute(s, t):
        if isinstance(s, Var):
            return False
        if isinstance(t, Var):
            return t.name in variables(s)
        if any(si == t or gt(si, t) for si in s.args):
            return True
        if not all(gt(s, tj) for tj in t.args):
            return False
        if prec.gt(s.symbol, t.symbol):
            return True
        if s.symbol == t.symbol:
            return lex_ext(gt, s.args, t.args)
        return False

    return gt(s, t)


def eager_unify(s, t):
    """The mgu computed left to right, applying the unifier to each
    equation and composing every new binding into it at once."""
    unifier = {}
    queue = [(s, t)]
    while queue:
        lhs, rhs = queue.pop(0)
        lhs = apply_subst(unifier, lhs)
        rhs = apply_subst(unifier, rhs)
        if lhs == rhs:
            continue
        if isinstance(lhs, Fun) and isinstance(rhs, Fun):
            if lhs.symbol != rhs.symbol or len(lhs.args) != len(rhs.args):
                return None
            queue[:0] = list(zip(lhs.args, rhs.args))
            continue
        if isinstance(rhs, Var) and not isinstance(lhs, Var):
            lhs, rhs = rhs, lhs
        if occurs(lhs.name, rhs):
            return None
        binding = {lhs.name: rhs}
        unifier = {x: apply_subst(binding, u) for x, u in unifier.items()}
        unifier[lhs.name] = rhs
    return unifier


def stepwise_normal_form(t, candidates, order, fuel):
    """The normal form by repeated leftmost-innermost steps, each searched
    from the root, and the step count; None past ``fuel`` steps."""
    for steps in range(fuel + 1):
        hit = innermost_redex(t, candidates, order)
        if hit is None:
            return t, steps
        t = hit[2]
    return None


class CriticalPeak(NamedTuple):
    """The two reducts of a critical overlap: ``left`` contracts the inner
    redex at ``pos`` inside the overlapped term, ``right`` contracts that
    term at the root."""

    left: object
    pos: tuple
    right: object
    prime: bool

    def pair(self):
        return Equation(self.left, self.right)


def critical_peaks(rules, eqs=(), order=None, linear=False):
    """The critical peaks of E± ∪ R, every overlap of every pair of views
    in turn, each flagged prime when no proper subterm of its contracted
    redex has a step under R ∪ E-oriented (R alone without equations)."""
    views = [view for _, view in _rule_views(rules) + _equation_views(eqs)]
    out = []
    for outer in views:
        for inner in views:
            for o in pair_overlaps(outer, inner, order, linear):
                pair = o.pair
                prime = all(ordered_step(eqs, rules, order, u) is None
                            for u in proper_subterms(o.redex))
                out.append(CriticalPeak(pair.lhs, o.pos, pair.rhs, prime))
    return out


def reference_pairs(rules, eqs=(), order=None, linear=False, prime=True):
    """The (prime) critical pairs of :func:`critical_peaks`, deduplicated
    up to variants, first come first kept."""
    return dedup_pairs([p.pair() for p in
                        critical_peaks(rules, eqs, order, linear)
                        if p.prime or not prime])
