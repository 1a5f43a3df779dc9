"""Shared generators and small oracles for the test suites."""

import itertools
from collections import deque
from typing import NamedTuple

from kbd.completion import RunState
from kbd.critical_pairs import _overlap, dedup_pairs
from kbd.orders import OrderSpec, Precedence, lex_ext, lpo_gt
from kbd.parsing import ProblemFile, word_term
from kbd.rewriting import (_equation_views, _rule_views, _steps,
                           innermost_redex, is_normal_form, normalize,
                           ordered_step)
from kbd.terms import (Equation, Fun, Rule, Var, apply_subst,
                       canonical_terms, match, occurs, positions, rename,
                       rename_apart, replace_at, size, subterm_at, subterms,
                       variables)

# -- positions, subterms and encompassment ----------------------------

def postorder_positions(t):
    """Positions in leftmost-innermost search order (children first)."""
    out = []
    if isinstance(t, Fun):
        for i, a in enumerate(t.args, start=1):
            out.extend((i,) + p for p in postorder_positions(a))
    out.append(())
    return out


def proper_subterms(t):
    it = subterms(t)
    next(it)
    yield from it


def literally_similar(s, t):
    """Equality up to renaming of variables (the relation written s ≐ t)."""
    return canonical_terms([s])[0] == canonical_terms([t])[0]


def encompasses(s, t):
    """True if some subterm of ``s`` is an instance of ``t``."""
    return any(match(t, u) is not None for u in subterms(s))


def properly_encompasses(s, t):
    """Encompassment minus its converse: s ⊒ t but not t ⊒ s."""
    return encompasses(s, t) and not encompasses(t, s)


def strict_generalizations(t):
    """All terms strictly more general than ``t``, up to renaming, but the
    variables: the oracle of :func:`kbd.ordered.covers`.

    Generalizations replace the subterms at an antichain of positions by
    variables, where positions carrying equal subterms may share one.
    Variants of ``t`` itself are excluded.
    """
    pos = [p for p in positions(t) if p != ()]
    out = []
    seen = {canonical_terms([t])[0]}

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
            key = canonical_terms([w])[0]
            if key not in seen:
                seen.add(key)
                out.append(w)
    return out


def is_renaming(sigma):
    """Does ``sigma`` map its variables to distinct variables?"""
    return all(isinstance(u, Var) for u in sigma.values()) and \
        len(set(sigma.values())) == len(sigma)


def encompassing_redex(t, candidates, order=None):
    """``innermost_redex(t, candidates, order, True)`` by definition: the
    first view, over the positions of ``t`` but its variables in
    leftmost-innermost order, whose left-hand side ``t`` properly
    encompasses and which steps there (decreasingly, for an equation
    view under ``order``)."""
    for pos in postorder_positions(t):
        u = subterm_at(t, pos)
        if isinstance(u, Var):
            continue
        for ref, view in candidates:
            sigma = match(view.lhs, u)
            if sigma is None or not properly_encompasses(t, view.lhs):
                continue
            reduct = apply_subst(sigma, view.rhs)
            if order is not None and ref[0][0] == "eq" and \
                    not order.gt(u, reduct):
                continue
            return pos, ref, replace_at(t, pos, reduct)
    return None


# -- reduced systems and their normal forms -----------------------------

def is_left_reduced(rules):
    """No left-hand side is reducible by the other rules."""
    rule_list = list(rules)
    for i, rule in enumerate(rule_list):
        rest = rule_list[:i] + rule_list[i + 1:]
        if not is_normal_form(rest, rule.lhs):
            return False
    return True


def is_right_reduced(rules):
    """Every right-hand side is a normal form of the whole system."""
    return all(is_normal_form(rules, rule.rhs) for rule in rules)


def is_reduced(rules):
    return is_left_reduced(rules) and is_right_reduced(rules)


def same_normal_forms(r1, r2, terms, fuel=10000):
    """Do both systems give every sample term the same normal form?"""
    for t in terms:
        n1 = normalize(r1, t, fuel)
        n2 = normalize(r2, t, fuel)
        if n1 is None or n1 != n2:
            return False
    return True


def print_problem(pf: ProblemFile) -> str:
    """``pf`` in the problem-file format, which parses back to it."""
    lines = []
    if pf.var_names:
        lines.append("(VAR %s)" % " ".join(pf.var_names))
    if pf.rules:
        lines.append("(RULES")
        lines.extend("  %s -> %s" % (r.lhs, r.rhs) for r in pf.rules)
        lines.append(")")
    if pf.equations:
        lines.append("(EQUATIONS")
        lines.extend("  %s == %s" % (e.lhs, e.rhs) for e in pf.equations)
        lines.append(")")
    return "\n".join(lines) + "\n"


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

def all_steps(rules, t):
    """Every one-step successor of ``t``: all positions, all rules."""
    return list(_steps(t, _rule_views(rules)))


def joinable(rules, s, t, fuel):
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
            for _, _, v in all_steps(rules, u):
                budget -= 1
                if budget < 0:
                    return None
                if v in other:
                    return True
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return False


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


def stack_match(pattern, subject):
    """The matcher that pushes every argument pair of each application
    on a stack and takes them back last first."""
    out = {}
    stack = [(pattern, subject)]
    while stack:
        p, s = stack.pop()
        if isinstance(p, Var):
            bound = out.get(p.name)
            if bound is None:
                out[p.name] = s
            elif bound != s:
                return None
        elif isinstance(s, Var) or p.symbol != s.symbol \
                or len(p.args) != len(s.args):
            return None
        else:
            stack.extend(zip(p.args, s.args))
    return out


def every_site_overlaps(outer, inner, order=None, linear=False):
    """The overlaps of a renamed-apart ``inner`` into ``outer``, tried at
    every function position of ``outer.lhs`` whatever its symbol, with the
    linear condition judged on the renamed participants once the overlaps
    are built."""
    inner = rename_apart(outer, inner)
    out = []
    for pos in positions(outer.lhs):
        if isinstance(subterm_at(outer.lhs, pos), Fun):
            o = _overlap(outer, inner, pos, order)
            if o is not None:
                out.append(o)
    if linear and out:
        gt = order.gt
        if not (gt(inner.lhs, inner.rhs) and not gt(outer.rhs, outer.lhs) or
                gt(outer.lhs, outer.rhs) and not gt(inner.rhs, inner.lhs)):
            return []
    return out


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
            for o in every_site_overlaps(outer, inner, order, linear):
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


# -- states and words --------------------------------------------------

def copy_state(state):
    """A run state whose E, R and e_union are copies of those of
    ``state``."""
    return RunState(list(state.E), list(state.R), dict(state.e_union))


def word_over(word, var):
    """The unary term of ``word`` (see :func:`kbd.parsing.word_term`)
    with the variable ``var`` at the bottom."""
    return rename(word_term(word), {"x": var})


# -- congruence closure: an oracle for ground completion ---------------

def congruence_closure_rules(eqs, order):
    """The reduced ground system of the ground ``eqs`` under the
    ground-total ``order``, by congruence closure over their subterms
    (Nelson and Oppen, JACM 1980): a union-find with a signature table
    merges the classes, each class's least member is built from the least
    members of its argument classes, and each subterm whose arguments,
    replaced by those, do not make its class's least member gives a rule
    to it."""
    terms = {}  # each subterm, arguments first, with its number

    def add(t):
        if t not in terms:
            for a in t.args:
                add(a)
            terms[t] = len(terms)

    for eq in eqs:
        add(eq.lhs)
        add(eq.rhs)
    parent = list(range(len(terms)))

    def find(t):
        i = terms[t]
        while parent[i] != i:
            i = parent[i]
        return i

    for eq in eqs:
        parent[find(eq.lhs)] = find(eq.rhs)
    merged = True
    while merged:
        merged, table = False, {}
        for t in terms:
            other = table.setdefault(
                (t.symbol, tuple(find(a) for a in t.args)), t)
            if find(other) != find(t):
                parent[find(other)] = find(t)
                merged = True
    least = {}
    lowered = True
    while lowered:
        lowered = False
        for t in terms:
            if all(find(a) in least for a in t.args):
                u = Fun(t.symbol, tuple(least[find(a)] for a in t.args))
                if find(t) not in least or order.gt(least[find(t)], u):
                    least[find(t)] = u
                    lowered = True
    rules = set()
    for t in terms:
        u = Fun(t.symbol, tuple(least[find(a)] for a in t.args))
        if u != least[find(t)]:
            rules.add(Rule(u, least[find(t)]))
    return rules
