"""Acceptance suite: one test per top-level requirement.

Each test exercises an end-to-end behaviour of the package: golden runs
of the five completion engines, the critical-pair and canonicity
machinery, and randomized property checks against independent oracles.
Run with ``pytest -v`` to get one pass/fail line per criterion.
"""

import os
import time

import pytest

from kbd.canonicity import rddot, trs_variants
from kbd.cli import entry
from kbd.completion import (Inference, RunState, SideConditionError,
                            apply_inference, is_linear, replay, run_kbf,
                            run_kbg)
from kbd.critical_pairs import critical_pairs, prime_critical_pairs
from kbd.orders import KboWeights, OrderSpec, Precedence
from kbd.ordered import (ground_joinable, run_kbl, run_kbo,
                         simplify_ground_complete)
from kbd.parsing import word_term
from kbd.rewriting import normalize, ordered_normalize
from kbd.terms import (Equation, Fun, Rule, Var, apply_subst,
                       equation_variants, match, positions, replace_at,
                       subterm_at, variables)

from helpers import (GROUND_SIG, all_steps, brute_force_confluent,
                     enumerate_ground_terms, is_reduced, joinable,
                     random_ground_es, random_ground_term,
                     random_linear_term, random_orientable_trs,
                     random_reduced_ground_trs, same_normal_forms,
                     word_over)
from test_completion import (STRATEGY_E, STRATEGY_ORDER, STRATEGY_R,
                             scripted_failure, scripted_success)
from test_ordered import (OKB1_E, OKB1_ORDER, OKB1_R, OKB2_E, OKB2_ORDER,
                          okb1_script, okb2_script)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

x, y = Var("x"), Var("y")
a, b, c, d = Fun("a"), Fun("b"), Fun("c"), Fun("d")


def f(*args):
    return Fun("f", args)


def g(*args):
    return Fun("g", args)


def fixture(name):
    return os.path.join(FIXTURES, name)


def test_01_strategy_example_scripted_and_automatic(capsys):
    """Scripted success/failure replays of the four-equation example hit
    their exact final states, and the automatic engine completes it."""
    state = replay(STRATEGY_E, [], scripted_success(), "kbf",
                   STRATEGY_ORDER)
    assert state.E == []
    assert trs_variants(state.R, STRATEGY_R)

    state = replay(STRATEGY_E, [], scripted_failure(), "kbf",
                   STRATEGY_ORDER)
    assert state.E == [Equation(c, b)]

    result = run_kbf(STRATEGY_E, STRATEGY_ORDER)
    assert result.status == "success"
    assert trs_variants(result.state.R, STRATEGY_R)


def test_02_ground_example_complete_and_decide(capsys):
    """Ground completion of the four ground equations yields the reduced
    three-rule system, and the word problem for it is decided VALID."""
    code = entry(["complete-ground", fixture("ground.es"),
                  "--prec", "a>b>c>f"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0] == "SUCCESS"
    expected = [Rule(f(b), c), Rule(f(c), c), Rule(a, c)]
    order = OrderSpec("lpo", Precedence.total(["a", "b", "c", "f"]))
    result = run_kbg([Equation(f(f(f(a))), f(b)), Equation(f(f(b)), c),
                      Equation(f(c), a), Equation(f(a), f(f(b)))], order)
    assert trs_variants(list(result.state.R), expected)
    assert is_reduced(list(result.state.R))

    code = entry(["decide", fixture("ground.es"), "--prec", "a>b>c>f",
                  "f(f(b)) == a"])
    assert capsys.readouterr().out.strip() == "VALID"
    assert code == 0


def test_03_ground_completion_robustness(rng):
    """500 random ground equation sets: ground completion always
    terminates successfully with a reduced system whose prime critical
    pairs are joinable and which preserves every input equation."""
    signatures = [GROUND_SIG, {"f": 2, "a": 0, "b": 0},
                  {"f": 1, "g": 2, "a": 0, "b": 0},
                  {"f": 1, "a": 0, "b": 0, "c": 0}]
    for _ in range(500):
        sig = rng.choice(signatures)
        es = random_ground_es(rng, sig, n=6, depth=4)
        order = OrderSpec("lpo", Precedence.total(sorted(sig)))
        result = run_kbg(es, order)
        assert result.status == "success"
        rules = list(result.state.R)
        assert is_reduced(rules)
        for eq in prime_critical_pairs(rules):
            assert joinable(rules, eq.lhs, eq.rhs, 1000) is True
        for eq in es:
            l = normalize(rules, eq.lhs, 1000)
            r = normalize(rules, eq.rhs, 1000)
            assert l is not None and l == r


def test_04_prime_critical_pairs_exact():
    """For {f(a)->b, f(a)->c, a->a} the prime critical pairs are exactly
    f(a)~b and f(a)~c; b~c is a critical pair but not prime."""
    rules = [Rule(f(a), b), Rule(f(a), c), Rule(a, a)]
    pcps = prime_critical_pairs(rules)
    expected = [Equation(f(a), b), Equation(f(a), c)]
    assert len(pcps) == len(expected)
    for eq in expected:
        assert any(equation_variants(eq, cp) for cp in pcps)
    cps = critical_pairs(rules)
    bc = Equation(b, c)
    assert any(equation_variants(bc, cp) for cp in cps)
    assert not any(equation_variants(bc, cp) for cp in pcps)


def test_05_confluence_criterion_matches_brute_force(rng):
    """200 random LPO-orientable systems: joinability of the prime
    critical pairs agrees with brute-force peak enumeration."""
    start = time.time()
    sig = {"f": 1, "g": 1, "a": 0}
    # a fresh constant stands in for a variable: no left-hand side over
    # sig can match it, so reductions coincide with the open-term case
    terms = enumerate_ground_terms(dict(sig, u0=0), 3)
    checked = 0
    while checked < 200:
        rules, prec = random_orientable_trs(rng, sig, ("x",), n=3, depth=2)
        if rules is None:
            continue
        checked += 1
        pcp_verdict = all(joinable(rules, eq.lhs, eq.rhs, 500) is True
                          for eq in prime_critical_pairs(rules))
        assert pcp_verdict == brute_force_confluent(rules, terms)
    assert time.time() - start < 60


def test_06_interreduction_canonicalizes(rng):
    """The two-step interreduction merges the variant rules of the
    four-rule example, and on 100 random complete systems its output is
    reduced and normalization-equivalent to the input."""
    variant_rules = [Rule(f(x), a), Rule(f(y), b), Rule(a, c), Rule(b, c)]
    out = rddot(variant_rules)
    assert trs_variants(out, [Rule(f(x), c), Rule(a, c), Rule(b, c)])

    terms = enumerate_ground_terms(GROUND_SIG, 4)
    for _ in range(100):
        R = random_reduced_ground_trs(rng, GROUND_SIG, n=4, depth=3)
        out = rddot(list(R))
        assert is_reduced(out)
        assert same_normal_forms(R, out, terms)


def test_07_braid_divergence_and_encompassment(capsys):
    """The braid word equation diverges into the known infinite rule
    family, and the collapse that destroys it is legal for the finite
    calculus but rejected by the encompassment side condition."""
    code = entry(["complete-inf", fixture("braid.str"), "--string",
                  "--order", "kbo", "--prec", "a>b", "--fuel", "500"])
    out = capsys.readouterr().out
    assert code == 2
    assert out.splitlines()[0] == "OUT-OF-FUEL"
    for line in ("aba -> bab", "abbab -> babba", "abbbab -> babbaa",
                 "abbbbab -> babbaaa"):
        assert line in out

    order = OrderSpec("lpo", Precedence([("a", "b")]))
    rules = [Rule(word_term("aba"), word_term("ab")),
             Rule(word_term("bb"), word_term("b")),
             Rule(word_over("aba", "z"), word_over("abb", "z"))]
    inf = Inference("collapse", target=0, pos=(), ref=(("rule", 2), False))
    state = RunState.start([], rules)
    apply_inference(state, inf, "kbf", order)
    assert state.E == [Equation(word_term("abb"), word_term("ab"))]
    state = RunState.start([], rules)
    with pytest.raises(SideConditionError, match="encompass"):
        apply_inference(state, inf, "kbi", order)


def test_08_random_descent(rng):
    """100 random reduced ground systems: from every term of depth <= 4
    all maximal rewrite sequences have the same length, and every peak
    is joinable within one further step on each side."""
    terms = enumerate_ground_terms(GROUND_SIG, 4)
    for _ in range(100):
        R = random_reduced_ground_trs(rng, GROUND_SIG, n=4, depth=3)
        lengths = {}

        def seq_lengths(t):
            if t in lengths:
                return lengths[t]
            succ = [v for _, _, v in all_steps(R, t)]
            out = {0} if not succ else \
                {1 + n for s in succ for n in seq_lengths(s)}
            lengths[t] = out
            return out

        for t in terms:
            assert len(seq_lengths(t)) == 1
            succ = [v for _, _, v in all_steps(R, t)]
            for i, u in enumerate(succ):
                for v in succ[i + 1:]:
                    if u == v:
                        continue
                    ru = {u} | {w for _, _, w in all_steps(R, u)}
                    rv = {v} | {w for _, _, w in all_steps(R, v)}
                    assert ru & rv


def test_09_ground_completion_reproduces_reduced_system(rng):
    """Completion of a reduced ground system, under the order derived
    from that very system, returns the system itself (50 samples)."""
    done = 0
    while done < 50:
        R = random_reduced_ground_trs(rng, GROUND_SIG, n=3, depth=3)
        if not R:
            continue
        done += 1
        order = OrderSpec("ground", Precedence.total(sorted(GROUND_SIG)),
                          base=list(R))
        result = run_kbg([r.as_equation() for r in R], order)
        assert result.status == "success"
        assert trs_variants(list(result.state.R), list(R))


def _random_conversion_walk(rng, eqs, rules, sig, start, steps):
    """A random equational walk from ``start``; stays ground by
    instantiating unbound variables with random ground terms."""
    oriented = []
    for p in list(eqs) + list(rules):
        oriented.append((p.lhs, p.rhs))
        oriented.append((p.rhs, p.lhs))
    t = start
    for _ in range(steps):
        options = []
        for pos in positions(t):
            sub = subterm_at(t, pos)
            for (l, r) in oriented:
                sigma = match(l, sub)
                if sigma is not None:
                    options.append((pos, r, sigma))
        if not options:
            break
        pos, r, sigma = rng.choice(options)
        for v in variables(r):
            if v not in sigma:
                sigma[v] = random_ground_term(rng, sig, 1)
        t = replace_at(t, pos, apply_subst(sigma, r))
    return t


def test_10_ordered_completion_goldens_and_ground_joinability(rng):
    """Scripted ordered-completion replays reach their known limits, and
    the resulting ground-complete system joins 50 randomly generated
    convertible ground pairs."""
    state = replay(OKB1_E, [], okb1_script(), "kbo", OKB1_ORDER)
    assert state.E == []
    assert trs_variants(state.R, OKB1_R)

    state = replay(OKB2_E, [], okb2_script(), "kbo", OKB2_ORDER)
    assert trs_variants(state.R, [Rule(f(x), b)])
    eqs = [e for e in state.E if not e.is_trivial()]
    assert len(eqs) == 1
    assert equation_variants(eqs[0], Equation(g(b, x), g(x, b)))

    sig = {"f": 1, "g": 2, "a": 0, "b": 0}
    E, R = eqs, list(state.R)
    for _ in range(50):
        s = random_ground_term(rng, sig, 3)
        t = _random_conversion_walk(rng, E, R, sig, s, rng.randint(1, 4))
        assert ground_joinable(E, R, OKB2_ORDER, s, t, 2000) is True


def test_11_interreduction_of_ground_complete_systems(rng):
    """The two worked interreduction examples come out exactly as known,
    and interreducing 50 random quiesced ordered-completion outputs
    preserves ground normal forms."""
    plus = lambda l, r: Fun("+", (l, r))
    s = lambda t: Fun("s", (t,))
    rules = [Rule(plus(s(s(x)), s(x)), plus(s(x), s(s(x))))]
    eqs = [Equation(plus(x, s(y)), s(plus(x, y))),
           Equation(plus(s(x), y), s(plus(x, y))),
           Equation(plus(x, y), plus(y, x))]
    order = OrderSpec("lpo", Precedence([("+", "s")]))
    new_eqs, new_rules = simplify_ground_complete(eqs, rules, order, 2000)
    assert trs_variants(new_rules, [Rule(plus(x, s(y)), s(plus(x, y))),
                                    Rule(plus(s(x), y), s(plus(x, y)))])
    assert len(new_eqs) == 1
    assert equation_variants(new_eqs[0], Equation(plus(x, y), plus(y, x)))

    rules = [Rule(f(x, y), g(x)), Rule(f(x, y), g(y))]
    eqs = [Equation(g(x), g(y))]
    order = OrderSpec("lpo", Precedence([("f", "g")]))
    new_eqs, new_rules = simplify_ground_complete(eqs, rules, order, 2000)
    assert trs_variants(new_rules, rules)
    assert len(new_eqs) == 1 and equation_variants(new_eqs[0], eqs[0])

    sig = {"f": 1, "g": 2, "a": 0, "b": 0}
    order = OrderSpec("kbo", Precedence.total(["f", "g", "a", "b"]),
                      KboWeights(1, {}))
    done = attempts = 0
    while done < 50 and attempts < 500:
        attempts += 1
        eqs = [Equation(random_linear_term(rng, sig, ["x", "y"], 2),
                        random_linear_term(rng, sig, ["y", "x"], 2))
               for _ in range(rng.randint(1, 3))]
        result = run_kbo(eqs, order, 2000)
        if result.status != "success":
            continue
        done += 1
        E, R = list(result.state.E), list(result.state.R)
        E2, R2 = simplify_ground_complete(E, R, order, 2000)
        for _ in range(10):
            t = random_ground_term(rng, sig, 3)
            before = ordered_normalize(E, R, order, t, 2000)
            after = ordered_normalize(E2, R2, order, t, 2000)
            assert before == after
    assert done == 50


def test_12_linear_completion(rng):
    """Linear completion of {0+x~x, x+y~y+x} quiesces at the two-rule
    system plus commutativity, and on a 200-run random linear corpus
    every intermediate state stays linear."""
    plus = lambda l, r: Fun("+", (l, r))
    zero = Fun("0")
    eqs = [Equation(plus(zero, x), x), Equation(plus(x, y), plus(y, x))]
    order = OrderSpec("lpo", Precedence([("+", "0")]))
    result = run_kbl(eqs, order)
    assert result.status == "success"
    assert trs_variants(result.state.R,
                        [Rule(plus(zero, x), x), Rule(plus(x, zero), x)])
    assert len(result.state.E) == 1
    assert equation_variants(result.state.E[0],
                             Equation(plus(x, y), plus(y, x)))

    sig = {"f": 1, "g": 2, "a": 0, "b": 0}
    korder = OrderSpec("kbo", Precedence.total(["f", "g", "a", "b"]),
                       KboWeights(1, {}))
    done = attempts = 0
    while done < 200 and attempts < 2000:
        attempts += 1
        random_eqs = [Equation(random_linear_term(rng, sig, ["x", "y"], 2),
                               random_linear_term(rng, sig, ["u", "v"], 2))
                      for _ in range(rng.randint(1, 3))]
        try:
            result = run_kbl(random_eqs, korder, 1000)
        except ValueError:
            continue
        done += 1
        state = RunState.start(random_eqs, [])
        for inf in result.trace:
            apply_inference(state, inf, "kbl", korder)
            for p in list(state.E) + list(state.R):
                assert is_linear(p.lhs) and is_linear(p.rhs)
    assert done == 200


def test_13_performance_chain_family():
    """Completing the 13-equation chain family with equal-weight KBO and
    a final interreduction stays under five seconds and is canonical."""
    cc = Fun("c")

    def iterate(sym, i, t):
        for _ in range(i):
            t = Fun(sym, (t,))
        return t

    eqs = [Equation(Fun("f", (iterate("g", i, cc),)),
                    Fun("g", (iterate("f", i, cc),)))
           for i in range(13)]
    order = OrderSpec("kbo", Precedence([("f", "g")]), KboWeights(1, {}))
    start = time.time()
    result = run_kbf(eqs, order, 100000)
    rules = rddot(list(result.state.R))
    elapsed = time.time() - start
    assert result.status == "success"
    assert elapsed < 5
    assert is_reduced(rules)
    for eq in prime_critical_pairs(rules):
        assert joinable(rules, eq.lhs, eq.rhs, 2000) is True
    for eq in eqs:
        l = normalize(rules, eq.lhs, 5000)
        r = normalize(rules, eq.rhs, 5000)
        assert l is not None and l == r
