"""End-to-end command-line tests driven through ``kbd.cli.entry``."""

import contextlib
import importlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kbd.cli import COMMANDS, arguments, entry, make_parser, read_argv
from kbd.critical_pairs import prime_critical_pairs
from kbd.orders import Precedence
from kbd.terms import Fun, Rule, Var

from helpers import joinable, lpo_order

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


COMM = "(VAR x y) (EQUATIONS f(x,y) == f(y,x))"


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = entry(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComplete:
    def test_strategy_success(self, capsys):
        code, out, _ = run(capsys, "complete", fixture("strategy.es"),
                           "--prec", "a>b>d,a>c>d")
        assert code == 0
        assert out.splitlines()[0] == "SUCCESS"
        assert "a -> b" in out
        assert "b -> d" in out
        assert "c -> d" in out
        assert "f(d) -> d" in out
        assert "(EQUATIONS" not in out

    def test_unorientable_fails(self, capsys):
        code, out, _ = run(capsys, "complete", fixture("plus.es"),
                           "--prec", "+>0")
        assert code == 1
        assert out.splitlines()[0] == "FAIL"
        assert "+(x,y) == +(y,x)" in out

    def test_divergence_runs_out_of_fuel(self, capsys):
        code, out, _ = run(capsys, "complete", fixture("braid_terms.es"),
                           "--prec", "a>b", "--fuel", "300")
        assert code == 2
        assert out.splitlines()[0] == "OUT-OF-FUEL"

    def test_rules_section_rejected(self, capsys):
        code, _, err = run(capsys, "complete", fixture("pcpex.trs"))
        assert code == 2
        assert "PRECONDITION-FAILED" in err

    def test_trace_and_replay_roundtrip(self, capsys, tmp_path):
        trace = str(tmp_path / "trace.txt")
        code, out, _ = run(capsys, "complete", fixture("strategy.es"),
                           "--prec", "a>b>d,a>c>d", "--trace", trace)
        assert code == 0
        code2, out2, _ = run(capsys, "replay", fixture("strategy.es"),
                             "--script", trace, "--prec", "a>b>d,a>c>d")
        assert code2 == 0
        assert out2.splitlines()[0] == "SUCCESS"
        assert sorted(out.splitlines()[1:]) == sorted(out2.splitlines()[1:])

    @pytest.mark.parametrize("fuel, code, status", [
        ("9", 2, "OUT-OF-FUEL"), ("10", 0, "SUCCESS"),
    ])
    def test_exact_fuel(self, capsys, fuel, code, status):
        # the run takes 10 inferences: fuel 10 lets it finish
        got, out, _ = run(capsys, "complete", fixture("strategy.es"),
                          "--prec", "a>b>d,a>c>d", "--fuel", fuel)
        assert (got, out.splitlines()[0]) == (code, status)

    def test_replay_keeps_symbols_named_like_variables(self, capsys,
                                                       tmp_path):
        problem = tmp_path / "x1.es"
        problem.write_text("(EQUATIONS f(x1) == a)\n")
        trace = str(tmp_path / "x1.trace")
        code, out, _ = run(capsys, "complete", str(problem), "--prec", "f>a",
                           "--trace", trace)
        assert code == 0 and "f(x1) -> a" in out
        code2, out2, _ = run(capsys, "replay", str(problem), "--prec", "f>a",
                             "--script", trace)
        assert (code2, out2) == (code, out)

    def test_replay_bad_script_fails(self, capsys, tmp_path):
        script = tmp_path / "bad.txt"
        script.write_text("delete a == b\n")
        code, out, _ = run(capsys, "replay", fixture("strategy.es"),
                           "--script", str(script),
                           "--prec", "a>b>d,a>c>d")
        assert code == 1
        assert out.startswith("FAIL")

    def test_replay_trailing_junk_is_a_parse_error(self, capsys, tmp_path):
        script = tmp_path / "junk.txt"
        script.write_text("orient a -> b junk junk\n")
        code, out, err = run(capsys, "replay", fixture("strategy.es"),
                             "--script", str(script),
                             "--prec", "a>b>d,a>c>d")
        assert code == 3
        assert out == "" and "PARSE-ERROR" in err

    @pytest.mark.parametrize("line, variant, reason", [
        ("simplify f(a) == b lhs at 1.1.1 with rule#0", "kbf",
         "no position (1, 1, 1) in f(a)"),
        ("deduce f(b) == f(b) from rule#0 rule#0 at 1.1", "kbf",
         "no position (1, 1) in a"),
        ("deduce f(b) == f(b) from rule#0 rule#3 at e", "kbf",
         "deduce may not use rule#3"),
        ("deduce f(b) == f(b) from rule#3 rule#0 at e", "kbf",
         "deduce may not use rule#3"),
        ("simplify f(a) == b lhs at 1 with eq#9 fwd", "kbo",
         "simplify may not use eq#9 fwd"),
        ("simplify f(a) == b lhs at 1 with eq#1 fwd", "kbf",
         "simplify may not use eq#1 fwd"),
        ("compose rule#0 at e with rule#0", "kbf",
         "compose may not use rule#0"),
        ("deduce f(b) == b from eq#0 fwd rule#0 at 1", "kbf",
         "deduce may not use eq#0 fwd"),
        ("deduce-lin g(x,x) == x from rule#0 rule#0 at e", "kbl",
         "linear completion deduces only linear equations: g(x,x) == x"),
        ("compose rule#5 at e with rule#0", "kbf", "no rule #5"),
    ], ids=["position", "peak-position", "inner-ref", "outer-ref",
            "no-equation", "no-equation-steps", "own-rule",
            "no-equation-peaks", "nonlinear", "no-target"])
    def test_replay_bad_reference_fails(self, capsys, tmp_path, line,
                                        variant, reason):
        """Replay accepts only the views the engine would search."""
        problem = tmp_path / "p.trs"
        problem.write_text("(VAR x) (RULES a -> b) "
                           "(EQUATIONS f(a) == b  a == c)\n")
        script = tmp_path / "bad.txt"
        script.write_text(line + "\n")
        code, out, _ = run(capsys, "replay", str(problem), "--prec", "a>c",
                           "--script", str(script), "--variant", variant)
        assert (code, out) == (1, "FAIL (%s)\n" % reason)

    @pytest.mark.parametrize("text, prec, rule", [
        ("bx == a\n", "x>b>a", "bx -> a"),
        ("xx == x\n", None, "xx -> x"),
    ], ids=["bx", "xx"])
    def test_string_output_keeps_letter_x(self, capsys, tmp_path, text,
                                          prec, rule):
        problem = tmp_path / "p.str"
        problem.write_text(text)
        argv = ["complete", str(problem), "--string"]
        if prec:
            argv += ["--prec", prec]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == "SUCCESS\n(RULES\n  %s\n)\n" % rule


class TestCompleteGround:
    def test_ground_example(self, capsys):
        code, out, _ = run(capsys, "complete-ground", fixture("ground.es"),
                           "--prec", "a>b>c>f")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "SUCCESS"
        assert "f(b) -> c" in out and "f(c) -> c" in out and "a -> c" in out
        assert "f(f" not in out

    def test_default_total_precedence(self, capsys):
        code, out, _ = run(capsys, "complete-ground", fixture("ground.es"))
        assert code == 0
        assert out.splitlines()[0] == "SUCCESS"

    def test_default_total_precedence_under_kbo(self, capsys):
        """With no ``--prec`` a KBO gets the same total precedence as an
        LPO, so the run ends as under ``--prec "a>b>c>f"``."""
        assert run(capsys, "complete-ground", fixture("ground.es"),
                   "--order", "kbo") == \
            (0, "SUCCESS\n(RULES\n  f(c) -> c\n  f(b) -> c\n  a -> c\n)\n",
             "")

    def test_rejects_variables(self, capsys):
        code, _, err = run(capsys, "complete-ground",
                           fixture("kbg_fail.es"), "--prec", "f>a>b")
        assert code == 2
        assert "PRECONDITION-FAILED" in err

    def test_fuel_is_honoured(self, capsys):
        code, out, err = run(capsys, "complete-ground", fixture("ground.es"),
                             "--prec", "a>b>c>f", "--fuel", "-1")
        assert code == 3
        assert out == ""
        assert "--fuel must not be negative" in err
        code, out, _ = run(capsys, "complete-ground", fixture("ground.es"),
                           "--prec", "a>b>c>f", "--fuel", "0")
        assert code == 2
        assert out.splitlines()[0] == "OUT-OF-FUEL"


class TestCompleteInf:
    def test_braid_string_mode(self, capsys):
        code, out, _ = run(capsys, "complete-inf", fixture("braid.str"),
                           "--string", "--order", "kbo", "--prec", "a>b",
                           "--fuel", "500")
        assert code == 2
        assert out.splitlines()[0] == "OUT-OF-FUEL"
        assert "aba -> bab" in out
        assert "abbab -> babba" in out
        assert "abbbab -> babbaa" in out


class TestOrderedAndLinear:
    def test_ordered_never_fails(self, capsys):
        code, out, _ = run(capsys, "complete-ordered", fixture("plus.es"),
                           "--prec", "+>0")
        assert code == 0
        assert out.splitlines()[0] == "SUCCESS"
        assert "+(0,x) -> x" in out
        assert "+(x,y) == +(y,x)" in out or "+(y,x) == +(x,y)" in out

    def test_linear(self, capsys):
        code, out, _ = run(capsys, "complete-linear", fixture("plus.es"),
                           "--prec", "+>0")
        assert code == 0
        assert "+(0,x) -> x" in out
        assert "+(x,0) -> x" in out


class TestCriticalPairCommands:
    def test_cps(self, capsys):
        code, out, _ = run(capsys, "cps", fixture("pcpex.trs"))
        assert code == 0
        lines = set(out.splitlines())
        assert "b == c" in lines or "c == b" in lines
        assert any("f(a)" in line for line in lines)

    def test_pcps_excludes_nonprime(self, capsys):
        code, out, _ = run(capsys, "pcps", fixture("pcpex.trs"))
        assert code == 0
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 2
        assert all("f(a)" in line for line in lines)

    def test_xcps_single_equation_empty(self, capsys):
        code, out, _ = run(capsys, "xcps", fixture("single.es"),
                           "--prec", "a>b")
        assert code == 0
        assert out.strip() == ""


class TestReduce:
    def test_rddot_merges_variants(self, capsys):
        code, out, _ = run(capsys, "reduce", fixture("metivier.trs"))
        assert code == 0
        lines = [line.strip() for line in out.splitlines()
                 if "->" in line]
        assert len(lines) == 3
        assert "a -> c" in lines and "b -> c" in lines
        assert any(line.endswith("-> c") and line.startswith("f(")
                   for line in lines)

    def test_rhs_only_keeps_reducible_lhs(self, capsys, tmp_path):
        prob = tmp_path / "r.trs"
        prob.write_text("(RULES f(a) -> c  a -> c  f(c) -> c)")
        code, out, _ = run(capsys, "reduce", str(prob), "--rhs-only")
        assert code == 0
        assert "f(a) -> c" in out
        code, out, _ = run(capsys, "reduce", str(prob))
        assert code == 0
        assert "f(a)" not in out
        assert "f(c) -> c" in out and "a -> c" in out

    def test_reduce_ordered_interreduction(self, capsys):
        code, out, _ = run(capsys, "reduce-ordered",
                           fixture("interreduce1.trs"), "--prec", "+>s")
        assert code == 0
        assert "+(x,s(y)) -> s(+(x,y))" in out
        assert "+(s(x),y) -> s(+(x,y))" in out
        assert "s(s(x))" not in out
        assert "+(x,y) == +(y,x)" in out or "+(y,x) == +(x,y)" in out

    def test_reduce_ordered_fixpoint(self, capsys):
        code, out, _ = run(capsys, "reduce-ordered",
                           fixture("interreduce2.trs"), "--prec", "f>g")
        assert code == 0
        assert "f(x,y) -> g(x)" in out
        assert "f(x,y) -> g(y)" in out
        assert "g(x) == g(y)" in out or "g(y) == g(x)" in out


class TestDecide:
    def test_valid(self, capsys):
        code, out, _ = run(capsys, "decide", fixture("ground.es"),
                           "--prec", "a>b>c>f", "f(f(b)) == a")
        assert code == 0
        assert out.strip() == "VALID"

    def test_invalid(self, capsys):
        code, out, _ = run(capsys, "decide", fixture("ground.es"),
                           "--prec", "a>b>c>f", "b == c")
        assert code == 1
        assert out.strip() == "INVALID"

    def test_ordered_fallback_ground_query(self, capsys):
        code, out, _ = run(capsys, "decide", fixture("plus.es"),
                           "--prec", "+>0", "+(0,0) == 0")
        assert code == 0
        assert out.strip() == "VALID"

    @pytest.mark.parametrize("problem, flags, query, code, verdict", [
        ("(EQUATIONS a == b)", (), "a == b", 2, "MAYBE (the order is not "
         "total on ground terms)"),
        ("(EQUATIONS a == b)", ("--order", "kbo"), "a == b", 2,
         "MAYBE (the order is not total on ground terms)"),
        ("(EQUATIONS a == b)", ("--prec", "a>b"), "a == b", 0, "VALID"),
        (COMM, ("--prec", "f>a>b"), "f(a,b) == f(b,a)", 0, "VALID"),
        (COMM, ("--prec", "f>a>b"), "f(a,b) == a", 1, "INVALID"),
        (COMM, ("--prec", "f>a"), "f(a,b) == a", 2,
         "MAYBE (the order is not total on ground terms)"),
        (COMM, ("--prec", "f>a>b"), "f(a,c) == a", 2,
         "MAYBE (the order is not total on ground terms)"),
        (COMM, ("--prec", "f>a>b"), "f(x,a) == f(a,x)", 2,
         "MAYBE (ordered system decides ground queries only)"),
    ], ids=["lpo", "kbo", "total", "comm-valid", "comm-invalid",
            "partial-prec", "query-symbol", "non-ground-query"])
    def test_ordered_phase_refutes_only_under_a_ground_total_order(
            self, capsys, tmp_path, problem, flags, query, code, verdict):
        path = tmp_path / "p.es"
        path.write_text(problem + "\n")
        assert run(capsys, "decide", str(path), *flags, query)[:2] == \
            (code, verdict + "\n")

    @pytest.mark.parametrize("problem, prec, query", [
        ("okb2.es", "g>f>a>b", "f(a) == b"),
        ("(VAR x y) (EQUATIONS f(x) == g(y))", "f>g>a>b", "g(a) == g(b)"),
    ], ids=["okb2", "f-g"])
    def test_one_sided_equation_refutes_nothing(self, capsys, tmp_path,
                                                problem, prec, query):
        # f(a) = f(b) = b and g(a) = f(x) = g(b), though the ordered normal
        # forms differ: they miss instances such as f(a) -> f(b)
        path = tmp_path / "p.es"
        path.write_text(problem + "\n")
        if problem.endswith(".es"):
            path = fixture(problem)
        assert run(capsys, "decide", str(path), "--prec", prec, query)[:2] \
            == (2, "MAYBE (an equation has a variable on one side only)\n")

    @pytest.mark.parametrize("query, code, verdict", [
        ("aaa == a", 0, "VALID"), ("a == ", 1, "INVALID")])
    def test_string_query(self, capsys, tmp_path, query, code, verdict):
        path = tmp_path / "aa.str"
        path.write_text("aa == a\n")
        assert run(capsys, "decide", str(path), "--string", query)[:2] == \
            (code, verdict + "\n")

    @pytest.mark.parametrize("problem, flags, query, message", [
        ("aa.str", ("--string",), "a b == a",
         "query words must be alphabetic"),
        ("aa.str", ("--string",), "a(b) == a",
         "query words must be alphabetic"),
        ("groups.es", ("--prec", "i>*>e"), "*(x) == x",
         "symbol * used with arities 2 and 1"),
        ("aa.str", ("--string",), "aa", "query must be 'word == word'"),
        ("groups.es", ("--prec", "i>*>e"), "aa",
         "query must be 'term == term'"),
    ], ids=["string-blank", "string-term", "arity", "string-no-equals",
            "term-no-equals"])
    def test_malformed_query_is_a_parse_error(self, capsys, tmp_path,
                                              problem, flags, query,
                                              message):
        path = tmp_path / "aa.str"
        path.write_text("aa == a\n")
        if problem != "aa.str":
            path = fixture(problem)
        assert run(capsys, "decide", str(path), *flags, query) == \
            (3, "", "PARSE-ERROR (%s)\n" % message)

    @pytest.mark.parametrize("query, verdict", [
        ("+(-(x),x) == 0", (0, "VALID\n", "")),
        ("+(x,0) == x", (1, "INVALID\n", "")),
    ], ids=["inverse", "unit"])
    def test_empty_e_decides_non_ground_queries(self, capsys, query,
                                                verdict):
        """kbf fails on okb1, and kbo ends with no equation left: its
        rules are complete, so they decide a query with variables."""
        assert run(capsys, "decide", fixture("okb1.es"), "--prec",
                   "*>+>->0>1", query) == verdict


class TestCheckConfluence:
    def test_unorientable_precondition(self, capsys):
        assert run(capsys, "check-confluence", fixture("pcpex.trs")) == \
            (2, "", "PRECONDITION-FAILED (no reduction order orients the "
             "rules; termination unproven)\n")

    def test_lpo_search_tries_at_most_8_symbols(self, capsys, tmp_path):
        """Past 8 symbols no precedence is searched, and the message says
        so; a given one is still checked."""
        prob = tmp_path / "p.trs"
        prob.write_text("(RULES f(a) -> b  c -> d  e -> g  h -> i  j -> k)")
        assert run(capsys, "check-confluence", str(prob)) == \
            (2, "", "PRECONDITION-FAILED (the LPO precedence search tries at "
             "most 8 symbols, not 11; give a precedence with --prec)\n")
        assert run(capsys, "check-confluence", str(prob), "--prec",
                   "f>a>b,c>d,e>g,h>i,j>k") == (0, "CONFLUENT\n", "")

    def test_confluent(self, capsys, tmp_path):
        prob = tmp_path / "c.trs"
        prob.write_text("(RULES a -> c  b -> c)")
        code, out, _ = run(capsys, "check-confluence", str(prob))
        assert code == 0
        assert out.strip() == "CONFLUENT"

    def test_not_confluent(self, capsys, tmp_path):
        prob = tmp_path / "n.trs"
        prob.write_text("(RULES f(a) -> b  f(a) -> c)")
        code, out, _ = run(capsys, "check-confluence", str(prob))
        assert code == 1
        assert out.startswith("NOT-CONFLUENT")

    def test_kbo_flags_are_honoured(self, capsys):
        code, out, err = run(capsys, "check-confluence", fixture("chain.trs"),
                             "--order", "kbo", "--weights", "a=-1")
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("PRECONDITION-FAILED")

    @pytest.mark.parametrize("flags, outcome", [
        ((), (2, "", "PRECONDITION-FAILED (rule not oriented: a -> b)\n")),
        (("--prec", "a>b>c>d"), (0, "CONFLUENT\n", "")),
    ], ids=["empty-prec", "prec"])
    def test_kbo_is_not_searched(self, capsys, flags, outcome):
        assert run(capsys, "check-confluence", fixture("chain.trs"),
                   "--order", "kbo", *flags) == outcome

    def test_ground_derived_default_precedence(self, capsys):
        """With no ``--prec`` a ground-derived order ties under a total
        precedence on the problem's symbols."""
        assert run(capsys, "check-confluence", fixture("chain.trs"),
                   "--order", "ground-derived") == (0, "CONFLUENT\n", "")

    def test_explicit_precedence_must_orient(self, capsys, tmp_path):
        prob = tmp_path / "p.trs"
        prob.write_text("(RULES a -> b)")
        assert run(capsys, "check-confluence", str(prob), "--prec", "b>a") \
            == (2, "", "PRECONDITION-FAILED (rule not oriented: a -> b)\n")


TERMS = st.recursive(
    st.sampled_from([Var("x"), Var("y"), Fun("a"), Fun("b")]),
    lambda kids: st.one_of(
        st.builds(lambda s: Fun("g", (s,)), kids),
        st.builds(lambda s, t: Fun("f", (s, t)), kids, kids)),
    max_leaves=4)


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(TERMS, TERMS), min_size=2, max_size=4),
       symbols=st.permutations(["f", "g", "a", "b"]))
def test_check_confluence_agrees_with_the_search_oracle(tmp_path_factory,
                                                        pairs, symbols):
    """Under a total LPO that orients the rules, check-confluence answers
    as a breadth-first search for a common reduct of each prime critical
    pair does, wherever the search decides."""
    order = lpo_order(Precedence.total(symbols))
    rules = [Rule(*lr) for lr in (order.orient(l, r) for l, r in pairs)
             if lr is not None]
    assume(rules)
    verdicts = [joinable(rules, eq.lhs, eq.rhs, 300)
                for eq in prime_critical_pairs(rules)]
    assume(False in verdicts or None not in verdicts)
    path = tmp_path_factory.mktemp("trs") / "p.trs"
    path.write_text("(VAR x y)\n(RULES\n%s\n)\n" % "\n".join(
        "  %s" % r for r in rules))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = entry(["check-confluence", str(path), "--prec",
                      ">".join(symbols)])
    assert code == (1 if False in verdicts else 0)
    assert out.getvalue().startswith(
        "NOT-CONFLUENT" if False in verdicts else "CONFLUENT")


class TestReplayDeduce:
    """A deduce names its peak, and the peak must overlap: a valley named
    as a peak fails, and a line without ``from`` is a parse error."""

    @pytest.mark.parametrize("variant, word", [
        ("kbf", "deduce"), ("kbi", "deduce"), ("kbo", "deduce-ext")])
    def test_valley_rejected(self, capsys, tmp_path, variant, word):
        problem = tmp_path / "valley.trs"
        problem.write_text("(RULES\n  a -> b\n  c -> b\n)\n")
        code, out, _ = run(capsys, "pcps", str(problem))
        assert (code, out) == (0, "")
        script = tmp_path / "trace"
        argv = ("replay", str(problem), "--script", str(script),
                "--variant", variant, "--prec", "a>c>b")
        script.write_text("%s a == c\n" % word)
        assert run(capsys, *argv) == \
            (3, "", "PARSE-ERROR (line 1: a deduce needs "
             "'from <outer> <inner> at <pos>')\n")
        script.write_text("%s a == c from rule#0 rule#1 at e\n" % word)
        assert run(capsys, *argv)[:2] == \
            (1, "FAIL (c -> b does not overlap a -> b at position ())\n")

    def test_critical_pair_accepted(self, capsys, tmp_path):
        script = tmp_path / "trace"
        script.write_text("deduce f(a) == c from rule#1 rule#2 at 1\n")
        code, out, _ = run(capsys, "replay", fixture("pcpex.trs"),
                           "--script", str(script), "--prec", "f>a>b>c")
        assert code == 0
        assert out.splitlines()[0] == "SUCCESS"

    @pytest.mark.parametrize("word, variant, err", [
        ("deduce-lin", "kbl", None),
        ("deduce-lin", "kbo", "kbo writes a deduce as 'deduce-ext', found "
         "'deduce-lin'"),
        ("deduce", "kbl", "kbl writes a deduce as 'deduce-lin', found "
         "'deduce'"),
    ], ids=["own-word", "kbl-word-under-kbo", "kbf-word-under-kbl"])
    def test_deduce_word_must_match_the_variant(self, capsys, tmp_path,
                                                word, variant, err):
        """A complete-linear trace of plus.es replays under kbl alone,
        and only with kbl's deduce word."""
        trace = tmp_path / "trace"
        argv = (fixture("plus.es"), "--prec", "+>0")
        code, out, _ = run(capsys, "complete-linear", *argv,
                           "--trace", str(trace))
        assert code == 0
        text = trace.read_text()
        lineno = 1 + next(i for i, line in enumerate(text.splitlines())
                          if line.startswith("deduce"))
        trace.write_text(text.replace("deduce-lin ", word + " "))
        expected = (0, out, "") if err is None else \
            (3, "", "PARSE-ERROR (line %d: %s)\n" % (lineno, err))
        assert run(capsys, "replay", *argv, "--script", str(trace),
                   "--variant", variant) == expected


AC = "(VAR x y z) (EQUATIONS +(x,y) == +(y,x)  +(x,+(y,z)) == +(y,+(x,z)))"
AC_PEAK = "+(x,+(z,y)) == +(y,+(x,z)) from eq#1 fwd eq#0 fwd at 2"


class TestReplayChecksWhatTheEngineChecks:
    """Replay and the engines share each calculus condition: the overlap
    search of a named peak and the conditions on the input."""

    @pytest.mark.parametrize("variant, word, code, out", [
        ("kbl", "deduce-lin", 1, "FAIL (+(x,y) == +(y,x) does not overlap "
         "+(x,+(y,z)) == +(y,+(x,z)) at position (2,))\n"),
        ("kbo", "deduce-ext", 0, "SUCCESS\n(EQUATIONS\n  +(x,y) == +(y,x)\n"
         "  +(x,+(y,z)) == +(y,+(x,z))\n  %s\n)\n" % AC_PEAK.split(" from")[0]),
    ], ids=["kbl", "kbo"])
    def test_peak_of_two_unorientable_equations(self, capsys, tmp_path,
                                                variant, word, code, out):
        """Neither participant is oriented, so the peak fails kbl's linear
        condition, while kbo deduces from it."""
        problem = tmp_path / "ac.es"
        problem.write_text(AC + "\n")
        script = tmp_path / "trace"
        script.write_text("%s %s\n" % (word, AC_PEAK))
        assert run(capsys, "replay", str(problem), "--script", str(script),
                   "--variant", variant, "--prec", "+>s")[:2] == (code, out)

    @pytest.mark.parametrize("variant, command, reason", [
        ("kbg", "complete-ground",
         "ground completion needs ground equations: f(x,x) == x"),
        ("kbl", "complete-linear",
         "linear completion needs linear input: f(x,x) == x"),
    ], ids=["kbg", "kbl"])
    def test_excluded_input_is_a_failed_precondition(
            self, capsys, tmp_path, variant, command, reason):
        problem = tmp_path / "p.es"
        problem.write_text("(VAR x) (EQUATIONS f(x,x) == x)\n")
        script = tmp_path / "empty"
        script.write_text("")
        err = "PRECONDITION-FAILED (%s)\n" % reason
        assert run(capsys, "replay", str(problem), "--script", str(script),
                   "--variant", variant) == (2, "", err)
        assert run(capsys, command, str(problem)) == (2, "", err)

    def test_excluded_rule_is_a_failed_precondition(self, capsys, tmp_path):
        problem = tmp_path / "p.trs"
        problem.write_text("(VAR x) (RULES f(x,x) -> x)\n")
        script = tmp_path / "empty"
        script.write_text("")
        assert run(capsys, "replay", str(problem), "--script", str(script),
                   "--variant", "kbl") == \
            (2, "", "PRECONDITION-FAILED (linear completion needs linear "
             "input: f(x,x) -> x)\n")

    @pytest.mark.parametrize("command, extra", [
        ("replay", ("--script",)), ("decide", ("g(a,a) == a",))],
        ids=["replay", "decide"])
    def test_ground_derived_order_needs_a_ground_base(
            self, capsys, tmp_path, command, extra):
        problem = tmp_path / "p.es"
        problem.write_text("(VAR x y) (RULES g(x,y) -> x) "
                           "(EQUATIONS g(g(a,a),a) == g(a,y))\n")
        script = tmp_path / "trace"
        script.write_text("orient g(g(a,a),a) -> g(a,y)\n")
        if command == "replay":
            extra += (str(script),)
        assert run(capsys, command, str(problem), *extra,
                   "--order", "ground-derived", "--prec", "g>a") == \
            (2, "", "PRECONDITION-FAILED (ground order needs a ground base "
             "TRS: g(x,y) -> x)\n")


class TestErrorsAndEnvironment:
    def test_parse_error_exit_code(self, capsys, tmp_path):
        prob = tmp_path / "bad.es"
        prob.write_text("(EQUATIONS f(a == b)")
        code, _, err = run(capsys, "complete", str(prob))
        assert code == 3
        assert "PARSE-ERROR" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "complete", fixture("no-such-file.es"))
        assert code == 3

    def file_error(self, capsys, path, *argv):
        """Run ``kbd argv``, which must fail on ``path`` with exit 3 and
        one line on stderr, printing nothing else."""
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("ERROR (") and str(path) in err
        assert err.count("\n") == 1

    def test_trace_in_missing_directory(self, capsys, tmp_path):
        """The trace file is opened before the run, so nothing is printed
        but the error."""
        trace = tmp_path / "no-such-dir" / "t"
        self.file_error(capsys, trace, "complete", fixture("strategy.es"),
                        "--prec", "a>b>d,a>c>d", "--trace", str(trace))

    def test_trace_path_is_a_directory(self, capsys, tmp_path):
        self.file_error(capsys, tmp_path, "complete", fixture("strategy.es"),
                        "--prec", "a>b>d,a>c>d", "--trace", str(tmp_path))

    @pytest.mark.parametrize("flags, env", [
        (("--fuel", "-3"), None), ((), "lots"),
    ], ids=["negative-fuel", "bad-fuel-env"])
    def test_usage_error_keeps_an_old_trace(self, capsys, monkeypatch,
                                            tmp_path, flags, env):
        """A bad fuel is a usage error found before the trace file is
        opened, so an old trace there keeps its contents."""
        trace = tmp_path / "t.log"
        trace.write_text("orient a -> d\n")
        if env is not None:
            monkeypatch.setenv("KBD_FUEL", env)
        code, out, err = run(capsys, "complete", fixture("strategy.es"),
                             "--prec", "a>b>d,a>c>d", *flags,
                             "--trace", str(trace))
        assert (code, out) == (3, "")
        assert err.startswith("ERROR (")
        assert trace.read_text() == "orient a -> d\n"

    def test_empty_trace_path(self, capsys):
        """An empty ``--trace`` path names a file that cannot be opened; it
        does not mean "no trace"."""
        self.file_error(capsys, "''", "complete", fixture("strategy.es"),
                        "--prec", "a>b>d,a>c>d", "--trace", "")

    @pytest.mark.parametrize("bad", ["problem", "script"])
    def test_input_that_is_not_utf8(self, capsys, tmp_path, bad):
        files = {"problem": tmp_path / "p.es", "script": tmp_path / "t"}
        files["problem"].write_text("(EQUATIONS a == b)\n")
        files["script"].write_text("orient a -> b\n")
        files[bad].write_bytes(b"\xff\n")
        self.file_error(capsys, "%s is not UTF-8 text (" % files[bad],
                        "replay", str(files["problem"]),
                        "--script", str(files["script"]))

    @pytest.mark.parametrize("argv, reason", [
        (("reduce", fixture("metivier.trs"), "--fuel", "0"),
         "right-hand side of f(x) -> a does not normalize within 0 steps"),
        (("reduce-ordered", fixture("interreduce1.trs"), "--prec", "+>s",
          "--fuel", "0"), "+(s(x),s(s(x))) does not normalize within 0 "
         "steps"),
        (("complete", fixture("pcpex.trs")),
         "completion starts from equations; found rules"),
        (("reduce", fixture("strategy.es")), "reduce needs a RULES section"),
        (("check-confluence", fixture("strategy.es")),
         "check-confluence needs a RULES section"),
        (("complete", fixture("strategy.es"), "--order", "ground-derived"),
         "ground-derived order needs a RULES section"),
        (("complete", fixture("groups.es"), "--order", "kbo", "--w0", "0"),
         "w0 must be positive"),
        (("check-confluence", fixture("chain.trs"), "--order",
          "ground-derived", "--prec", "a>b"),
         "ground order needs a total precedence"),
    ], ids=["reduce-fuel-0", "reduce-ordered-fuel-0", "complete-rules",
            "reduce-no-rules", "check-confluence-no-rules",
            "ground-derived-no-rules", "kbo-w0-0",
            "ground-derived-partial-prec"])
    def test_failed_precondition_message(self, capsys, argv, reason):
        assert run(capsys, *argv) == \
            (2, "", "PRECONDITION-FAILED (%s)\n" % reason)

    def test_bad_precedence_flag(self, capsys):
        code, _, err = run(capsys, "complete", fixture("single.es"),
                           "--prec", "a>")
        assert code == 3

    def test_cyclic_precedence_is_a_failed_precondition(self, capsys):
        code, _, err = run(capsys, "complete", fixture("groups.es"),
                           "--prec", "i>*>i")
        assert code == 2
        assert err.startswith("PRECONDITION-FAILED (cyclic precedence")

    @pytest.mark.parametrize("seed", ["0", "1", "2", "3", "4", "5"])
    def test_cyclic_precedence_names_its_least_symbol(self, seed):
        """The message names the least symbol on the cycle, whatever order
        a fresh interpreter's string hashes give the pairs of the
        precedence."""
        src = os.path.join(os.path.dirname(FIXTURES), os.pardir, "src")
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-m", "kbd.cli", "complete", fixture("groups.es"),
             "--prec", "i>*>i"], capture_output=True, text=True, env=env,
            timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (2, "", "PRECONDITION-FAILED (cyclic precedence through *)\n")

    def test_negative_weight_is_a_failed_precondition(self, capsys):
        code, out, err = run(capsys, "complete", fixture("groups.es"),
                             "--order", "kbo", "--prec", "i>*>e",
                             "--weights", "i=-3")
        assert code == 2
        assert out == ""
        assert err.startswith("PRECONDITION-FAILED (symbol i has negative")

    def test_closed_pipe_exits_quietly(self):
        # as in `kbd ... --trace /dev/stdout | head -1`, but with the
        # reader gone before the first write
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.join(os.path.dirname(FIXTURES), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "kbd.cli", "complete-inf",
                 fixture("braid.str"), "--string", "--order", "kbo",
                 "--prec", "a>b", "--fuel", "100", "--trace", "/dev/stdout"],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 3
        assert proc.stderr == b""

    def test_deep_term_is_a_failed_precondition(self, capsys, tmp_path):
        term = "a"
        for _ in range(400):
            term = "f(%s)" % term
        problem = tmp_path / "deep.es"
        problem.write_text("(EQUATIONS\n  %s == b\n)\n" % term)
        code, out, err = run(capsys, "complete", str(problem),
                             "--prec", "f>a>b")
        assert code == 2
        assert out == ""
        assert err == "PRECONDITION-FAILED (term nesting too deep)\n"

    def test_no_subcommand_is_usage(self, capsys):
        assert entry([]) == 3
        capsys.readouterr()

    def test_fuel_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("KBD_FUEL", "200")
        code, out, _ = run(capsys, "complete", fixture("braid_terms.es"),
                           "--prec", "a>b")
        assert code == 2
        assert out.splitlines()[0] == "OUT-OF-FUEL"

    def test_fuel_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("KBD_FUEL", "1")
        code, out, _ = run(capsys, "complete", fixture("strategy.es"),
                           "--prec", "a>b>d,a>c>d", "--fuel", "10000")
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ("reduce", fixture("metivier.trs")),
        ("check-confluence", fixture("metivier.trs")),
        ("decide", fixture("ground.es"), "--prec", "a>b>c>f", "f(f(b)) == a"),
        ("reduce-ordered", fixture("interreduce1.trs"), "--prec", "+>s"),
    ], ids=["reduce", "check-confluence", "decide", "reduce-ordered"])
    def test_zero_fuel_is_honoured(self, capsys, monkeypatch, argv):
        code, _, _ = run(capsys, *argv)
        assert code != 2
        code, _, _ = run(capsys, *argv, "--fuel", "0")
        assert code == 2
        monkeypatch.setenv("KBD_FUEL", "0")
        code, _, _ = run(capsys, *argv)
        assert code == 2

    def test_zero_fuel_reaches_reduce_ordered(self, capsys, monkeypatch):
        import kbd.cli
        seen = []

        def simplify(eqs, rules, order, fuel):
            seen.append(fuel)
            return list(eqs), list(rules)

        monkeypatch.setattr(kbd.cli, "simplify_ground_complete", simplify)
        monkeypatch.setenv("KBD_FUEL", "0")
        run(capsys, "reduce-ordered", fixture("interreduce1.trs"),
            "--prec", "+>s")
        run(capsys, "reduce-ordered", fixture("interreduce1.trs"),
            "--prec", "+>s", "--fuel", "0")
        assert seen == [0, 0]

    @pytest.mark.parametrize("argv", [
        ("complete", fixture("strategy.es"), "--prec", "a>b>d,a>c>d",
         "--fuel", "-3"),
        ("reduce", fixture("metivier.trs"), "--fuel", "-1"),
        ("cps", fixture("pcpex.trs"), "--fuel", "-3"),
        ("pcps", fixture("pcpex.trs"), "--fuel", "-3"),
        ("xcps", fixture("okb1.es"), "--prec", "+>0", "--fuel", "-3"),
    ], ids=["complete", "reduce", "cps", "pcps", "xcps"])
    def test_negative_fuel_is_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "--fuel must not be negative" in err

    def test_bad_fuel_env(self, capsys, monkeypatch):
        monkeypatch.setenv("KBD_FUEL", "lots")
        code, _, err = run(capsys, "complete", fixture("strategy.es"),
                           "--prec", "a>b>d,a>c>d")
        assert code == 3

    STRATEGY = (fixture("strategy.es"), "--prec", "a>b>d,a>c>d")

    @pytest.mark.parametrize("argv, fuel, script", [
        (("complete",) + STRATEGY + ("--order", "kbo", "--weights", "f=²"),
         None, None),
        (("complete",) + STRATEGY + ("--order", "kbo", "--weights",
                                     "f=--3"), None, None),
        (("replay",) + STRATEGY, None, "compose rule#² at e with rule#0"),
        (("replay",) + STRATEGY, None,
         "simplify a == b lhs at e with rule#²"),
        (("reduce", fixture("metivier.trs")), "²", None),
        (("check-confluence", fixture("metivier.trs")), "²", None),
        (("decide", fixture("ground.es"), "--prec", "a>b>c>f",
          "f(f(b)) == a"), "²", None),
        (("complete",) + STRATEGY, "²", None),
    ], ids=["weight-superscript", "weight-double-minus", "compose-target",
            "simplify-ref", "fuel-reduce", "fuel-check-confluence",
            "fuel-decide", "fuel-complete"])
    def test_malformed_number_is_a_usage_error(self, capsys, monkeypatch,
                                               tmp_path, argv, fuel, script):
        # str.isdigit accepts "²", which int() rejects
        if fuel is not None:
            monkeypatch.setenv("KBD_FUEL", fuel)
        if script is not None:
            path = tmp_path / "trace.txt"
            path.write_text(script + "\n")
            argv += ("--script", str(path))
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1


def parsed(parser, argv):
    """The exit code, stdout and stderr of ``parser.parse_args(argv)``;
    the code is None when the arguments parse."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


class TestOneCommandParser:
    """argparse answers ``-h`` and every malformed call with the parser of
    every command, usage lines included."""

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize("rest", [
        ["-h"], [], ["p.es", "--bogus"], ["p.es", "--order", "nope"],
        ["p.es", "--fuel", "x"], ["p.es", "q", "r", "s"],
    ], ids=["help", "missing", "unknown-flag", "bad-order", "bad-fuel",
            "extra"])
    def test_same_as_full_parser(self, command, rest):
        code, _, err = parsed(make_parser(), [command] + rest)
        assert code == (0 if rest == ["-h"] else 2)
        # decide, short of its query, and replay, of its --script, report
        # that first in their own usage
        if rest == ["p.es", "--bogus"] and command not in ("decide",
                                                          "replay"):
            usage, error = err.split("kbd: error: ")
            assert error == "unrecognized arguments: --bogus\n"
            assert "{%s}" % ",".join(COMMANDS) in usage

    def test_replay_without_script(self):
        code, _, err = parsed(make_parser(), ["replay", "p.es"])
        assert code == 2
        assert "the following arguments are required: --script" in err

    def test_no_command(self, capsys):
        code, out, err = run(capsys)
        assert (code, out) == (3, "")
        assert err.endswith(
            "kbd: error: the following arguments are required: command\n")

    def test_top_level_help_lists_every_command(self, capsys):
        code, out, err = run(capsys, "-h")
        assert (code, err) == (0, "")
        assert "{%s}" % ",".join(COMMANDS) in out

    def test_unknown_command(self, capsys):
        code, out, err = run(capsys, "bogus")
        assert (code, out) == (3, "")
        assert "argument command: invalid choice: 'bogus'" in err


def read_by_argparse(argv):
    """``vars()`` of the namespace that argparse makes of ``argv``, or None
    where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(make_parser().parse_args(argv))
        except SystemExit:
            return None


# tokens that argparse reads otherwise than as a plain flag or value, or
# rejects: help, an abbreviation, --flag=value, the end of the flags, a
# value or a number that starts with a sign, digits that int() rejects or
# that are not ASCII, unknown flags, a lone "-", a value outside choices
AWKWARD = ["-h", "--help", "--pre", "--fuel=3", "--", "-3", "+5", "²", "٣",
           "3.0", " 3", "x", "--bogus", "-x", "-", "-a", "a b", "--str",
           "-s", "nope"]
NUMBERS = ["0", "3", "007", "10000"]
WORDS = ["p.es", "a>b", "f(b) == a", "f=2,g=1", "", "t.log", "kbo"]


def mostly(good, bad):
    """``good`` two times in three, ``bad`` otherwise."""
    return st.one_of(good, good, bad)


@st.composite
def calls(draw):
    """A call of a command: about as many positionals as it takes, some of
    its flags, each with a value of its kind where it takes one, and
    sometimes awkward tokens, in any order."""
    command = draw(st.sampled_from(list(COMMANDS)))
    table = arguments(command)
    wanted = sum(not name.startswith("-") for name in table)
    count = draw(mostly(st.just(wanted), st.integers(0, wanted + 1)))
    pieces = [[draw(st.sampled_from(WORDS))] for _ in range(count)]
    flags = st.sampled_from([name for name in table if name.startswith("-")])
    for name in draw(mostly(st.lists(flags, max_size=5, unique=True),
                            st.lists(flags, max_size=5))):
        kwargs = table[name]
        if kwargs.get("action"):
            pieces.append([name])
        else:
            values = kwargs.get("choices", NUMBERS if kwargs.get("type")
                                else WORDS)
            pieces.append([name, draw(mostly(st.sampled_from(values),
                                             st.sampled_from(AWKWARD)))])
    pieces += [[token] for token in draw(mostly(
        st.just([]), st.lists(st.sampled_from(AWKWARD), max_size=2)))]
    return [command] + [token for piece in draw(st.permutations(pieces))
                        for token in piece]


class TestReadArgv:
    """``read_argv`` reads a well-formed call as argparse does, and leaves
    every other call to argparse."""

    @settings(max_examples=400, deadline=None)
    @given(calls())
    def test_agrees_with_argparse(self, argv):
        ours = read_argv(argv)
        theirs = read_by_argparse(argv)
        if theirs is None:
            assert ours is None
        elif ours is not None:
            assert vars(ours) == theirs

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["-h"], ["complete", "-h"], ["complete", "p.es", "--"],
        ["complete", "p.es", "--fuel", "-3"], ["complete", "p.es", "--pre",
                                               "a>b"],
        ["complete", "p.es", "--fuel", "3", "--fuel", "3"],
        ["complete", "p.es", "--fuel=3"], ["complete", "p.es", "--fuel",
                                           "²"],
        ["complete", "p.es", "--fuel", "+5"], ["replay", "p.es"],
        ["decide", "p.es"], ["cps", "p.es", "--prec", "a>b"],
    ])
    def test_leaves_to_argparse(self, argv):
        assert read_argv(argv) is None

    def test_flag_table_uses_only_read_keywords(self):
        """Every ``add_argument`` call in the flag table uses only the
        keywords that ``read_argv`` reads as argparse does."""
        for command in COMMANDS:
            for name, kwargs in arguments(command).items():
                assert set(kwargs) <= {"action", "type", "choices",
                                       "default", "required", "help"}, name
                assert kwargs.get("action", "store_true") == "store_true", \
                    name
                assert kwargs.get("type", int) is int, name

    def test_every_golden_and_bench_call(self, monkeypatch):
        """Every call of the golden runs and of the benchmark is read from
        the flag table, so none of them pays for argparse."""
        from test_golden import CASES, LISTINGS, VARIANTS, _argv
        monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
        workloads = importlib.import_module("workloads")
        argvs = [_argv(name, "t.log") for name in CASES]
        argvs += [["replay", fixture(problem), "--script", "t.log",
                   "--variant", VARIANTS[command]] + list(flags)
                  for command, problem, flags, _ in CASES.values()]
        argvs += [[command, fixture(problem)] + list(flags)
                  for command, problem, flags in LISTINGS.values()]
        argvs += [case.command() + ["--trace", "t.log"]
                  for cases in workloads.CASES.values() for case in cases]
        assert len(argvs) > 100
        for argv in argvs:
            ours = read_argv(argv)
            assert ours is not None, argv
            assert vars(ours) == read_by_argparse(argv)


# A fresh interpreter runs ``entry`` once and reports its exit code and
# which of the modules that argparse loads are loaded.
COLD_CALL = """
import sys
from kbd.cli import entry
code = entry(sys.argv[1:])
print(code, *sorted({"argparse", "gettext", "locale"} & set(sys.modules)))
"""


def cold_call(*argv):
    """The exit code of ``kbd argv`` in a fresh interpreter, and which of
    argparse, gettext and locale it loaded."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", COLD_CALL] + list(argv),
                          capture_output=True, text=True, env=env,
                          timeout=60)
    code, *loaded = proc.stdout.splitlines()[-1].split()
    return int(code), set(loaded)


def test_well_formed_cold_call_loads_no_argparse():
    assert cold_call("complete", fixture("strategy.es"),
                     "--prec", "a>b>d,a>c>d") == (0, set())


def test_help_loads_argparse():
    code, loaded = cold_call("complete", "-h")
    assert code == 0 and "argparse" in loaded


class TestOrderRules:
    """``COMMANDS`` alone says which commands take the order flags: a
    command that reads no order rejects them, and every other accepts
    them."""

    def test_commands_that_read_no_order(self):
        assert [name for name, (_, rule, _) in COMMANDS.items()
                if rule is None] == ["cps", "pcps", "reduce"]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_order_flags_follow_the_order_rule(self, capsys, command):
        _, rule, own = COMMANDS[command]
        argv = [command, fixture("pcpex.trs"), "--prec", "a>b"]
        for arg, kwargs in own.items():
            if not arg.startswith("-"):
                argv.append("a == b")
            elif kwargs.get("required"):
                argv += [arg, "t.log"]
        if rule is None:
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert err.endswith("error: unrecognized arguments: --prec a>b\n")
        else:
            assert parsed(make_parser(), argv)[0] is None
