"""Problem files, trace scripts, and the word encoding."""

import glob
import os

import pytest

from kbd.completion import Inference, Peak, calculus
from kbd.parsing import (ParseError, ProblemFile, format_inference,
                         format_position, format_trace, parse_inference,
                         parse_position, parse_problem, parse_term_string,
                         parse_trace, term_word, word_term)
from kbd.terms import Equation, Fun, Rule, Var

from helpers import print_problem

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

x, y = Var("x"), Var("y")
a, b = Fun("a"), Fun("b")


class TestTermParsing:
    def test_simple(self):
        assert parse_term_string("f(x,g(a))", ["x"]) == \
            Fun("f", (x, Fun("g", (Fun("a"),))))

    def test_undeclared_identifier_is_constant(self):
        assert parse_term_string("f(z)", ["x"]) == Fun("f", (Fun("z"),))

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_term_string("f(x", ["x"])
        with pytest.raises(ParseError):
            parse_term_string("f(x))", ["x"])

    def test_error_carries_location(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_term_string("f(x,)", ["x"])


class TestProblemParsing:
    def test_equations_section(self):
        pf = parse_problem("(VAR x) (EQUATIONS +(0,x) == x)")
        assert pf.equations == [Equation(Fun("+", (Fun("0"), x)), x)]
        assert pf.rules == []

    def test_braid_rule_needs_var_decl(self):
        text = "(RULES a(b(a(x))) -> b(a(b(x))))"
        pf = parse_problem(text)  # x becomes a constant: a ground rule
        assert pf.rules[0].lhs == Fun("a", (Fun("b", (Fun("a",
                                      (Fun("x"),)),)),))
        pf2 = parse_problem("(VAR x) " + text)
        assert pf2.rules[0].lhs == Fun("a", (Fun("b", (Fun("a", (x,)),)),))

    def test_variable_lhs_rejected(self):
        with pytest.raises(ParseError):
            parse_problem("(VAR x) (RULES x -> x)")

    def test_arity_conflict(self):
        with pytest.raises(ParseError):
            parse_problem("(RULES f(a) -> f(a,a))")

    def test_unknown_section(self):
        with pytest.raises(ParseError):
            parse_problem("(STUFF a)")

    def test_roundtrip_fixture_corpus(self):
        files = sorted(glob.glob(os.path.join(FIXTURES, "*.es")) +
                       glob.glob(os.path.join(FIXTURES, "*.trs")))
        assert len(files) >= 20
        for path in files:
            with open(path) as fh:
                text = fh.read()
            pf = parse_problem(text)
            printed = print_problem(pf)
            again = parse_problem(printed)
            assert again == pf
            assert print_problem(again) == printed


class TestWordEncoding:
    def test_word_term(self):
        assert word_term("aba") == Fun("a", (Fun("b", (Fun("a", (x,)),)),))

    def test_term_word_inverse(self):
        assert term_word(word_term("abba")) == "abba"
        assert term_word(Fun("f", (a, b))) is None

    def test_string_problem(self):
        pf = parse_problem("aba == bab\nbb -> b\n", string_mode=True)
        assert pf.equations == [Equation(word_term("aba"), word_term("bab"))]
        assert pf.rules == [Rule(word_term("bb"), word_term("b"))]

    def test_string_problem_rejects_garbage(self):
        with pytest.raises(ParseError):
            parse_problem("ab1 == ba", string_mode=True)

    def test_string_problem_skips_comments_and_blank_lines(self):
        pf = parse_problem("# words\n\nab == b  # a comment\n",
                           string_mode=True)
        assert pf.equations == [Equation(word_term("ab"), word_term("b"))]
        with pytest.raises(ParseError, match="^line 3: expected 'word -> "
                           "word' or 'word == word'$"):
            parse_problem("# words\n\nab b\n", string_mode=True)


class TestPositions:
    def test_root(self):
        assert format_position(()) == "e"
        assert parse_position("e") == ()

    def test_nested(self):
        assert format_position((1, 2)) == "1.2"
        assert parse_position("1.2") == (1, 2)

    def test_bad(self):
        with pytest.raises(ParseError):
            parse_position("1.x")


def is_var(name):
    return name in ("x", "y")


class TestTraceGrammar:
    CASES = [
        Inference("orient", equation=Equation(Fun("f", (a,)), b)),
        Inference("orient", equation=Equation(a, b), reverse=True),
        Inference("delete", equation=Equation(a, a)),
        Inference("deduce", equation=Equation(Fun("f", (x,)), x),
                  peak=Peak((("rule", 2), False), (("rule", 0), False),
                            (1,))),
        Inference("deduce", equation=Equation(a, b),
                  peak=Peak((("eq", 1), True), (("rule", 0), False), ())),
        Inference("simplify", equation=Equation(Fun("f", (a,)), b),
                  side="lhs", pos=(1,), ref=(("rule", 0), False)),
        Inference("simplify", equation=Equation(a, b), side="rhs", pos=(),
                  ref=(("eq", 2), True)),
        Inference("compose", target=1, pos=(2, 1), ref=(("rule", 0), False)),
        Inference("collapse", target=0, pos=(), ref=(("eq", 1), False)),
    ]

    def test_roundtrip(self):
        for inf in self.CASES:
            line = format_inference(inf, "kbf")
            assert parse_inference(line, is_var) == inf

    def test_variant_deduce_words(self):
        inf = Inference("deduce", equation=Equation(a, b),
                        peak=Peak((("rule", 0), False), (("rule", 1), False),
                                  ()))
        assert format_inference(inf, "kbo").startswith("deduce-ext ")
        assert format_inference(inf, "kbl").startswith("deduce-lin ")
        for variant in ("kbf", "kbo", "kbl"):
            line = format_inference(inf, variant)
            assert parse_inference(line, is_var) == inf

    @pytest.mark.parametrize("line", [
        "deduce a == b", "deduce-ext a == b", "deduce-lin a == b",
        "deduce a == b by rule#0 rule#1 at e"])
    def test_deduce_without_peak_is_a_parse_error(self, line):
        with pytest.raises(ParseError, match="^line 2: a deduce needs "
                           "'from <outer> <inner> at <pos>'$"):
            parse_trace("delete a == a\n" + line + "\n", is_var, "kbf")

    @pytest.mark.parametrize("variant", ["kbf", "kbo", "kbl"])
    def test_trace_deduce_word_follows_the_variant(self, variant):
        """``parse_trace`` reads a deduce in ``variant``'s word alone."""
        inf = self.CASES[3]
        for other in ("kbf", "kbo", "kbl"):
            text = "delete a == a\n" + format_inference(inf, other) + "\n"
            if other == variant:
                assert parse_trace(text, is_var, variant)[1] == inf
                continue
            with pytest.raises(ParseError, match="^line 2: %s writes a "
                               "deduce as '%s', found '%s'$" % (
                                   variant, calculus(variant).deduce_word,
                                   calculus(other).deduce_word)):
                parse_trace(text, is_var, variant)

    def test_deduce_peak_suffix(self):
        inf = parse_inference("deduce-ext a == b from eq#1 rev rule#0 at 2.1",
                              is_var)
        assert inf.peak == Peak((("eq", 1), True), (("rule", 0), False),
                                (2, 1))
        assert format_inference(inf, "kbo") == \
            "deduce-ext a == b from eq#1 rev rule#0 at 2.1"
        for bad in ("deduce a == b by rule#0 rule#1 at e",
                    "deduce a == b from rule#0 at e",
                    "deduce a == b from rule#0 rule#1",
                    "deduce a == b from eq#0 rule#1 at e",
                    "deduce a == b from rule#0 rule#1 at e junk",
                    "orient a -> b junk junk",
                    "delete a == a junk",
                    "simplify a == b lhs at e with rule#0 extra",
                    "collapse rule#0 at e with eq#1 rev extra"):
            with pytest.raises(ParseError):
                parse_inference(bad, is_var)

    def test_trace_roundtrip(self):
        text = format_trace(self.CASES, "kbf")
        assert parse_trace(text, is_var, "kbf") == self.CASES

    def test_parse_errors(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_trace("orient a >> b", is_var, "kbf")
        with pytest.raises(ParseError):
            parse_inference("simplify a == b lhs at e with rule#x", is_var)
        with pytest.raises(ParseError):
            parse_inference("frobnicate a == b", is_var)

    @pytest.mark.parametrize("text, message", [
        ("(EQUATIONS\n  a == )\n",
         "expected a term but found ')' at line 2, column 8"),
        ("(VAR x)\n(EQUATIONS\n\tf(x,\t== a)\n",
         "expected a term but found '==' at line 3, column 7"),
        ("(VAR x) (EQUATIONS\n  a == b) x",
         "expected '(' but found 'x' at line 2, column 11"),
        ("(EQUATIONS\n  f(a) == b\n", "unexpected end of input"),
        ("(VAR x ==)", "bad variable name '=='"),
        ("(RULES a == b)", "rules need '->', found '=='"),
        ("(EQUATIONS a -> b)", "equations need '==', found '->'"),
    ], ids=["missing-term", "tabs", "junk-after-section", "end-of-input",
            "reserved-variable", "equation-in-rules", "rule-in-equations"])
    def test_problem_error_messages(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_problem(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("line, message", [
        ("simplify a == b mid at e with rule#0",
         "simplify side must be lhs or rhs"),
        ("compose eq#0 fwd at e with rule#0",
         "compose needs a rule#k target"),
    ], ids=["simplify-side", "compose-target"])
    def test_step_error_messages(self, line, message):
        with pytest.raises(ParseError) as info:
            parse_inference(line, is_var)
        assert str(info.value) == message

    def test_trace_error_messages(self):
        with pytest.raises(ParseError) as info:
            parse_trace("orient a -> b\n\nsimplify a == ( lhs at e with "
                        "rule#0\n", is_var, "kbf")
        assert str(info.value) == \
            "line 3: expected a term but found '(' at line 1, column 15"
        with pytest.raises(ParseError) as info:
            parse_term_string("f(x,)", ["x"])
        assert str(info.value) == \
            "expected a term but found ')' at line 1, column 5"

    def test_blank_and_comment_lines_skipped(self):
        text = "# header\n\norient a -> b\n"
        out = parse_trace(text, is_var, "kbf")
        assert out == [Inference("orient", equation=Equation(a, b))]


class TestProblemFileHelpers:
    def test_is_var_accepts_primed_copies(self):
        is_var = ProblemFile(var_names=["u"]).var_test()
        assert is_var("u") and is_var("u'") and is_var("x3")
        assert not is_var("v")
