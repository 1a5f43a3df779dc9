"""End-to-end command-line tests driven through the argparse entry point."""

import os
import subprocess
import sys

import pytest

from kbd.cli import entry

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


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
        ("deduce-lin g(x,x) == x", "kbl",
         "linear completion deduces only linear equations: g(x,x) == x"),
    ], ids=["position", "peak-position", "inner-ref", "outer-ref",
            "no-equation", "no-equation-steps", "own-rule",
            "no-equation-peaks", "nonlinear"])
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
    ], ids=["lpo", "kbo", "total", "comm-valid", "comm-invalid",
            "partial-prec", "query-symbol"])
    def test_ordered_phase_refutes_only_under_a_ground_total_order(
            self, capsys, tmp_path, problem, flags, query, code, verdict):
        path = tmp_path / "p.es"
        path.write_text(problem + "\n")
        assert run(capsys, "decide", str(path), *flags, query)[:2] == \
            (code, verdict + "\n")

    @pytest.mark.parametrize("query, code, verdict", [
        ("aaa == a", 0, "VALID"), ("a == ", 1, "INVALID")])
    def test_string_query(self, capsys, tmp_path, query, code, verdict):
        path = tmp_path / "aa.str"
        path.write_text("aa == a\n")
        assert run(capsys, "decide", str(path), "--string", query)[:2] == \
            (code, verdict + "\n")

    @pytest.mark.parametrize("problem, flags, query", [
        ("aa.str", ("--string",), "a b == a"),
        ("aa.str", ("--string",), "a(b) == a"),
        ("groups.es", ("--prec", "i>*>e"), "*(x) == x"),
    ], ids=["string-blank", "string-term", "arity"])
    def test_malformed_query_is_a_parse_error(self, capsys, tmp_path,
                                              problem, flags, query):
        path = tmp_path / "aa.str"
        path.write_text("aa == a\n")
        if problem != "aa.str":
            path = fixture(problem)
        code, out, err = run(capsys, "decide", str(path), *flags, query)
        assert (code, out) == (3, "")
        assert len(err.splitlines()) == 1 and err.startswith("PARSE-ERROR")


class TestCheckConfluence:
    def test_unorientable_precondition(self, capsys):
        code, out, _ = run(capsys, "check-confluence", fixture("pcpex.trs"))
        assert code == 2
        assert out.startswith("PRECONDITION-FAILED")

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

    def test_explicit_precedence_must_orient(self, capsys, tmp_path):
        prob = tmp_path / "p.trs"
        prob.write_text("(RULES a -> b)")
        code, out, _ = run(capsys, "check-confluence", str(prob),
                           "--prec", "b>a")
        assert code == 2
        assert out.startswith("PRECONDITION-FAILED")


class TestReplayDeduce:
    """A deduce without ``from`` must come from a peak, not a valley."""

    @pytest.mark.parametrize("variant, word", [
        ("kbf", "deduce"), ("kbi", "deduce"), ("kbo", "deduce-ext")])
    def test_valley_rejected(self, capsys, tmp_path, variant, word):
        problem = tmp_path / "valley.trs"
        problem.write_text("(RULES\n  a -> b\n  c -> b\n)\n")
        script = tmp_path / "trace"
        script.write_text("%s a == c\n" % word)
        code, out, _ = run(capsys, "pcps", str(problem))
        assert (code, out) == (0, "")
        code, out, _ = run(capsys, "replay", str(problem), "--script",
                           str(script), "--variant", variant,
                           "--prec", "a>c>b")
        assert code == 1
        assert out == "FAIL (no peak yields a == c)\n"

    def test_critical_pair_accepted(self, capsys, tmp_path):
        script = tmp_path / "trace"
        script.write_text("deduce f(a) == c\n")
        code, out, _ = run(capsys, "replay", fixture("pcpex.trs"),
                           "--script", str(script), "--prec", "f>a>b>c")
        assert code == 0
        assert out.splitlines()[0] == "SUCCESS"


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

    def test_bad_precedence_flag(self, capsys):
        code, _, err = run(capsys, "complete", fixture("single.es"),
                           "--prec", "a>")
        assert code == 3

    def test_cyclic_precedence_is_a_failed_precondition(self, capsys):
        code, _, err = run(capsys, "complete", fixture("groups.es"),
                           "--prec", "i>*>i")
        assert code == 2
        assert err.startswith("PRECONDITION-FAILED (cyclic precedence")

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
    ], ids=["complete", "reduce"])
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
