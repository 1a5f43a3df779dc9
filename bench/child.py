"""One benchmark process: a single kbd case, or a query session.

``bench/run.py`` starts this script with a JSON spec on standard input and
reads one JSON result line from its standard output.  Every case
repetition gets a fresh interpreter, so module state such as the
critical-pair cache in ``kbd.completion`` starts empty, as it does for a
user's ``kbd`` invocation.  ``ready`` is the monotonic clock when the
process has finished its set-up; the parent subtracts its spawn time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from workloads import (COLLAPSE6_GOLDEN, GROUPS_GOLDEN, PLUS_GOLDEN,
                       PLUS_PREC, PROBLEMS, declare_vars, system_text)

VAR_NAMES = ("x", "y", "z")  # the variables of every benchmark problem
QUERY_FUEL = 10000


def _root(tracer, name, case):
    return tracer.root(name, case) if tracer else contextlib.nullcontext()


def matches_golden(system: str, golden: str) -> bool:
    """``rddot`` of the printed rules equals the golden rules up to
    variants, and the printed equations equal the golden ones up to
    variants and orientation."""
    from kbd.canonicity import rddot, trs_variants
    from kbd.parsing import parse_problem
    from kbd.terms import equation_variants
    got = parse_problem(declare_vars(system, VAR_NAMES))
    want = parse_problem(declare_vars(golden, VAR_NAMES))
    if not trs_variants(rddot(got.rules), want.rules):
        return False
    left = list(want.equations)
    for eq in got.equations:
        hit = next((e for e in left if equation_variants(eq, e)), None)
        if hit is None:
            return False
        left.remove(hit)
    return not left


def run_case(spec: dict, tracer) -> dict:
    from kbd import cli
    ready = time.monotonic()
    out = io.StringIO()
    with contextlib.redirect_stdout(out), _root(tracer, "case", spec["case"]):
        start = time.perf_counter()
        code = cli.entry(spec["argv"])
        wall = time.perf_counter() - start
    output = out.getvalue()
    trace = Path(spec["trace_file"]).read_text()
    result = {"ready": ready, "wall_s": wall, "code": code, "output": output,
              "trace_sha": hashlib.sha256(trace.encode()).hexdigest(),
              "trace_len": trace.count("\n")}
    if spec.get("golden"):
        with _root(tracer, "check", spec["case"]):
            result["golden_ok"] = matches_golden(system_text(output),
                                                 spec["golden"])
    return result


def _term(tree):
    from kbd.terms import Fun
    return Fun(tree[0], tuple(_term(a) for a in tree[1:]))


def _word(word: str):
    from kbd.terms import Fun, Var
    t = Var("x")
    for ch in reversed(word):
        t = Fun(ch, (t,))
    return t


def run_queries(spec: dict, tracer) -> dict:
    """Complete the three base systems, then answer every query in turn."""
    from kbd.canonicity import rddot
    from kbd.cli import parse_precedence, show_system
    from kbd.completion import run_kbf, run_kbi
    from kbd.ordered import ground_joinable, run_kbo
    from kbd.orders import KboWeights, OrderSpec, Precedence
    from kbd.parsing import parse_problem
    from kbd.rewriting import normalize

    def load(name):
        return parse_problem((PROBLEMS / name).read_text()).equations

    with _root(tracer, "setup", "setup"):
        groups = run_kbf(load("groups.es"),
                         OrderSpec("lpo", parse_precedence("i>*>e")))
        groups_rules = rddot(groups.state.R)
        plus_order = OrderSpec("lpo", Precedence(list(PLUS_PREC)))
        plus = run_kbo(load("plus.es"), plus_order)
        words = run_kbi(load("collapse6.es"),
                        OrderSpec("kbo", parse_precedence("a>b"),
                                  KboWeights(1, {})))
    ready = time.monotonic()
    with _root(tracer, "check", "setup"):
        setup_ok = all(r.status == "success" for r in (groups, plus, words)) \
            and matches_golden(show_system(groups_rules, []), GROUPS_GOLDEN) \
            and matches_golden(show_system(plus.state.R, plus.state.E),
                               PLUS_GOLDEN) \
            and matches_golden(show_system(words.state.R, []),
                               COLLAPSE6_GOLDEN)
    plus_E, plus_R = plus.state.E, plus.state.R
    words_R = words.state.R

    with open(spec["queries"]) as fh:
        queries = json.load(fh)

    answers, times = [], []
    for k, raw in enumerate(queries):
        q = (raw[0], _word(raw[1])) if raw[0] == "words-nf" else \
            (raw[0],) + tuple(_term(t) for t in raw[1:])
        with _root(tracer, "query." + q[0], k):
            start = time.perf_counter()
            try:
                if q[0] == "groups-nf":
                    answer = normalize(groups_rules, q[1], QUERY_FUEL)
                elif q[0] == "plus-ground":
                    answer = ground_joinable(plus_E, plus_R, plus_order,
                                             q[1], q[2], QUERY_FUEL)
                else:
                    answer = normalize(words_R, q[1], QUERY_FUEL)
            except Exception as e:  # a failed query is counted, not fatal
                answer = "error: %s: %s" % (type(e).__name__, e)
            times.append(time.perf_counter() - start)
        answers.append(answer)
    return {"ready": ready, "setup_ok": setup_ok, "times": times,
            "answers": [str(a) for a in answers]}


def main() -> int:
    spec = json.loads(sys.stdin.read())
    sys.path.insert(0, spec["src"])
    import kbd.cli  # noqa: F401  (loads every kbd module)
    tracer = None
    if spec["traced"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    run = run_case if spec["mode"] == "case" else run_queries
    result = run(spec, tracer)
    result["maxrss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(spec["spans"])
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
