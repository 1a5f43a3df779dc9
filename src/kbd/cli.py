"""Command-line interface.

Subcommands cover the five completion engines, critical-pair listings,
interreduction, word-problem decisions, a local-confluence check, and
trace replay.  Exit status: 0 for SUCCESS/VALID/CONFLUENT, 1 for
FAIL/INVALID/NOT-CONFLUENT, 2 for MAYBE or unmet preconditions (among
them terms nested too deep for Python's recursion limit), 3 for usage
and parse errors and for output cut off by a closed pipe (as in
``kbd ... | head -1``).
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import Optional

from .canonicity import rddot, rdot
from .completion import (CALCULI, SideConditionError, run_kbf, run_kbg,
                         run_kbi, replay)
from .critical_pairs import (critical_pairs, extended_critical_pairs,
                             prime_critical_pairs)
from .orders import (InadmissibleOrder, KboWeights, OrderSpec, Precedence,
                     lpo_gt)
from .ordered import (ground_joinable, run_kbl, run_kbo,
                      simplify_ground_complete)
from .parsing import (ParseError, ProblemFile, format_trace, parse_problem,
                      parse_term_string, parse_trace, term_word, word_term)
from .rewriting import joinable, normalize
from .terms import Rule, Signature, is_ground

EXIT_YES = 0
EXIT_NO = 1
EXIT_MAYBE = 2
EXIT_USAGE = 3

ENGINES = {
    "complete": ("kbf", run_kbf),
    "complete-ground": ("kbg", run_kbg),
    "complete-inf": ("kbi", run_kbi),
    "complete-ordered": ("kbo", run_kbo),
    "complete-linear": ("kbl", run_kbl),
}


class CliError(Exception):
    """Bad invocation; carries the exit code to use."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def parse_precedence(text: Optional[str]) -> Precedence:
    """Precedence flags look like "f>g>h,a>b": comma-separated chains.

    A cyclic precedence is a failed precondition, as other inadmissible
    orders are."""
    pairs = []
    for chain in (text or "").split(","):
        chain = chain.strip()
        if not chain:
            continue
        names = [part.strip() for part in chain.split(">")]
        if len(names) < 2 or not all(names):
            raise CliError("bad precedence chain %r" % chain)
        pairs.extend(zip(names, names[1:]))
    try:
        return Precedence(pairs)
    except InadmissibleOrder as e:
        raise CliError(str(e), EXIT_MAYBE)


def parse_weights(text: Optional[str]) -> dict[str, int]:
    """Weight flags look like "f=2,g=1"."""
    out = {}
    for item in (text or "").split(","):
        item = item.strip()
        if not item:
            continue
        name, _, num = item.partition("=")
        if not name or not num.removeprefix("-").isdecimal():
            raise CliError("bad weight entry %r" % item)
        out[name.strip()] = int(num)
    return out


def build_order(args, pf: ProblemFile) -> OrderSpec:
    kind = args.order
    prec = parse_precedence(args.prec)
    symbols = pf.signature().symbols()
    if kind == "ground-derived":
        if not pf.rules:
            raise CliError("ground-derived order needs a RULES section",
                           EXIT_MAYBE)
        if not prec.pairs:
            prec = Precedence.total(symbols)
        spec = OrderSpec("ground", prec, base=list(pf.rules))
    elif kind == "kbo":
        spec = OrderSpec("kbo", prec,
                         KboWeights(args.w0, parse_weights(args.weights)))
    elif kind == "lpo":
        if not prec.pairs and args.command == "complete-ground":
            prec = Precedence.total(symbols)
        spec = OrderSpec("lpo", prec)
    else:
        raise CliError("unknown order kind %r" % kind)
    try:
        spec.validate(pf.signature().arities)
    except InadmissibleOrder as e:
        raise CliError(str(e), EXIT_MAYBE)
    return spec


def load_problem(args) -> ProblemFile:
    try:
        with open(args.problem) as fh:
            text = fh.read()
    except OSError as e:
        raise CliError(str(e))
    string_mode = getattr(args, "string", False)
    return parse_problem(text, string_mode=string_mode)


def fuel_of(args) -> int:
    if args.fuel is not None:
        if args.fuel < 0:
            raise CliError("--fuel must not be negative, got %d" % args.fuel)
        return args.fuel
    env = os.environ.get("KBD_FUEL")
    if env is not None:
        if not env.isdecimal():
            raise CliError("KBD_FUEL must be a number, got %r" % env)
        return int(env)
    return 10000


def show_pair(pair, string_mode: bool) -> str:
    arrow = "->" if isinstance(pair, Rule) else "=="
    if string_mode:
        l, r = term_word(pair.lhs), term_word(pair.rhs)
        if l is not None and r is not None:
            return "%s %s %s" % (l, arrow, r)
    return "%s %s %s" % (pair.lhs, arrow, pair.rhs)


def show_system(rules, eqs, string_mode: bool = False) -> str:
    lines = []
    if rules:
        lines.append("(RULES")
        lines.extend("  " + show_pair(r, string_mode) for r in rules)
        lines.append(")")
    if eqs:
        lines.append("(EQUATIONS")
        lines.extend("  " + show_pair(e, string_mode) for e in eqs)
        lines.append(")")
    return "\n".join(lines)


def cmd_complete(args) -> int:
    pf = load_problem(args)
    if pf.rules:
        raise CliError("completion starts from equations; found rules",
                       EXIT_MAYBE)
    variant, engine = ENGINES[args.command]
    order = build_order(args, pf)
    try:
        result = engine(pf.equations, order, fuel_of(args))
    except ValueError as e:
        raise CliError(str(e), EXIT_MAYBE)
    out = show_system(result.state.R, result.state.E, args.string)
    print(result.status.upper())
    if out:
        print(out)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(format_trace(result.trace, variant))
    return {"success": EXIT_YES, "fail": EXIT_NO,
            "out-of-fuel": EXIT_MAYBE}[result.status]


def cmd_cps(args) -> int:
    pf = load_problem(args)
    if args.command == "xcps":
        order = build_order(args, pf)
        pairs = extended_critical_pairs(pf.equations, pf.rules, order)
    elif args.command == "pcps":
        pairs = prime_critical_pairs(pf.rules)
    else:
        pairs = critical_pairs(pf.rules)
    for eq in pairs:
        print(show_pair(eq, args.string))
    return EXIT_YES


def cmd_reduce(args) -> int:
    pf = load_problem(args)
    if not pf.rules:
        raise CliError("reduce needs a RULES section", EXIT_MAYBE)
    fn = rdot if args.rhs_only else rddot
    try:
        out = fn(pf.rules, fuel_of(args))
    except RuntimeError as e:
        raise CliError(str(e), EXIT_MAYBE)
    print(show_system(out, [], args.string))
    return EXIT_YES


def cmd_reduce_ordered(args) -> int:
    pf = load_problem(args)
    order = build_order(args, pf)
    try:
        eqs, rules = simplify_ground_complete(pf.equations, pf.rules, order,
                                              fuel_of(args))
    except RuntimeError as e:
        raise CliError(str(e), EXIT_MAYBE)
    print(show_system(rules, eqs, args.string))
    return EXIT_YES


def cmd_decide(args) -> int:
    pf = load_problem(args)
    if "==" not in args.query:
        raise CliError("query must be '%s'"
                       % ("word == word" if args.string else "term == term"))
    left, right = (part.strip() for part in args.query.split("==", 1))
    if args.string:
        if not all(w.isalpha() or w == "" for w in (left, right)):
            raise ParseError("query words must be alphabetic")
        lhs, rhs = word_term(left), word_term(right)
    else:
        lhs = parse_term_string(left, pf.var_names)
        rhs = parse_term_string(right, pf.var_names)
    signature = pf.signature()
    try:
        signature.absorb(lhs)
        signature.absorb(rhs)
    except ValueError as e:
        raise ParseError(str(e))
    order = build_order(args, pf)
    fuel = fuel_of(args)
    eqs = list(pf.equations) + [r.as_equation() for r in pf.rules]
    result = run_kbf(eqs, order, fuel)
    if result.status == "success":
        l = normalize(result.state.R, lhs, fuel)
        r = normalize(result.state.R, rhs, fuel)
        if l is not None and r is not None:
            print("VALID" if l == r else "INVALID")
            return EXIT_YES if l == r else EXIT_NO
    result = run_kbo(eqs, order, fuel)
    if result.status == "success":
        if not (is_ground(lhs) and is_ground(rhs)):
            print("MAYBE (ordered system decides ground queries only)")
            return EXIT_MAYBE
        verdict = ground_joinable(result.state.E, result.state.R, order,
                                  lhs, rhs, fuel)
        if verdict is False and not (
                order.kind in ("lpo", "kbo")
                and order.precedence.is_total_on(signature.symbols())):
            print("MAYBE (the order is not total on ground terms)")
            return EXIT_MAYBE
        if verdict is not None:
            print("VALID" if verdict else "INVALID")
            return EXIT_YES if verdict else EXIT_NO
    print("MAYBE")
    return EXIT_MAYBE


def search_lpo(rules) -> Optional[Precedence]:
    """A total LPO precedence orienting every rule, if any exists."""
    symbols = Signature.of_terms([t for r in rules
                                  for t in (r.lhs, r.rhs)]).symbols()
    if len(symbols) > 8:
        return None
    for perm in itertools.permutations(symbols):
        prec = Precedence.total(perm)
        if all(lpo_gt(prec, r.lhs, r.rhs) for r in rules):
            return prec
    return None


def cmd_check_confluence(args) -> int:
    pf = load_problem(args)
    if not pf.rules:
        raise CliError("check-confluence needs a RULES section", EXIT_MAYBE)
    if args.prec:
        order = build_order(args, pf)
        bad = [r for r in pf.rules if not order.gt(r.lhs, r.rhs)]
        if bad:
            print("PRECONDITION-FAILED (rule not oriented: %s)" % bad[0])
            return EXIT_MAYBE
    else:
        prec = search_lpo(pf.rules)
        if prec is None:
            print("PRECONDITION-FAILED (no reduction order orients the "
                  "rules; termination unproven)")
            return EXIT_MAYBE
    fuel = fuel_of(args)
    for eq in prime_critical_pairs(pf.rules):
        verdict = joinable(pf.rules, eq.lhs, eq.rhs, fuel)
        if verdict is None:
            print("MAYBE (fuel exhausted on %s)" % eq)
            return EXIT_MAYBE
        if not verdict:
            print("NOT-CONFLUENT (%s not joinable)" % eq)
            return EXIT_NO
    print("CONFLUENT")
    return EXIT_YES


def cmd_replay(args) -> int:
    pf = load_problem(args)
    order = build_order(args, pf)
    try:
        with open(args.script) as fh:
            script = parse_trace(fh.read(), pf.is_var)
    except OSError as e:
        raise CliError(str(e))
    try:
        state = replay(pf.equations, pf.rules, script, args.variant, order)
    except SideConditionError as e:
        print("FAIL (%s)" % e)
        return EXIT_NO
    print("SUCCESS")
    out = show_system(state.R, state.E, args.string)
    if out:
        print(out)
    return EXIT_YES


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kbd", description="Knuth-Bendix completion toolbox")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, order_flags=True):
        p.add_argument("problem", help="problem file")
        p.add_argument("--string", action="store_true",
                       help="treat input as string rewriting words")
        p.add_argument("--fuel", type=int, default=None,
                       help="inferences for complete*, rewrite steps "
                       "otherwise (default 10000 or $KBD_FUEL)")
        if order_flags:
            p.add_argument("--order", default="lpo",
                           choices=["lpo", "kbo", "ground-derived"])
            p.add_argument("--prec", default=None,
                           help='precedence chains, e.g. "f>g>h,a>b"')
            p.add_argument("--w0", type=int, default=1,
                           help="weight of variables and constants floor")
            p.add_argument("--weights", default=None,
                           help='symbol weights, e.g. "f=2,g=1"')

    for name in ENGINES:
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--trace", default=None,
                       help="write the inference trace to this file")
        p.set_defaults(fn=cmd_complete)

    for name in ("cps", "pcps", "xcps"):
        p = sub.add_parser(name)
        common(p)
        p.set_defaults(fn=cmd_cps)

    p = sub.add_parser("reduce")
    common(p, order_flags=False)
    p.add_argument("--rhs-only", action="store_true",
                   help="normalize right-hand sides only (keep all rules)")
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("reduce-ordered")
    common(p)
    p.set_defaults(fn=cmd_reduce_ordered)

    p = sub.add_parser("decide")
    common(p)
    p.add_argument("query", help="equation to decide, e.g. 'f(b) == a'")
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("check-confluence")
    common(p)
    p.set_defaults(fn=cmd_check_confluence)

    p = sub.add_parser("replay")
    common(p)
    p.add_argument("--script", required=True, help="trace file to replay")
    p.add_argument("--variant", default="kbf",
                   choices=list(CALCULI))
    p.set_defaults(fn=cmd_replay)

    return parser


def entry(argv: Optional[list[str]] = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_YES
    try:
        return args.fn(args)
    except ParseError as e:
        print("PARSE-ERROR (%s)" % e, file=sys.stderr)
        return EXIT_USAGE
    except CliError as e:
        tag = "PRECONDITION-FAILED" if e.code == EXIT_MAYBE else "ERROR"
        print("%s (%s)" % (tag, e), file=sys.stderr)
        return e.code
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the flush
        # at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except RecursionError:
        # terms are nested too deep for the recursive parts of the kernel
        print("PRECONDITION-FAILED (term nesting too deep)", file=sys.stderr)
        return EXIT_MAYBE


def main():  # pragma: no cover
    sys.exit(entry())


if __name__ == "__main__":  # pragma: no cover
    main()
