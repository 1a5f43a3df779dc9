"""Command-line interface.

Subcommands cover the five completion engines, critical-pair listings,
interreduction, word-problem decisions and a confluence check of
terminating rules (both by comparing normal forms), and trace replay.
Exit status: 0 for SUCCESS/VALID/CONFLUENT, 1 for FAIL/INVALID/
NOT-CONFLUENT, 2 for MAYBE or unmet preconditions (among them terms
nested too deep for Python's recursion limit), 3 for usage and parse
errors, for a file that cannot be opened or is not UTF-8 text, and for
output cut off by a closed pipe (as in ``kbd ... | head -1``).
:func:`entry` alone maps each failure to its code; a library
``ValueError`` or ``RuntimeError`` is an unmet precondition.
"""

from __future__ import annotations

import itertools
import os
import sys
from contextlib import nullcontext
from types import SimpleNamespace
from typing import Optional

from .canonicity import rddot, rdot
from .completion import (CALCULI, SideConditionError, run_kbf, run_kbg,
                         run_kbi, replay)
from .critical_pairs import (critical_pairs, extended_critical_pairs,
                             prime_critical_pairs)
from .orders import KboWeights, OrderSpec, Precedence, lpo_gt
from .ordered import (ground_joinable, run_kbl, run_kbo,
                      simplify_ground_complete)
from .parsing import (ParseError, ProblemFile, format_trace, parse_problem,
                      parse_term_string, parse_trace, term_word, word_term)
from .rewriting import normalize
from .terms import Rule, is_ground, variables

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
    """Bad invocation: a usage error (exit 3)."""


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
    return Precedence(pairs)


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
    """The order that the flags name, under the command's order rule.
    With no ``--prec``, the ``"total"`` rule and a ground-derived order
    get a total precedence on the problem's symbols."""
    prec = parse_precedence(args.prec)
    arities = pf.arities()
    if not prec.pairs and (args.order_rule == "total"
                           or args.order == "ground-derived"):
        prec = Precedence.total(sorted(arities))
    if args.order == "ground-derived":
        if not pf.rules:
            raise ValueError("ground-derived order needs a RULES section")
        spec = OrderSpec("ground", prec, base=list(pf.rules))
    elif args.order == "kbo":
        spec = OrderSpec("kbo", prec,
                         KboWeights(args.w0, parse_weights(args.weights)))
    else:
        spec = OrderSpec("lpo", prec)
    spec.validate(arities)
    return spec


def read_file(path: str) -> str:
    """The text of a file named on the command line, which must be UTF-8."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise CliError("%s is not UTF-8 text (%s)" % (path, e))


def load_problem(args) -> ProblemFile:
    return parse_problem(read_file(args.problem), args.string)


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
    for title, pairs in (("RULES", rules), ("EQUATIONS", eqs)):
        if pairs:
            lines.append("(" + title)
            lines.extend("  " + show_pair(p, string_mode) for p in pairs)
            lines.append(")")
    return "\n".join(lines)


def cmd_complete(args) -> int:
    pf = load_problem(args)
    if pf.rules:
        raise ValueError("completion starts from equations; found rules")
    variant, engine = ENGINES[args.command]
    order = build_order(args, pf)
    fuel = fuel_of(args)  # a usage error leaves an old trace file as it is
    with (open(args.trace, "w") if args.trace is not None
          else nullcontext()) as trace:
        result = engine(pf.equations, order, fuel)
        if trace:
            trace.write(format_trace(result.trace, variant))
    out = show_system(result.state.R, result.state.E, args.string)
    print(result.status.upper())
    if out:
        print(out)
    return {"success": EXIT_YES, "fail": EXIT_NO,
            "out-of-fuel": EXIT_MAYBE}[result.status]


def listing(pairs_of):
    """The handler of a command that prints ``pairs_of(args, pf)`` for the
    problem ``pf``."""
    def cmd_list(args) -> int:
        fuel_of(args)  # a listing spends no fuel, but checks it as all do
        pf = load_problem(args)
        for eq in pairs_of(args, pf):
            print(show_pair(eq, args.string))
        return EXIT_YES
    return cmd_list


def cmd_reduce(args) -> int:
    pf = load_problem(args)
    if not pf.rules:
        raise ValueError("reduce needs a RULES section")
    fn = rdot if args.rhs_only else rddot
    print(show_system(fn(pf.rules, fuel_of(args)), [], args.string))
    return EXIT_YES


def cmd_reduce_ordered(args) -> int:
    pf = load_problem(args)
    order = build_order(args, pf)
    eqs, rules = simplify_ground_complete(pf.equations, pf.rules, order,
                                          fuel_of(args))
    print(show_system(rules, eqs, args.string))
    return EXIT_YES


def cmd_decide(args) -> int:
    pf = load_problem(args)
    if "==" not in args.query:
        raise ParseError("query must be '%s'"
                         % ("word == word" if args.string else "term == term"))
    left, right = (part.strip() for part in args.query.split("==", 1))
    if args.string:
        if not all(w.isalpha() or w == "" for w in (left, right)):
            raise ParseError("query words must be alphabetic")
        lhs, rhs = word_term(left), word_term(right)
    else:
        lhs = parse_term_string(left, pf.var_names)
        rhs = parse_term_string(right, pf.var_names)
    try:
        symbols = list(pf.arities(lhs, rhs))
    except ValueError as e:
        raise ParseError(str(e))
    order = build_order(args, pf)
    fuel = fuel_of(args)
    eqs = list(pf.equations) + [r.as_equation() for r in pf.rules]
    for engine in (run_kbf, run_kbo):
        result = engine(eqs, order, fuel)
        if result.status != "success":
            continue
        # with E empty, R is complete and its normal forms decide any
        # query; otherwise the system is ground complete at best
        E = result.state.E
        if E and not (is_ground(lhs) and is_ground(rhs)):
            print("MAYBE (ordered system decides ground queries only)")
            return EXIT_MAYBE
        verdict = ground_joinable(E, result.state.R, order, lhs, rhs, fuel)
        if verdict is False and E and not order.total_on(symbols):
            print("MAYBE (the order is not total on ground terms)")
            return EXIT_MAYBE
        # ordered rewriting misses the instances of a one-sided equation
        if verdict is False and any(set(variables(e.lhs)) !=
                                    set(variables(e.rhs)) for e in E):
            print("MAYBE (an equation has a variable on one side only)")
            return EXIT_MAYBE
        if verdict is not None:
            print("VALID" if verdict else "INVALID")
            return EXIT_YES if verdict else EXIT_NO
    print("MAYBE")
    return EXIT_MAYBE


def search_lpo(pf: ProblemFile) -> Optional[Precedence]:
    """A total LPO precedence on the symbols of ``pf`` that orients every
    rule, if any exists.  It tries every order of at most 8 symbols, and
    raises ValueError for more."""
    symbols = sorted(pf.arities())
    if len(symbols) > 8:
        raise ValueError("the LPO precedence search tries at most 8 "
                         "symbols, not %d; give a precedence with --prec"
                         % len(symbols))
    for perm in itertools.permutations(symbols):
        prec = Precedence.total(perm)
        if all(lpo_gt(prec, r.lhs, r.rhs) for r in pf.rules):
            return prec
    return None


def cmd_check_confluence(args) -> int:
    pf = load_problem(args)
    if not pf.rules:
        raise ValueError("check-confluence needs a RULES section")
    if args.order == "lpo" and not args.prec:
        if search_lpo(pf) is None:
            raise ValueError("no reduction order orients the rules; "
                             "termination unproven")
    else:
        order = build_order(args, pf)
        bad = [r for r in pf.rules if not order.gt(r.lhs, r.rhs)]
        if bad:
            raise ValueError("rule not oriented: %s" % bad[0])
    fuel = fuel_of(args)
    # the rules terminate, so they are confluent exactly when each prime
    # critical pair has a single normal form
    for eq in prime_critical_pairs(pf.rules):
        l = normalize(pf.rules, eq.lhs, fuel)
        r = normalize(pf.rules, eq.rhs, fuel)
        if l is None or r is None:
            print("MAYBE (fuel exhausted on %s)" % eq)
            return EXIT_MAYBE
        if l != r:
            print("NOT-CONFLUENT (%s has normal forms %s and %s)"
                  % (eq, l, r))
            return EXIT_NO
    print("CONFLUENT")
    return EXIT_YES


def cmd_replay(args) -> int:
    pf = load_problem(args)
    order = build_order(args, pf)
    script = parse_trace(read_file(args.script), pf.var_test(), args.variant)
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


TRACE_FLAG = {"--trace": dict(help="write the inference trace to this file")}

# Each command: its handler, its order rule and its own arguments.  The
# rule is None where no order is read and no order flag is taken, "given"
# for the order the flags name, and "total" where an LPO with no --prec is
# total on the problem's symbols.
COMMANDS = {
    "complete": (cmd_complete, "given", TRACE_FLAG),
    "complete-ground": (cmd_complete, "total", TRACE_FLAG),
    "complete-inf": (cmd_complete, "given", TRACE_FLAG),
    "complete-ordered": (cmd_complete, "given", TRACE_FLAG),
    "complete-linear": (cmd_complete, "given", TRACE_FLAG),
    "cps": (listing(lambda args, pf: critical_pairs(pf.rules)), None, {}),
    "pcps": (listing(lambda args, pf: prime_critical_pairs(pf.rules)),
             None, {}),
    "xcps": (listing(lambda args, pf: extended_critical_pairs(
        pf.equations, pf.rules, build_order(args, pf))), "given", {}),
    "reduce": (cmd_reduce, None, {"--rhs-only": dict(
        action="store_true",
        help="normalize right-hand sides only (keep all rules)")}),
    "reduce-ordered": (cmd_reduce_ordered, "given", {}),
    "decide": (cmd_decide, "given", {"query": dict(
        help="equation to decide, e.g. 'f(b) == a'")}),
    "check-confluence": (cmd_check_confluence, "given", {}),
    "replay": (cmd_replay, "given", {
        "--script": dict(required=True, help="trace file to replay"),
        "--variant": dict(default="kbf", choices=list(CALCULI))}),
}

# The arguments of every command, then those of every command that reads
# an order, in the order that ``-h`` lists them.
COMMON_ARGS = {
    "problem": dict(help="problem file"),
    "--string": dict(action="store_true",
                     help="treat input as string rewriting words"),
    "--fuel": dict(type=int, default=None,
                   help="inferences for complete*, rewrite steps "
                   "otherwise (default 10000 or $KBD_FUEL)"),
}
ORDER_ARGS = {
    "--order": dict(default="lpo", choices=["lpo", "kbo", "ground-derived"]),
    "--prec": dict(default=None, help='precedence chains, e.g. "f>g>h,a>b"'),
    "--w0": dict(type=int, default=1,
                 help="weight of variables and constants floor"),
    "--weights": dict(default=None, help='symbol weights, e.g. "f=2,g=1"'),
}


def arguments(command: str) -> dict:
    """The ``add_argument`` calls of ``command``'s subparser: each name
    with its keywords."""
    _, order_rule, own = COMMANDS[command]
    return {**COMMON_ARGS, **(ORDER_ARGS if order_rule is not None else {}),
            **own}


def make_parser():
    """The argparse parser of ``kbd``, which answers ``-h`` and every call
    that :func:`read_argv` leaves to it.  argparse is imported here alone:
    with the ``locale`` module that its first message loads, it would cost
    every call a few milliseconds."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="kbd", description="Knuth-Bendix completion toolbox")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, order_rule, _) in COMMANDS.items():
        p = sub.add_parser(name)
        for arg, kwargs in arguments(name).items():
            p.add_argument(arg, **kwargs)
        p.set_defaults(fn=fn, order_rule=order_rule)
    return parser


def read_value(kwargs: dict, token: str):
    """``token`` as the value of an argument with ``kwargs``, or None
    where argparse might read it otherwise or reject it.  A decimal
    token is one that ``int`` reads as argparse's ``type=int`` does."""
    if token.startswith("-"):
        return None
    if kwargs.get("type") is int:
        if not token.isdecimal():
            return None
        token = int(token)
    return token if token in kwargs.get("choices", (token,)) else None


def read_argv(argv: list[str]) -> Optional[SimpleNamespace]:
    """The arguments that argparse makes of a well-formed call, read
    straight from the flag table, or None for any other call: ``-h``, an
    unknown, abbreviated, repeated or ``--flag=value`` flag, a value that
    starts with "-", a number that is not decimal, a value outside its
    choices, too few or too many positionals, a missing required flag.
    :func:`make_parser` answers those, so every help text and usage error
    is argparse's.  The flag table uses only the keywords read here:
    ``action="store_true"``, ``type=int``, ``choices``, ``default``,
    ``required`` and ``help``."""
    if not argv or argv[0] not in COMMANDS:
        return None
    table = arguments(argv[0])
    given, positionals = {}, []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
        elif token not in table or token in given:
            return None
        elif table[token].get("action"):
            given[token] = True
        else:
            given[token] = read_value(table[token], next(tokens, "-"))
    names = [name for name in table if not name.startswith("-")]
    if len(positionals) != len(names):
        return None
    given.update((name, read_value(table[name], token))
                 for name, token in zip(names, positionals))
    if None in given.values() or any(
            kwargs.get("required") and name not in given
            for name, kwargs in table.items()):
        return None
    fn, order_rule, _ = COMMANDS[argv[0]]
    args = SimpleNamespace(command=argv[0], fn=fn, order_rule=order_rule)
    for name, kwargs in table.items():
        default = kwargs.get("default", False if kwargs.get("action")
                             else None)
        setattr(args, name.lstrip("-").replace("-", "_"),
                given.get(name, default))
    return args


def entry(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = read_argv(argv)
    if args is None:
        try:
            args = make_parser().parse_args(argv)
        except SystemExit as e:
            return EXIT_USAGE if e.code else EXIT_YES
    try:
        return args.fn(args)
    except ParseError as e:
        print("PARSE-ERROR (%s)" % e, file=sys.stderr)
        return EXIT_USAGE
    except CliError as e:
        print("ERROR (%s)" % e, file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the flush
        # at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except OSError as e:
        # a file named on the command line that cannot be opened or written
        print("ERROR (%s)" % e, file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # terms are nested too deep for the recursive parts of the kernel
        print("PRECONDITION-FAILED (term nesting too deep)", file=sys.stderr)
        return EXIT_MAYBE
    except (ValueError, RuntimeError) as e:
        # an unmet precondition, raised by the library or a handler: an
        # inadmissible order, input that the calculus excludes, no fuel
        print("PRECONDITION-FAILED (%s)" % e, file=sys.stderr)
        return EXIT_MAYBE


def main():  # pragma: no cover
    sys.exit(entry())


if __name__ == "__main__":  # pragma: no cover
    main()
