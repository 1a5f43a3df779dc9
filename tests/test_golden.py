"""Golden runs: the printed system and the ``--trace`` file of each
benchmark command, the output of the listing commands, and the exit code
and stderr of every one of them, must stay byte-identical.

The completion commands are those of ``bench/workloads.py`` (the finite
cases as they are, the diverge cases at a fuel cap of at most 100).  The
listing commands are ``cps``, ``pcps``, ``check-confluence``, ``reduce``,
``reduce --rhs-only`` and ``reduce-ordered`` on every ``fixtures/*.trs``,
``xcps`` and ``reduce-ordered`` on the ordered problems with their
benchmark precedences, and ``decide`` on a few queries to the ``.es``
problems; the benchmark runs none of them.  The files under
``fixtures/golden/`` are the outputs of a reference build: ``NAME.out``
holds the stdout of run NAME, ``NAME.trace`` its trace, and
``status.json`` maps each NAME to its exit code and stderr.  Any change
to the kernel, the orders, the critical-pair enumeration or the engines
that alters a single inference or a single listed pair shows up here, and
so does a run that now fails where it printed nothing.  Every trace must
also replay under its own variant to the printed system.

To rewrite every golden file, ``status.json`` included, after an intended
change of output::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import glob
import io
import json
import os
import sys

import pytest

from kbd.cli import entry

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(FIXTURES, "golden")
STATUS = os.path.join(GOLDEN, "status.json")

# name: (subcommand, problem file, order flags, fuel or None)
CASES = {
    "groups": ("complete", "groups.es", ("--prec", "i>*>e"), None),
    "chain20": ("complete", "chain20.es",
                ("--order", "kbo", "--prec", "f>g"), None),
    "en4": ("complete", "en4.es", ("--order", "kbo", "--prec", "f>g"), None),
    "strategy": ("complete", "strategy.es", ("--prec", "a>b>d,a>c>d"),
                 None),
    "ground": ("complete-ground", "ground.es", ("--prec", "a>b>c>f"), None),
    "collapse6": ("complete-inf", "collapse6.es",
                  ("--order", "kbo", "--prec", "a>b"), None),
    "okb1": ("complete-ordered", "okb1.es", ("--prec", "+>*>->1>0"), None),
    "okb2": ("complete-ordered", "okb2.es", ("--prec", "g>f>a>b"), None),
    "plus": ("complete-ordered", "plus.es", ("--prec", "+>0"), None),
    "braid": ("complete-inf", "braid.str",
              ("--string", "--order", "kbo", "--prec", "a>b"), 100),
    "devie": ("complete", "devie.es", ("--prec", "i1>i2>f1>f2>g1>g2>h1>h2>a"),
              80),
    "comm_kbo": ("complete-ordered", "comm.es", ("--prec", "+>s>0"), 100),
    "comm_kbl": ("complete-linear", "comm.es", ("--prec", "+>s>0"), 50),
}

# name: (subcommand, problem file, order flags) of the listing commands
LISTINGS = {
    "%s_%s" % (name, os.path.basename(path)[:-4]):
        (command, os.path.basename(path), flags)
    for path in sorted(glob.glob(os.path.join(FIXTURES, "*.trs")))
    for name, command, flags in (
        ("cps", "cps", ()), ("pcps", "pcps", ()),
        ("check-confluence", "check-confluence", ()),
        ("reduce", "reduce", ()),
        ("reduce-rhs-only", "reduce", ("--rhs-only",)),
        ("reduce-ordered", "reduce-ordered", ()))
}
ORDERED = (("okb1", "+>*>->1>0"), ("okb2", "g>f>a>b"), ("plus", "+>0"),
           ("comm", "+>s>0"))
LISTINGS.update(
    ("xcps_" + stem, ("xcps", stem + ".es", ("--prec", prec)))
    for stem, prec in ORDERED + (("groups", "i>*>e"),))
LISTINGS.update(
    ("reduce-ordered_" + stem, ("reduce-ordered", stem + ".es",
                                ("--prec", prec)))
    for stem, prec in ORDERED)
# a rule whose root test searches its 62 covers, not its strict
# generalizations: the equation's swap matches there, but not decreasingly
LISTINGS["reduce-ordered_swap5"] = ("reduce-ordered", "swap5.es",
                                    ("--prec", "f>g>h>a>b>c"))
# decide, its query last among the flags: kbf decides the groups queries,
# kbo the plus one and, with no equation left, the okb1 ones; the rest
# answer MAYBE
LISTINGS.update(
    ("decide_" + name, ("decide", problem, flags + (query,)))
    for name, problem, flags, query in (
        ("groups-valid", "groups.es", ("--prec", "i>*>e"),
         "*(i(x),*(x,y)) == y"),
        ("groups-invalid", "groups.es", ("--prec", "i>*>e"),
         "*(x,y) == *(y,x)"),
        ("plus-ground", "plus.es", ("--prec", "+>0"), "+(0,0) == 0"),
        ("plus-partial-prec", "plus.es", ("--prec", "+>0"), "+(a,b) == a"),
        ("comm-out-of-fuel", "comm.es", ("--prec", "+>s>0", "--fuel", "100"),
         "+(s(0),0) == s(0)"),
        ("okb2-one-sided", "okb2.es", ("--prec", "g>f>a>b"), "f(a) == b"),
        ("okb1-inverse", "okb1.es", ("--prec", "*>+>->0>1"),
         "+(-(x),x) == 0"),
        ("okb1-unit", "okb1.es", ("--prec", "*>+>->0>1"), "+(x,0) == x")))

VARIANTS = {"complete": "kbf", "complete-ground": "kbg",
            "complete-inf": "kbi", "complete-ordered": "kbo",
            "complete-linear": "kbl"}


def _argv(name, trace):
    command, problem, flags, fuel = CASES[name]
    argv = [command, os.path.join(FIXTURES, problem)] + list(flags)
    if fuel is not None:
        argv += ["--fuel", str(fuel)]
    return argv + ["--trace", trace]


def _run(argv):
    """``entry(argv)``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = entry(argv)
    return code, out.getvalue(), err.getvalue()


def _read(path):
    with open(path) as fh:
        return fh.read()


@functools.cache
def _status():
    """The golden ``[exit code, stderr]`` of each run, by name."""
    with open(STATUS) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", list(CASES))
def test_golden_output_and_trace(name, tmp_path, monkeypatch):
    monkeypatch.delenv("KBD_FUEL", raising=False)
    trace = str(tmp_path / "trace")
    code, out, err = _run(_argv(name, trace))
    assert out == _read(os.path.join(GOLDEN, name + ".out"))
    assert [code, err] == _status()[name]
    assert _read(trace) == _read(os.path.join(GOLDEN, name + ".trace"))


@pytest.mark.parametrize("name", list(CASES))
def test_golden_trace_replays(name):
    command, problem, flags, _ = CASES[name]
    code, out, err = _run(["replay", os.path.join(FIXTURES, problem),
                           "--script", os.path.join(GOLDEN, name + ".trace"),
                           "--variant", VARIANTS[command]] + list(flags))
    assert (code, err) == (0, "")
    golden = _read(os.path.join(GOLDEN, name + ".out"))
    assert out.split("\n", 1)[1] == golden.split("\n", 1)[1]


def _listing(name):
    command, problem, flags = LISTINGS[name]
    return _run([command, os.path.join(FIXTURES, problem)] + list(flags))


@pytest.mark.parametrize("name", list(LISTINGS))
def test_golden_listing(name, monkeypatch):
    monkeypatch.delenv("KBD_FUEL", raising=False)
    code, out, err = _listing(name)
    assert out == _read(os.path.join(GOLDEN, name + ".out"))
    assert [code, err] == _status()[name]


def regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    os.environ.pop("KBD_FUEL", None)
    runs = {name: _run(_argv(name, os.path.join(GOLDEN, name + ".trace")))
            for name in CASES}
    runs.update((name, _listing(name)) for name in LISTINGS)
    status = {}
    for name, (code, out, err) in runs.items():
        with open(os.path.join(GOLDEN, name + ".out"), "w") as fh:
            fh.write(out)
        status[name] = [code, err]
        if name in CASES:
            print(name, out.split("\n", 1)[0], file=sys.stderr)
    with open(STATUS, "w") as fh:
        fh.write("{\n%s\n}\n" % ",\n".join(
            "  %s: %s" % (json.dumps(name), json.dumps(status[name]))
            for name in sorted(status)))


if __name__ == "__main__":
    regenerate()
