"""Golden runs: the printed system and the ``--trace`` file of each
benchmark command, and the output of the listing commands, must stay
byte-identical.

The completion commands are those of ``bench/workloads.py`` (the finite
cases as they are, the diverge cases at a fuel cap of at most 100).  The
listing commands are ``cps``, ``pcps``, ``check-confluence``, ``reduce``,
``reduce --rhs-only`` and ``reduce-ordered`` on every ``fixtures/*.trs``,
and ``xcps`` and ``reduce-ordered`` on the ordered problems with their
benchmark precedences; the benchmark runs none of them.  The files under
``fixtures/golden/`` are the outputs of a reference build; any change to
the kernel, the orders, the critical-pair enumeration or the engines that
alters a single inference or a single listed pair shows up here.  Every
trace must also replay under its own variant to the printed system.

To rewrite the goldens after an intended change of output::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import glob
import io
import os
import sys

import pytest

from kbd.cli import entry

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDEN = os.path.join(FIXTURES, "golden")

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
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = entry(argv)
    return code, out.getvalue()


def _read(path):
    with open(path) as fh:
        return fh.read()


@pytest.mark.parametrize("name", list(CASES))
def test_golden_output_and_trace(name, tmp_path, monkeypatch):
    monkeypatch.delenv("KBD_FUEL", raising=False)
    trace = str(tmp_path / "trace")
    _, out = _run(_argv(name, trace))
    assert out == _read(os.path.join(GOLDEN, name + ".out"))
    assert _read(trace) == _read(os.path.join(GOLDEN, name + ".trace"))


@pytest.mark.parametrize("name", list(CASES))
def test_golden_trace_replays(name):
    command, problem, flags, _ = CASES[name]
    code, out = _run(["replay", os.path.join(FIXTURES, problem), "--script",
                      os.path.join(GOLDEN, name + ".trace"),
                      "--variant", VARIANTS[command]] + list(flags))
    assert code == 0
    golden = _read(os.path.join(GOLDEN, name + ".out"))
    assert out.split("\n", 1)[1] == golden.split("\n", 1)[1]


def _listing(name):
    command, problem, flags = LISTINGS[name]
    return _run([command, os.path.join(FIXTURES, problem)] + list(flags))[1]


@pytest.mark.parametrize("name", list(LISTINGS))
def test_golden_listing(name, monkeypatch):
    monkeypatch.delenv("KBD_FUEL", raising=False)
    assert _listing(name) == _read(os.path.join(GOLDEN, name + ".out"))


def regenerate():
    os.makedirs(GOLDEN, exist_ok=True)
    os.environ.pop("KBD_FUEL", None)
    for name in CASES:
        trace = os.path.join(GOLDEN, name + ".trace")
        _, out = _run(_argv(name, trace))
        with open(os.path.join(GOLDEN, name + ".out"), "w") as fh:
            fh.write(out)
        print(name, out.split("\n", 1)[0], file=sys.stderr)
    for name in LISTINGS:
        with open(os.path.join(GOLDEN, name + ".out"), "w") as fh:
            fh.write(_listing(name))


if __name__ == "__main__":
    regenerate()
