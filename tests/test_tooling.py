"""Source hygiene: no module of ``src/kbd`` and no test file imports a
name it never uses, every private function and class of ``src/kbd`` is
used there, every public one, and every public method of its top-level
classes, is used there or named by the bench, no code
of the CLI branches on the command that called it or on an order's kind,
no CLI handler maps a failure to an exit code that ``entry`` would map,
the bench tracer's wrappers still find what they wrap in kbd, the
README's table of calculi says what ``CALCULI`` says, and its CLI
examples run every command.

``__init__.py`` is left out of the import check, as its imports are the
package's exports.
"""

import ast
import collections
import glob
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

from kbd.cli import COMMANDS, ENGINES
from kbd.completion import CALCULI

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src", "kbd")
BENCH = os.path.join(ROOT, "bench")
MODULES = sorted(path for path in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(path) != "__init__.py")
TEST_FILES = sorted(glob.glob(os.path.join(ROOT, "tests", "*.py")))


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports (``__future__`` aside) and never
    reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s (line %d)" % (name, line)
            for name, line in sorted(imported.items()) if name not in used]


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES + TEST_FILES, ids=os.path.basename)
def test_no_unused_imports(path):
    with open(path) as fh:
        assert unused_imports(fh.read()) == []


def test_unused_import_is_reported():
    source = "import os\nfrom typing import Optional, Sequence\n" \
             "def f(x: Optional[int]): return os.sep\n"
    assert unused_imports(source) == ["Sequence (line 2)"]


def test_unused_test_import_is_reported():
    # a test file reads its imports in decorators, parametrize lists and
    # helper calls
    source = "import pytest\nfrom helpers import copy_state, is_ground\n" \
             "from test_completion import STRATEGY_E\n" \
             "@pytest.mark.parametrize('eqs', [STRATEGY_E])\n" \
             "def test_f(eqs): assert copy_state(eqs)\n"
    assert unused_imports(source) == ["is_ground (line 2)"]


def names_read(tree: ast.AST) -> collections.Counter:
    """How often each name is read in ``tree``, as a variable or as an
    attribute."""
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)))


def unreferenced_private_definitions(sources: list[str]) -> list[str]:
    """The private functions and classes (``_name``, but not ``__name__``)
    that ``sources`` define and never name outside their own definition."""
    trees = [ast.parse(source) for source in sources]
    read = sum((names_read(tree) for tree in trees), collections.Counter())
    return sorted(node.name for tree in trees for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name.startswith("_")
                  and not node.name.endswith("__")
                  and read[node.name] == names_read(node)[node.name])


def test_private_definitions_are_referenced():
    sources = []
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as fh:
            sources.append(fh.read())
    assert unreferenced_private_definitions(sources) == []


def test_unreferenced_private_definition_is_reported():
    used = "def _used(): return 1\nclass _Kept: pass\n" \
           "def __repr__(self): return ''\n"
    other = "def f(): return _used() + len([_Kept])\n" \
            "def _loop(n): return _loop(n - 1)\n" \
            "class _Idle:\n    def m(self): return _Idle\n"
    assert unreferenced_private_definitions([used, other]) == \
        ["_Idle", "_loop"]


def unused_public_definitions(sources: list[str],
                              named_elsewhere: set[str]) -> list[str]:
    """The public functions and classes at the top level of ``sources``,
    and the public methods and properties of their top-level classes (as
    ``Class.name``), that no source names outside their own definition
    and that are not in ``named_elsewhere``."""
    trees = [ast.parse(source) for source in sources]
    read = sum((names_read(tree) for tree in trees), collections.Counter())
    defined = [(node.name, node) for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defined += [("%s.%s" % (cls.name, node.name), node)
                for tree in trees for cls in tree.body
                if isinstance(cls, ast.ClassDef) for node in cls.body
                if isinstance(node, ast.FunctionDef)]
    return sorted(label for label, node in defined
                  if not node.name.startswith("_")
                  and node.name not in named_elsewhere
                  and read[node.name] == names_read(node)[node.name])


def test_public_definitions_are_used():
    # the bench names what it times and calls as identifiers or in
    # "layer.function" strings, so every word of its files counts
    sources, bench_words = [], set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        with open(path) as fh:
            sources.append(fh.read())
    for path in glob.glob(os.path.join(BENCH, "*.py")):
        with open(path) as fh:
            bench_words.update(re.findall(r"[A-Za-z_]\w*", fh.read()))
    assert unused_public_definitions(sources, bench_words) == []


def test_unused_public_definition_is_reported():
    lib = "def used(): return 1\nclass Kept: pass\n" \
          "def loop(n): return loop(n - 1)\n" \
          "def timed(): return 2\ndef _private(): return 0\n"
    other = "def f(): return used() + len([Kept])\n"
    assert unused_public_definitions([lib, other], {"timed"}) == \
        ["f", "loop"]


def test_unused_public_member_is_reported():
    lib = "class Box:\n" \
          "    def __init__(self): self.items = []\n" \
          "    def put(self, x): self.items.append(x)\n" \
          "    def copy(self): return Box()\n" \
          "    @property\n" \
          "    def size(self): return len(self.items)\n" \
          "    def _check(self): return self.size\n" \
          "    def run(self): return 0\n"
    other = "def fill(): Box().put(1)\n"
    assert unused_public_definitions([lib, other], {"fill", "run"}) == \
        ["Box.copy"]


def command_branches(source: str) -> list[str]:
    """Where ``source`` compares a ``.command`` attribute with anything or
    reads a ``.kind`` attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare) and any(
                isinstance(side, ast.Attribute) and side.attr == "command"
                for side in [node.left] + node.comparators):
            found.append((node.lineno, "compares .command"))
        elif isinstance(node, ast.Attribute) and node.attr == "kind":
            found.append((node.lineno, "reads .kind"))
    return ["%s (line %d)" % (what, line) for line, what in sorted(found)]


def test_cli_does_not_branch_on_the_command():
    # COMMANDS says how each command gets its order, and OrderSpec says
    # what its kind implies
    with open(os.path.join(SRC, "cli.py")) as fh:
        assert command_branches(fh.read()) == []


def test_command_branch_is_reported():
    source = "if args.command == 'cps': pass\n" \
             "ok = args.command not in ('xcps', 'pcps')\n" \
             "total = order.kind in ('lpo', 'kbo')\n" \
             "variant, engine = ENGINES[args.command]\n"
    assert command_branches(source) == [
        "compares .command (line 1)", "compares .command (line 2)",
        "reads .kind (line 3)"]


# the functions of cli.py whose ``try`` changes the outcome, not only the
# exit code; every other failure reaches ``entry``, which maps it
TRY_ALLOWED = {"entry", "read_file", "cmd_decide", "cmd_replay"}


def exit_code_wrappers(source: str) -> list[str]:
    """Where ``source`` has a ``try`` outside the top-level functions named
    in ``TRY_ALLOWED``, or builds a ``CliError`` with a second argument."""
    tree = ast.parse(source)
    allowed = {id(node) for fn in tree.body
               if isinstance(fn, ast.FunctionDef) and fn.name in TRY_ALLOWED
               for node in ast.walk(fn)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and id(node) not in allowed:
            found.append((node.lineno, "try"))
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id == "CliError" and \
                len(node.args) + len(node.keywords) > 1:
            found.append((node.lineno, "CliError with an exit code"))
    return ["%s (line %d)" % (what, line) for line, what in sorted(found)]


def test_entry_alone_maps_failures_to_exit_codes():
    with open(os.path.join(SRC, "cli.py")) as fh:
        assert exit_code_wrappers(fh.read()) == []


def test_exit_code_wrapper_is_reported():
    source = "def cmd_reduce(args):\n" \
             "    try:\n" \
             "        out = rddot(rules, fuel)\n" \
             "    except RuntimeError as e:\n" \
             "        raise CliError(str(e), EXIT_MAYBE)\n" \
             "def cmd_replay(args):\n" \
             "    try:\n" \
             "        state = replay(script)\n" \
             "    except SideConditionError:\n" \
             "        raise CliError('x', code=2)\n" \
             "raise CliError('usage')\n"
    assert exit_code_wrappers(source) == [
        "try (line 2)", "CliError with an exit code (line 5)",
        "CliError with an exit code (line 10)"]


# Installing the tracer patches kbd in the whole interpreter, so a fresh
# one installs it, runs one traced completion and reports the names that
# the tracer's hooks and bench/run.py's per-layer times refer to.
TRACED_RUN = """
import json, sys
import kbd.cli
from run import PER_LAYER_TIMES
from tracer import DRIVER_PHASES, Tracer
tracer = Tracer()
names = sorted(set(tracer.hooks) | set(PER_LAYER_TIMES.values()))
tracer.install()
code = kbd.cli.entry(["complete", sys.argv[1], "--prec", "a>b>d,a>c>d",
                      "--trace", sys.argv[2]])
print(json.dumps({"code": code, "names": names, "phases": DRIVER_PHASES,
                  "inferences": tracer.counts["completion.inferences"]}))
"""

# hook names that no longer name anything in kbd; this set may only shrink
STALE = {"critical_pairs.overlaps", "critical_pairs.critical_peaks",
         "critical_pairs.extended_overlaps"}


def resolves(name: str, phases) -> bool:
    """Does ``layer.attr`` name a function of ``kbd.layer``, a driver
    phase or an ``OrderSpec`` method, as ``Tracer.install`` wraps them?"""
    layer, attr = name.split(".", 1)
    mod = importlib.import_module("kbd." + layer)
    return hasattr(mod, attr) or \
        layer == "completion" and attr in phases and \
        hasattr(mod._Driver, attr) or \
        layer == "orders" and hasattr(mod.OrderSpec, attr)


def test_bench_tracer_installs(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), BENCH]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN,
         os.path.join(ROOT, "tests", "fixtures", "strategy.es"),
         str(tmp_path / "trace.txt")],
        capture_output=True, text=True, env=env, cwd=str(tmp_path),
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["code"] == 0
    assert report["inferences"] > 0
    unresolved = {name for name in report["names"]
                  if not resolves(name, report["phases"])}
    assert unresolved <= STALE


def readme_section(title: str) -> str:
    """The text of the README's section ``## title``."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    return text.split("\n## %s\n" % title, 1)[1].split("\n## ", 1)[0]


def calculi_table() -> tuple[list[str], list[list[str]]]:
    """The header and the rows of the README's table of calculi, each
    cell stripped of blanks and backquotes."""
    section = readme_section("Calculi")
    lines = [line for line in section.splitlines() if line.startswith("|")]
    cells = [[cell.strip().strip("`") for cell in line.strip("|").split("|")]
             for line in lines]
    return cells[0], cells[2:]


def test_readme_calculi_table_matches_calculi():
    header, rows = calculi_table()
    assert header[:2] == ["command", "variant"]
    assert header[-1] == "deduce word"
    assert [row[1] for row in rows] == list(CALCULI)
    for command, variant, *flags, word in rows:
        calc = CALCULI[variant]
        assert ENGINES[command][0] == variant
        assert word == calc.deduce_word
        assert flags == ["yes" if getattr(calc, name) else "no"
                         for name in header[2:-1]]


def test_readme_cli_block_shows_every_command():
    block = readme_section("CLI").split("```sh\n", 1)[1].split("```", 1)[0]
    assert [name for name in COMMANDS if "kbd %s " % name not in block] == []
