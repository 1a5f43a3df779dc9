"""Output and work do not depend on the hash seed: golden completion runs,
each in a fresh interpreter under ``PYTHONHASHSEED`` 0 and 1, print the
golden system and write the golden trace byte for byte, and the counts
that the bench tracer declares deterministic (``DETERMINISTIC`` in
``bench/tracer.py``: inferences, overlaps, order comparisons, matcher
calls and more) are the same under both seeds.  Set and dict iteration
order over terms changes with the seed, so any of it that reaches a
choice of the engine, or the order in which it tries candidates, shows
up here."""

import functools
import json
import os
import subprocess
import sys

import pytest

from test_golden import GOLDEN, _argv, _read

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
PATH = os.pathsep.join(os.path.join(ROOT, d) for d in ("src", "bench"))
NAMES = ("groups", "comm_kbo", "comm_kbl", "braid")

# runs kbd with the bench tracer installed, and writes the tracer's
# deterministic counts to the file named by its first argument
TRACED_RUN = """
import json, sys
import kbd.cli
from tracer import DETERMINISTIC, Tracer
tracer = Tracer()
tracer.install()
code = kbd.cli.entry(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({key: tracer.counts[key] for key in DETERMINISTIC}, fh)
sys.exit(code)
"""


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """The traced runs of NAMES under one hash seed, made once per seed:
    name -> (stdout, trace, counts)."""

    @functools.cache
    def runs(seed):
        out = tmp_path_factory.mktemp("seed" + seed)
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=PATH)
        env.pop("KBD_FUEL", None)
        found = {}
        for name in NAMES:
            trace = str(out / (name + ".trace"))
            counts = str(out / (name + ".json"))
            proc = subprocess.run([sys.executable, "-c", TRACED_RUN, counts]
                                  + _argv(name, trace), capture_output=True,
                                  text=True, env=env, timeout=120)
            assert os.path.exists(counts), proc.stderr
            with open(counts) as fh:
                found[name] = (proc.stdout, _read(trace), json.load(fh))
        return found

    return runs


@pytest.mark.parametrize("seed", ["0", "1"])
def test_golden_runs_do_not_depend_on_the_hash_seed(traced_runs, seed):
    for name, (stdout, trace, _) in traced_runs(seed).items():
        assert stdout == _read(os.path.join(GOLDEN, name + ".out"))
        assert trace == _read(os.path.join(GOLDEN, name + ".trace"))


@pytest.mark.parametrize("name", NAMES)
def test_work_does_not_depend_on_the_hash_seed(traced_runs, name):
    counts = [traced_runs(seed)[name][2] for seed in ("0", "1")]
    assert counts[0]["completion.inferences"] > 0
    assert counts[0] == counts[1]
