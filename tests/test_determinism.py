"""Output does not depend on the hash seed: golden completion runs, each
in a fresh interpreter under ``PYTHONHASHSEED`` 0 and 1, print the golden
system and write the golden trace byte for byte.  Set and dict iteration
order over terms changes with the seed, so any of it that reaches a
choice of the engine shows up here."""

import os
import subprocess
import sys

import pytest

from test_golden import GOLDEN, _argv, _read

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


@pytest.mark.parametrize("seed", ["0", "1"])
def test_golden_runs_do_not_depend_on_the_hash_seed(tmp_path, seed):
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
    env.pop("KBD_FUEL", None)
    for name in ("groups", "comm_kbo", "braid"):
        trace = str(tmp_path / (name + ".trace"))
        proc = subprocess.run([sys.executable, "-m", "kbd.cli"]
                              + _argv(name, trace), capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.stdout == _read(os.path.join(GOLDEN, name + ".out"))
        assert _read(trace) == _read(os.path.join(GOLDEN, name + ".trace"))
