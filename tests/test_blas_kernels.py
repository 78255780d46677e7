"""Which outputs numpy's BLAS kernel may change.  Both planners take their
expectations with ``np.matmul``, and OpenBLAS picks the kernel for the
CPU it runs on, so the low bits of a value table differ between kernels.
The decisions, and so every output built from them, must not: the same
sweep and plans run under two kernels, chosen with ``OPENBLAS_CORETYPE``,
and everything but ``value.csv`` is compared byte for byte."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from offloadsim import cli

SCENARIO = "file_mbytes = 300\nruns = 20\nseed = 3\n"
CORETYPES = ("Haswell", "Prescott")  # OpenBLAS reports Prescott as Katmai
COMMANDS = (
    ["simulate", "--sweep", "deadline=2,3", "--out", "exp"],  # every scheme
    ["solve", "--solver", "general", "--out", "general"],
    ["solve", "--solver", "monotone", "--out", "monotone"],
)
PORTABLE = ("exp.csv", "exp.json", "general/policy.csv", "monotone/thresholds.csv")


def _env(coretype, **extra):
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=src, OPENBLAS_CORETYPE=coretype, **extra)


def _core(coretype):
    """The kernel OpenBLAS reports when asked for ``coretype``, or None if
    numpy's BLAS reports none."""
    env = _env(coretype, OPENBLAS_VERBOSE="2")
    argv = [sys.executable, "-c", "import numpy"]
    out = subprocess.run(argv, env=env, capture_output=True, text=True)
    found = re.search(r"^Core: (\w+)", out.stdout + out.stderr, re.MULTILINE)
    return found and found.group(1)


def test_outputs_but_value_tables_are_the_same_under_two_blas_kernels(tmp_path):
    cores = [_core(c) for c in CORETYPES]
    if None in cores or cores[0] == cores[1]:
        pytest.skip(f"numpy's BLAS does not switch kernels on OPENBLAS_CORETYPE (reports {cores})")
    (tmp_path / "scenario.cfg").write_text(SCENARIO)
    for coretype in CORETYPES:
        root = tmp_path / coretype
        root.mkdir()
        for args in COMMANDS:
            argv = [sys.executable, "-m", "offloadsim.cli", *args, "--config", "../scenario.cfg"]
            out = subprocess.run(argv, env=_env(coretype), cwd=root, capture_output=True, text=True)
            assert out.returncode == 0, (coretype, args, out.stderr)

    def same(name):
        return len({(tmp_path / c / name).read_bytes() for c in CORETYPES}) == 1

    for name in PORTABLE:
        assert same(name), name
    for solver in ("general", "monotone"):
        verdict = "is equal" if same(f"{solver}/value.csv") else "differs"
        print(f"BLAS {solver}/value.csv {verdict} between the {' and '.join(cores)} kernels")
