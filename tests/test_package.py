"""The package's public surface: `from ges4 import *` gives exactly `__all__`,
and every demo script runs on it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ges4

ROOT = Path(__file__).resolve().parents[1]

# Removed with no caller in the package, its commands, demos or benchmark.
REMOVED = ("eig_hermitian", "equal_up_to_global_phase", "phase_between",
           "atom_photon_unitary", "closed_form_chi")


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from ges4 import *", namespace)
    exported = set(namespace) - {"__builtins__"}
    assert exported == set(ges4.__all__)
    assert len(ges4.__all__) == len(set(ges4.__all__)) == 45
    for name in ges4.__all__:
        assert getattr(ges4, name) is namespace[name]


def test_removed_helpers_are_not_exported():
    for name in REMOVED:
        assert name not in ges4.__all__
        assert not hasattr(ges4, name)


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout.strip()
