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
           "atom_photon_unitary", "closed_form_chi", "basis_state")

# Methods removed by the same rule: every factor is a qubit, and basis labels are bit
# strings, read with int(label, 2).
REMOVED_METHODS = (("HilbertSpace", "index_of"), ("HilbertSpace", "digits_of"),
                   ("HilbertSpace", "restrict"), ("StateVector", "amplitude"),
                   ("Operator", "is_unitary"), ("HilbertSpace", "dims"))


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from ges4 import *", namespace)
    exported = set(namespace) - {"__builtins__"}
    assert exported == set(ges4.__all__)
    assert len(ges4.__all__) == len(set(ges4.__all__)) == 44
    for name in ges4.__all__:
        assert getattr(ges4, name) is namespace[name]


def test_each_exported_name_is_declared_once_in_its_home_module():
    modules = (ges4.hilbert, ges4.circuit, ges4.measures, ges4.basis)
    assert [name for m in modules for name in m.__all__] == ges4.__all__
    assert len(set(ges4.__all__)) == len(ges4.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(ges4, name).__module__ == module.__name__, name


def test_removed_helpers_are_not_exported():
    for name in REMOVED:
        assert name not in ges4.__all__
        assert not hasattr(ges4, name)
        for module in (ges4.hilbert, ges4.circuit, ges4.measures, ges4.basis):
            assert not hasattr(module, name), (module.__name__, name)


def test_removed_methods_are_gone():
    for cls, name in REMOVED_METHODS:
        assert not hasattr(getattr(ges4, cls), name), (cls, name)


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert out.stdout.strip()
