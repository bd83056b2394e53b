"""The package's public surface: `from ges4 import *` gives exactly `__all__`."""

import ges4

# Removed with no caller in the package, its commands, demos or benchmark.
REMOVED = ("eig_hermitian", "equal_up_to_global_phase", "phase_between",
           "atom_photon_unitary")


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
