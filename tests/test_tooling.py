"""Names that code outside the package reaches for by name.

`bench/spans.py` wraps the functions listed in its `TRACED` table,
`bench/test_checks.py` imports `ges4.verify._faulty_circuit`, and the CLI
tests monkeypatch a few names bound in `ges4.cli`. Removing one of them would
break the benchmark's trace or its checks without failing anything here. The
sweep-check tests run the benchmark's sweep check on a sweep whose table is
wrong. The mutation matrix (`.github/scripts/mutants.py`) finds each row's
text by exact match, so a change that moves that code must update its row.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SPANS = BENCH / "spans.py"
MUTANTS = ROOT / ".github" / "scripts" / "mutants.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _spans():
    return _load("bench_spans", SPANS)


def test_every_traced_function_resolves():
    spans = _spans()
    for name in spans.PACKAGE_MODULES:
        importlib.import_module(name)
    for layer, names in spans.TRACED.items():
        module = importlib.import_module(f"ges4.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"ges4.{layer}.{name}"


def test_names_imported_or_patched_from_outside_exist():
    from ges4 import cli, verify

    assert callable(verify._faulty_circuit)
    for name in ("main", "evolve", "_one_photon_output", "_closed_form_measures",
                 "measure_report", "prepare_ges"):
        assert callable(getattr(cli, name, None)), f"ges4.cli.{name}"


def test_faulty_circuit_is_the_dense_circuit_with_a_conjugated_splitter():
    # `bench/test_checks.py` uses it as the broken interferometer
    from ges4 import verify
    from ges4.circuit import PHOTONIC_SPACE, _dense_circuits, beam_splitter
    from ges4.hilbert import Operator

    conjugated = Operator(PHOTONIC_SPACE, beam_splitter().mat.conj())
    for phi in (0.0, 1.1, np.pi / 2, 5.3):
        got = verify._faulty_circuit(phi)
        assert np.array_equal(got.mat, _dense_circuits([phi], conjugated)[0])


def test_benchmark_sweep_check_rejects_a_wrong_table(tmp_path, monkeypatch):
    # A kernel that flips one amplitude's sign per point after the first
    # passes the sweep's own first-point check, so the wrong rows reach the
    # CSV, and the benchmark's check must find them.
    import math

    from ges4 import cli

    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import SweepGrid

    grid = {"axes": {"phi": (math.pi / 2, 2.0, 2), "theta1": (0.0, math.pi / 2, 2),
                     "theta2": (0.3, 0.3, 1), "theta3": (0.0, 1.1, 2),
                     "theta4": (0.4, math.pi / 2, 2)},
            "etas": (0.3, 1.0)}
    sweep = SweepGrid(tmp_path)
    assert sweep.check(grid, sweep.call(grid)) == (0, [])
    real_kernel = cli._one_photon_output

    def flipped_kernel(phis, thetas, splitter):
        out = real_kernel(phis, thetas, splitter)
        prime = out[:, 0]                       # chi', in BRANCHES order
        k = np.argmax(np.abs(prime), axis=1)
        prime[np.arange(1, len(prime)), k[1:]] *= -1
        return out

    monkeypatch.setattr(cli, "_one_photon_output", flipped_kernel)
    rc = sweep.call(grid)
    assert rc == 0
    bad, problems = sweep.check(grid, rc)
    assert bad > 0 and problems and all(p.startswith("row ") for p in problems)


def test_benchmark_sweep_check_passes_the_former_empty_branch_band(tmp_path, monkeypatch):
    # At theta_i = 4.5e-7 and phi = pi/2, chi'' weighs 8.1e-13: below the one
    # empty weight 1e-12, so its closed forms must be NaN beside its NaN
    # numerics, as the benchmark's reference has them.
    import math

    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import SweepGrid

    grid = {"axes": {"phi": (math.pi / 2, 2.0, 2),
                     **{f"theta{i}": (4.5e-7, 4.5e-7, 1) for i in (1, 2, 3, 4)}},
            "etas": (1.0,)}
    sweep = SweepGrid(tmp_path)
    assert sweep.check(grid, sweep.call(grid)) == (0, [])


def test_every_mutant_row_names_a_text_that_occurs_once_and_existing_tests():
    rows = _load("mutants", MUTANTS).MUTANTS
    assert len({m.name for m in rows}) == len(rows) == 24
    for m in rows:
        assert (ROOT / m.path).read_text().count(m.text) == 1, m.name
        assert m.replacement != m.text and m.nodes, m.name
        for node in m.nodes:
            path, test = node.split("::")
            assert f"def {test.split('[')[0]}(" in (ROOT / path).read_text(), node
