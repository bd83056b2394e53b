"""Names that code outside the package reaches for by name.

`bench/spans.py` wraps the functions listed in its `TRACED` table,
`bench/test_checks.py` imports `ges4.verify._faulty_circuit`, and the CLI
tests monkeypatch a few names bound in `ges4.cli`. Removing one of them would
break the benchmark's trace or its checks without failing anything here.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    for name in ("main", "evolve", "entropy_closed_form", "measure_report"):
        assert callable(getattr(cli, name, None)), f"ges4.cli.{name}"


def test_faulty_circuit_is_the_dense_circuit_with_a_conjugated_splitter():
    # `bench/test_checks.py` uses it as the broken interferometer
    from ges4 import verify
    from ges4.circuit import PHOTONIC_SPACE, _dense_circuit, beam_splitter
    from ges4.hilbert import Operator

    conjugated = Operator(PHOTONIC_SPACE, beam_splitter().mat.conj())
    for phi in (0.0, 1.1, np.pi / 2, 5.3):
        got = verify._faulty_circuit(phi)
        assert np.array_equal(got.mat, _dense_circuit(phi, conjugated).mat)
