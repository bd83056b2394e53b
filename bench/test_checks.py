"""The benchmark's checks pass on ges4's outputs and reject broken ones.

    python3 -m pytest -q bench/test_checks.py

Broken outputs are the ``conjugate_bs`` fault (the interferometer with a
conjugated beam splitter, ges4's own negative control) and states with one
amplitude's sign flipped. The fault only flips the sign of the mode-L
branch, so every conditional state and probability, and with them the
sweep CSV, is unchanged; it shows in the full output state, which the
single-shot check compares, and in ``ges4 verify``, which verify-suite runs.
"""

import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import ges4                      # noqa: E402
import ges4.cli                  # noqa: E402
from ges4.verify import _faulty_circuit          # noqa: E402

import reference as ref          # noqa: E402
from workloads import SingleShot, SweepGrid      # noqa: E402


def faulty_evolve(params):
    return _faulty_circuit(params.phi) @ ges4.initial_state(params.thetas)


def flip_sign(state):
    amp = np.array(state.amp)
    k = int(np.argmax(np.abs(amp)))
    amp[k] = -amp[k]
    return ges4.StateVector(state.space, amp)


def flipped_evolve(params):
    return flip_sign(ges4.evolve(params))


def full_output(phi, thetas, splitter=ref.SPLITTER):
    branches = ref.interferometer(phi, thetas, splitter)
    full = np.zeros(64, dtype=complex)
    full[16:32], full[32:48] = branches[1], branches[0]
    return full


SMALL_GRID = {
    "axes": {"phi": (math.pi / 2, 2.0, 2), "theta1": (0.0, math.pi / 2, 2),
             "theta2": (0.0, math.pi / 2, 2), "theta3": (0.0, 1.1, 2),
             "theta4": (0.4, math.pi / 2, 2)},
    "etas": (0.3, 1.0),
}


def test_reference_matches_the_dense_circuit():
    rng = np.random.default_rng(7)
    for _ in range(20):
        phi, thetas = rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi / 2, 4)
        psi = ges4.evolve(ges4.SchemeParams(phi, tuple(thetas))).amp
        assert np.max(np.abs(psi - full_output(phi, thetas))) < 1e-14


def test_reference_tells_the_faulty_circuit_apart():
    phi, thetas = 1.1, (0.3, 0.7, 0.9, 1.2)
    psi = faulty_evolve(ges4.SchemeParams(phi, thetas)).amp
    assert np.max(np.abs(psi - full_output(phi, thetas, ref.SPLITTER.conj()))) < 1e-14
    assert ref.phase_distance(full_output(phi, thetas), psi) > 0.1


def test_sweep_check_accepts_the_program_and_rejects_a_flipped_sign(tmp_path, monkeypatch):
    sweep = SweepGrid(tmp_path)
    assert sweep.check(SMALL_GRID, sweep.call(SMALL_GRID)) == (0, [])
    monkeypatch.setattr(ges4.cli, "evolve", flipped_evolve)
    bad, problems = sweep.check(SMALL_GRID, sweep.call(SMALL_GRID))
    assert bad > 0 and problems


def test_single_shot_check_rejects_the_fault(tmp_path, monkeypatch):
    shot = SingleShot(tmp_path)
    inputs = shot.make_round(random.Random(3))
    random_req = next(r for r in inputs if r["kind"] == "random")
    assert shot.check(random_req, shot.call(random_req)) == (0, [])
    monkeypatch.setattr(ges4, "evolve", faulty_evolve)
    bad, problems = shot.check(random_req, shot.call(random_req))
    assert bad == 1
    assert problems == [problems[0]] and "evolve output differs" in problems[0]


@pytest.mark.parametrize("kind", ["op", "random"])
def test_single_shot_check_rejects_a_flipped_sign(tmp_path, kind):
    shot = SingleShot(tmp_path)
    req = next(r for r in shot.make_round(random.Random(5)) if r["kind"] == kind)
    out = shot.call(req)
    assert shot.check(req, out) == (0, [])
    if kind == "op":
        state = flip_sign(out["prepared"].state)
        out["prepared"] = out["prepared"]._replace(state=state)
        out["report"] = ges4.measure_report(state)
        out["decomposition"] = ges4.decompose(state, out["basis"])
    else:
        entry = out["outcomes"]["d2"]
        entry["state"] = flip_sign(entry["state"])
        entry["report"] = ges4.measure_report(entry["state"])
        entry["decomposition"] = ges4.decompose(entry["state"], out["basis"])
    bad, problems = shot.check(req, out)
    assert bad == 1
    assert any("differs from the reference" in p for p in problems)
