"""Unit tests for the sixteen-state basis and decompositions."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ges4 import basis, circuit, hilbert, measures
from ges4.hilbert import (PAULIS, HilbertSpace, InvariantError, Operator, StateVector, embed,
                          inner)
from ges4.circuit import (ATOMIC_SPACE, BRANCH_DOUBLE_PRIME, BRANCH_PRIME, DetectionOutcome,
                          SchemeParams, detect, evolve, ges_target_state, prepare_ges)
from ges4.basis import (
    ALL_INDICES,
    CANONICAL_EXPANSIONS,
    D4_EXPANSION_VARIANT,
    GesBasis,
    GesIndex,
    canonical_state,
    compare_generated,
    decompose,
    explicit_basis,
    generate_basis,
    verify_representation,
)
from ges4.measures import measure_report

SQ8 = 1.0 / math.sqrt(8.0)

# Per-index phase factors carrying the generated states onto the explicit
# tables; frozen here as a regression reference.
EXPECTED_PHASES = {
    (1, 0): 1, (1, 1): 1, (1, 2): -1j, (1, 3): -1,
    (2, 0): -1, (2, 1): -1, (2, 2): 1j, (2, 3): 1,
    (3, 0): -1, (3, 1): -1, (3, 2): 1j, (3, 3): 1,
    (4, 0): 1, (4, 1): 1, (4, 2): -1j, (4, 3): -1,
}


def test_ges_index_validation():
    assert GesIndex(2, 3).label == "phi_2_3"
    assert len(ALL_INDICES) == 16
    with pytest.raises(ValueError):
        GesIndex(0, 0)
    with pytest.raises(ValueError):
        GesIndex(1, 4)
    # bools and floats equal to a valid value are not integers
    for family, component in [(True, 2), (1, 2.0), (True, 2.0), (2.0, 0), (1, False),
                              (np.True_, 1), (1, np.float64(2.0))]:
        with pytest.raises(ValueError, match="must be integers"):
            GesIndex(family, component)
    assert GesIndex(np.int64(3), 1) == GesIndex(3, 1)


def test_ges_index_hashes_sorts_and_looks_up_as_its_fields():
    for idx in ALL_INDICES:
        assert hash(idx) == hash((idx.family, idx.component))
    # sorted by (family, component), the order of ALL_INDICES
    assert sorted(reversed(ALL_INDICES)) == list(ALL_INDICES)
    assert GesIndex(1, 3) < GesIndex(2, 0) < GesIndex(2, 1)
    coefficients = decompose(canonical_state("ghz4"), explicit_basis()).coefficients
    for f, c in [(1, 0), (2, 3), (4, 2)]:
        for key in (GesIndex(f, c), GesIndex(np.int64(f), np.int8(c))):
            assert hash(key) == hash((f, c))
            assert coefficients[key] == coefficients[ALL_INDICES[4 * (f - 1) + c]]
    assert {GesIndex(np.int64(2), 1): "x"}[GesIndex(2, 1)] == "x"


def test_explicit_basis_is_orthonormal_and_complete(basis16):
    assert basis16.orthonormality_deviation() < 1e-12
    assert basis16.completeness_deviation() < 1e-12
    # every state has exactly eight amplitudes of magnitude 1/sqrt(8)
    for idx in ALL_INDICES:
        mags = np.abs(basis16.states[idx].amp)
        assert np.sum(mags > 1e-12) == 8
        np.testing.assert_allclose(mags[mags > 1e-12], SQ8, atol=1e-15)


def test_explicit_basis_seed_states(basis16):
    # phi_1_0 and phi_1_2 coincide with the two detector-conditioned targets
    np.testing.assert_allclose(basis16.state(1, 0).amp,
                               ges_target_state(BRANCH_PRIME).amp, atol=1e-15)
    np.testing.assert_allclose(basis16.state(1, 2).amp,
                               ges_target_state(BRANCH_DOUBLE_PRIME).amp, atol=1e-15)
    # and bit for bit: both are read from one sign table
    basis = explicit_basis()
    for index, branch in (((1, 0), BRANCH_PRIME), ((1, 2), BRANCH_DOUBLE_PRIME)):
        assert np.array_equal(basis.state(*index).amp.view(np.uint64),
                              ges_target_state(branch).amp.view(np.uint64))


def test_corrupted_basis_is_rejected(basis16):
    # flipping a single sign breaks orthonormality by an O(1) amount
    states = dict(basis16.states)
    amp = states[GesIndex(1, 0)].amp.copy()
    amp[0] = -amp[0]
    states[GesIndex(1, 0)] = StateVector(ATOMIC_SPACE, amp)
    with pytest.raises(ValueError, match="orthonormal"):
        GesBasis(states)
    with pytest.raises(ValueError):
        GesBasis({k: v for k, v in basis16.states.items() if k.family != 4})


def test_generate_basis_default_seed(basis16):
    gen = generate_basis()
    assert gen.orthonormality_deviation() < 1e-12
    assert gen.completeness_deviation() < 1e-12
    # the identity string returns the seed itself
    np.testing.assert_allclose(gen.state(1, 0).amp,
                               ges_target_state(BRANCH_PRIME).amp, atol=1e-15)


def _embedded_pauli_string(index: GesIndex) -> np.ndarray:
    """The Pauli string composed from single-qubit factors embedded one by one."""
    def on(qubit, pauli):
        return embed(Operator(HilbertSpace((qubit,)), pauli), [qubit], ATOMIC_SPACE).mat

    op = on("q2", PAULIS[index.component])
    if index.family in (2, 4):
        op = on("q1", PAULIS[3]) @ op
    if index.family in (3, 4):
        op = on("q3", PAULIS[3]) @ op
    return op


def test_pauli_strings_equal_their_embedded_composition():
    for k, idx in enumerate(ALL_INDICES):
        assert np.array_equal(basis._PAULI_STRINGS[k], _embedded_pauli_string(idx))


def test_compare_generated_matches_up_to_frozen_phases():
    records = {r["index"]: r for r in compare_generated()}
    assert len(records) == 16
    for (family, component), phase in EXPECTED_PHASES.items():
        rec = records[f"phi_{family}_{component}"]
        assert rec["matches_up_to_phase"]
        assert rec["max_dev_after_alignment"] < 1e-12
        assert abs(rec["phase"] - phase) < 1e-12


def test_decompose_basis_elements(basis16):
    for family, component in ((1, 0), (2, 3), (4, 2)):
        dec = decompose(basis16.state(family, component), basis16)
        assert abs(dec.coefficient(family, component) - 1.0) < 1e-12
        others = [abs(c) for idx, c in dec.coefficients.items()
                  if idx != GesIndex(family, component)]
        assert max(others) < 1e-12
        assert dec.residual < 1e-12


def _aligned_coefficients(name, basis):
    """Decomposition coefficients rotated onto the real expected table."""
    expected = CANONICAL_EXPANSIONS[name]
    dec = decompose(canonical_state(name), basis)
    key = max(expected, key=lambda k: abs(expected[k]))
    pivot = dec.coefficient(*key)
    phase = pivot / abs(pivot) * (-1.0 if expected[key] < 0 else 1.0)
    return {idx: dec.coefficient(idx.family, idx.component) / phase
            for idx in ALL_INDICES}, expected


@pytest.mark.parametrize("name", ["ghz4", "w4", "cl4", "d4"])
def test_decompose_canonical_states(name, basis16):
    got, expected = _aligned_coefficients(name, basis16)
    for idx in ALL_INDICES:
        want = expected.get((idx.family, idx.component), 0.0)
        assert abs(got[idx] - want) < 1e-12, idx.label


def test_d4_variant_reconstructs_flipped_state(basis16):
    # the circulating six-term variant is unit norm but reconstructs the
    # Dicke state with its |1100> amplitude negated (overlap 2/3)
    variant = np.zeros(16, dtype=complex)
    for (family, component), coeff in D4_EXPANSION_VARIANT.items():
        variant += coeff * basis16.state(family, component).amp
    d4 = canonical_state("d4").amp
    assert abs(np.linalg.norm(variant) - 1.0) < 1e-12
    assert abs(abs(np.vdot(d4, variant)) - 2.0 / 3.0) < 1e-12
    flipped = d4.copy()
    flipped[int("1100", 2)] *= -1.0
    np.testing.assert_allclose(variant, flipped, atol=1e-12)


def test_decompose_parseval(basis16, rng):
    for _ in range(30):
        raw = rng.normal(size=16) + 1j * rng.normal(size=16)
        state = StateVector(ATOMIC_SPACE, raw / np.linalg.norm(raw))
        dec = decompose(state, basis16)
        weight = sum(abs(c) ** 2 for c in dec.coefficients.values())
        assert abs(weight - 1.0) < 1e-12
        assert dec.residual < 1e-12


@settings(max_examples=40, deadline=None)
@given(parts=st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32),
       zeros=st.lists(st.booleans(), min_size=16, max_size=16))
def test_decompose_coefficients_equal_per_index_inner(parts, zeros):
    amp = np.where(zeros, 0.0, np.array(parts[:16]) + 1j * np.array(parts[16:]))
    assume(np.linalg.norm(amp) > 1e-3)
    state = StateVector(ATOMIC_SPACE, amp / np.linalg.norm(amp))
    for b in (explicit_basis(), generate_basis()):
        dec = decompose(state, b)
        assert list(dec.coefficients) == list(ALL_INDICES)
        for idx in ALL_INDICES:
            assert abs(dec.coefficients[idx] - inner(b.states[idx], state)) <= 1e-15, idx.label
        assert dec.residual <= 1e-14


def test_explicit_tables_are_built_once_and_read_only():
    b = explicit_basis()
    assert b is explicit_basis()
    with pytest.raises(TypeError):
        b.states[GesIndex(1, 0)] = b.states[GesIndex(1, 1)]
    with pytest.raises(TypeError):
        del b.states[GesIndex(1, 0)]
    for idx in ALL_INDICES:
        assert not b.states[idx].amp.flags.writeable
        with pytest.raises(ValueError):
            b.states[idx].amp[0] = 1.0
    with pytest.raises(ValueError):
        b.matrix()[0, 0] = 1.0


_DENSE_ROUTE = ("density_matrix", "partial_trace", "von_neumann_entropy",
                "bipartition_entropy")


def _ges4_modules():
    return [m for name, m in sys.modules.items()
            if name == "ges4" or name.startswith("ges4.")]


def _report_and_decompose(rng):
    raw = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = StateVector(ATOMIC_SPACE, raw / np.linalg.norm(raw))
    b = explicit_basis()
    return measure_report(state), decompose(state, b), verify_representation(b)


def test_report_basis_and_decompose_run_without_density_matrices(monkeypatch, rng):
    def forbidden(*args, **kwargs):
        raise AssertionError("density-matrix route on the per-request path")

    for module in _ges4_modules():
        for name in _DENSE_ROUTE:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    report, dec, rep = _report_and_decompose(rng)
    assert 0.0 < report.single_entropy["q1"] <= 1.0
    assert dec.residual < 1e-12
    assert rep.all_genuine


def test_warm_report_and_decompose_run_no_eigensolver(monkeypatch, rng):
    _report_and_decompose(rng)      # warm
    counts = dict.fromkeys(("eigvalsh", "eigh", "density_matrix", "partial_trace"), 0)

    def count(owners, name):
        original = getattr(owners[0], name)

        def counting(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        for owner in owners:
            if getattr(owner, name, None) is original:
                monkeypatch.setattr(owner, name, counting)

    count([np.linalg], "eigvalsh")
    count([np.linalg], "eigh")
    count([hilbert, *_ges4_modules()], "density_matrix")
    count([hilbert, *_ges4_modules()], "partial_trace")
    _report_and_decompose(rng)
    assert counts == {"eigvalsh": 0, "eigh": 0, "density_matrix": 0, "partial_trace": 0}
    # the wrappers do see the oracle route
    measures.bipartition_entropy(canonical_state("d4"), measures.SINGLE_CUTS[0])
    assert counts["density_matrix"] == 1 and counts["partial_trace"] == 2
    assert counts["eigvalsh"] >= 2


def _single_shot_requests(rng):
    """One request of each kind the library serves one at a time: a prepared
    state at the operating point, and evolve + detect at a random point, each
    pure post-state measured and expanded over the explicit basis."""
    prepared = prepare_ges(SchemeParams(phi=math.pi / 2, eta=0.7))
    states = [prepared.state]
    params = SchemeParams(phi=float(rng.uniform(0.1, 1.4)),
                          thetas=tuple(rng.uniform(0.1, 1.4, size=4)), eta=0.6)
    psi = evolve(params)
    for outcome in DetectionOutcome:
        state, _ = detect(psi, outcome, params.eta)
        states += [state] if state is not None else []
    b = explicit_basis()
    return [(measure_report(state), decompose(state, b)) for state in states]


def test_warm_single_shot_request_builds_no_checked_state_and_two_svds(monkeypatch, rng):
    _single_shot_requests(rng)      # warm: fills the gather-index cache
    counts = {"post_init": 0, "svd": 0}
    post_init, svd = StateVector.__post_init__, np.linalg.svd

    def counting_post_init(self):
        counts["post_init"] += 1
        post_init(self)

    def counting_svd(*args, **kwargs):
        counts["svd"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(StateVector, "__post_init__", counting_post_init)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    results = _single_shot_requests(rng)
    assert len(results) == 3            # operating point, d1 and d2
    assert counts["post_init"] == 0
    counts["svd"] = 0
    state = prepare_ges(SchemeParams(phi=math.pi / 2)).state
    assert counts == {"post_init": 0, "svd": 1}          # the chosen click's post-state only
    counts["svd"] = 0
    assert measure_report(state).is_genuine
    assert counts["svd"] == 2
    # the counters do see the public constructor
    StateVector(ATOMIC_SPACE, state.amp)
    assert counts["post_init"] == 1

    # all four outcomes of one state at 0 < eta < 1, whose no-click leaves two
    # live, independent branches: one branch split, and SVDs for the clicks only
    psi = evolve(SchemeParams(phi=1.1, thetas=(0.3, 0.5, 0.7, 0.9), eta=0.4))
    before = circuit._branch_norms.cache_info()
    counts["svd"] = 0
    posts = {outcome: detect(psi, outcome, 0.4)[0] for outcome in DetectionOutcome}
    after = circuit._branch_norms.cache_info()
    assert counts["svd"] == 2
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 3)
    assert [o for o, post in posts.items() if post is None] == [
        DetectionOutcome.NO_CLICK, DetectionOutcome.DOUBLE_CLICK]
    # at theta = 0 both branches are multiples of |0000>: the no-click state
    # is pure, and only its SVD can say so
    psi = evolve(SchemeParams(phi=1.1, thetas=0.0, eta=0.4))
    counts["svd"] = 0
    post, probability = detect(psi, DetectionOutcome.NO_CLICK, 0.4)
    assert counts["svd"] == 1
    assert np.allclose(post.amp, np.eye(16)[0], rtol=0.0, atol=1e-15)
    assert abs(probability - 0.6) <= 1e-15


def test_explicit_basis_states_are_read_only(basis16):
    for state in basis16.states.values():
        assert not state.amp.flags.writeable


@pytest.mark.parametrize("which", ["explicit", "generated"])
def test_decompose_is_the_one_row_case_of_expand(which, rng):
    chosen = explicit_basis() if which == "explicit" else generate_basis()
    states = [canonical_state(name) for name in ("ghz4", "w4", "cl4", "d4")]
    states += [StateVector(ATOMIC_SPACE, amp / np.linalg.norm(amp))
               for amp in rng.normal(size=(8, 16)) + 1j * rng.normal(size=(8, 16))]
    for state in states:
        c, residual = basis._expand(state.amp[None], chosen.matrix())
        dec = decompose(state, chosen)
        assert np.array_equal([dec.coefficients[idx] for idx in ALL_INDICES], c[0])
        assert np.array_equal(dec.residual, residual[0])
        assert type(dec.residual) is float


def test_decompose_input_validation(basis16):
    with pytest.raises(ValueError):
        decompose(StateVector(ATOMIC_SPACE, 0.3 * np.eye(16)[1]), basis16)


class _RawBasis:
    """Stands in for a basis whose matrix has gone bad after construction."""

    def __init__(self, m):
        self._m = m

    def matrix(self):
        return self._m


@pytest.mark.parametrize("damage", ["scaled", "dropped_column"])
def test_decompose_and_expand_enforce_the_same_rules(damage, rng):
    # decompose keeps a one-row copy of _expand's checks; both must reject
    # the same bad basis with the same rule
    m = explicit_basis().matrix().copy()
    if damage == "scaled":
        m *= 1.0 + 1e-6                    # breaks sum |c|^2 + residual^2 = 1
    else:
        m[:, 5] = 0.0                      # keeps the norm identity, leaves a residual
    amp = rng.normal(size=16) + 1j * rng.normal(size=16)
    state = StateVector(ATOMIC_SPACE, amp / np.linalg.norm(amp))
    with pytest.raises(InvariantError) as one_row:
        decompose(state, _RawBasis(m))
    with pytest.raises(InvariantError) as stacked:
        basis._expand(state.amp[None], m)
    rule = re.compile(r"[-+]?\d[\d.e+-]*")
    assert rule.sub("#", str(one_row.value)) == rule.sub("#", str(stacked.value))
    expected = "sum |c|^2" if damage == "scaled" else "reconstruction residual"
    assert str(one_row.value).startswith(expected)


def test_canonical_state_tables():
    ghz = canonical_state("GHZ4")          # case-insensitive
    assert abs(ghz.amp[int("0000", 2)] - 1 / math.sqrt(2)) < 1e-15
    assert abs(ghz.amp[int("1111", 2)] - 1 / math.sqrt(2)) < 1e-15
    w4 = canonical_state("w4")
    for bits in ("0001", "0010", "0100", "1000"):
        assert abs(w4.amp[int(bits, 2)] - 0.5) < 1e-15
    cl4 = canonical_state("cl4")
    assert abs(cl4.amp[int("1111", 2)] + 0.5) < 1e-15
    d4 = canonical_state("d4")
    weight2 = ("0011", "0101", "0110", "1001", "1010", "1100")
    for bits in weight2:
        assert abs(d4.amp[int(bits, 2)] - 1 / math.sqrt(6)) < 1e-15
    for name in ("ghz4", "w4", "cl4", "d4"):
        assert abs(canonical_state(name).norm - 1.0) < 1e-12
    with pytest.raises(ValueError):
        canonical_state("bell")


def test_verify_representation_healthy(basis16):
    rep = verify_representation(basis16)
    assert rep.max_orthonormality_dev < 1e-12
    assert rep.max_completeness_dev < 1e-12
    assert rep.all_genuine
    assert len(rep.state_reports) == 16
    assert all(r.is_genuine for r in rep.state_reports.values())


def test_basis_matrix_is_stacked_once_and_read_only():
    for basis in (explicit_basis(), generate_basis()):
        m = basis.matrix()
        assert basis.matrix() is m
        assert np.array_equal(m, np.column_stack([basis.states[i].amp for i in ALL_INDICES]))
        with pytest.raises(ValueError):
            m[0, 0] = 0.0
