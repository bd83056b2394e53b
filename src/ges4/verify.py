"""End-to-end self-checks that re-derive every published number independently.

Each check re-computes one family of results twice — once through the circuit
simulation and once through a closed form or an algebraic identity — and
reports the worst deviation.  The checks are the rows of ``CHECKS``, each
``(name, bound, detail, measure)``, and ``run_all_checks`` runs them in order
on one shared rng.  A ``measure`` returns its deviation, or the deviation and
an extra pass condition (a calibration match, a match up to phase); the check
passes when the deviation is within the row's bound and the condition holds.
A measure that fails outright raises ``CheckFailed`` with its own detail and
measured value.  Adding a check means adding one row and one measure; a row
that draws from the rng moves the draws of every row after it.

``run_all_checks`` also returns a *discrepancy log*: a machine-readable record
of every place where the toolkit's computed values disagree with figures that
circulate alongside the protocol (detector success probability, one
normalization denominator, one decomposition, one entropy spot value, and the
phase freedom of the generated basis).  Each figure is computed once, by the
check that reports it, which writes its entry as it runs; ``run_all_checks``
adds the two entries no check computes.  The log is part of the output on
purpose: the disagreements are reproducible facts about the mathematics, not
bugs, and hiding them would make the passing checks less trustworthy.

The report is deterministic for a fixed seed — no timestamps, no environment
data — so two runs with the same seed serialize to byte-identical JSON.
``report_to_json`` is that serialization, byte for byte what ``ges4 verify
--json`` renders from ``as_dict``; it and ``_faulty_circuit`` keep their
names because the benchmark binds them.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import NamedTuple, Optional

import numpy as np

from .hilbert import Operator, inner
from .circuit import (
    ATOMIC_SPACE,
    BRANCHES,
    BRANCH_PRIME,
    BRANCH_DOUBLE_PRIME,
    FAULT_MODES,
    FULL_SPACE,
    PHOTONIC_SPACE,
    DetectionOutcome,
    SchemeParams,
    _BS_BLOCK,
    _angle_terms,
    _branch_rows,
    _closed_form_pairs,
    _dense_apply,
    _dense_circuits,
    _initial_states,
    _one_photon_block,
    _one_photon_output,
    _povm,
    _row_norms,
    beam_splitter,
    closed_form_pair,
    detect,
    evolve,
    ges_target_state,
    prepare_ges,
)
from .measures import (
    FORMULA_CUT,
    FORMULA_PAIR,
    SINGLE_CUTS,
    _SINGLE_CUT_SIDES,
    _branch_measures,
    _closed_form_measures,
    _measure_reports,
    bipartition_entropy,
    calibrate_closed_forms,
    concurrence_closed_form,
    entropy_closed_form,
)
from .basis import (
    ALL_INDICES,
    CANONICAL_EXPANSIONS,
    D4_EXPANSION_VARIANT,
    HEALTH_TOL,
    _expand,
    canonical_state,
    compare_generated,
    decompose,
    explicit_basis,
    verify_representation,
)

__all__ = ["CHECKS", "CheckFailed", "CheckResult", "VerificationReport", "run_all_checks",
           "report_to_json", "FAULT_MODES", "ENTROPY_SPOT_PI_8"]

# Entropy of the chi' branch across the {q1,q2}|{q3,q4} cut at theta = pi/8,
# phi = pi/2.  Equals the binary-like entropy at delta = 0.8 and is confirmed
# by the numerical reduced density matrix to 1e-15.  A spot value of 0.8813
# (the entropy at delta = 0.4) also circulates; see the discrepancy log.
ENTROPY_SPOT_PI_8 = 0.4689955935892811

_D1 = DetectionOutcome.D1_CLICK_D2_NULL
_D2 = DetectionOutcome.D2_CLICK_D1_NULL


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single verification check."""

    name: str
    passed: bool
    measured: float
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    """All check results plus the structured discrepancy log."""

    seed: int
    checks: tuple
    discrepancy_log: dict

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        """The report as plain data: what `report_to_json` serializes and `ges4 verify` renders."""
        return {
            "seed": self.seed,
            "all_passed": self.all_passed,
            "checks": [asdict(c) for c in self.checks],
            "discrepancy_log": self.discrepancy_log,
        }


class CheckFailed(Exception):
    """A check that fails outright, with the detail and measured value it reports."""

    def __init__(self, detail: str, measured: float = 1.0):
        super().__init__(detail)
        self.detail, self.measured = detail, measured


class _Run(NamedTuple):
    """What a measure reads, and the discrepancy log it may write an entry into."""

    seed: int
    rng: np.random.Generator
    fault: Optional[str]
    log: dict


def _phase_str(z: complex) -> str:
    """Render a unit phase factor as one of '1', '-1', '1j', '-1j' or a+bj."""
    for label, value in (("1", 1.0), ("-1", -1.0), ("1j", 1j), ("-1j", -1j)):
        if abs(z - value) <= 1e-9:
            return label
    return f"{z.real:+.6f}{z.imag:+.6f}j"


def _splitter(fault: Optional[str]) -> Operator:
    """The photonic beam splitter, conjugated under the conjugate_bs fault."""
    bs = beam_splitter()
    if fault == "conjugate_bs":
        return Operator(PHOTONIC_SPACE, bs.mat.conj())
    return bs


def _faulty_circuit(phi: float) -> Operator:
    """The dense interferometer with a conjugated beam splitter (fault injection).

    The verification suite injects the fault through `_splitter`; this
    function is what the benchmark's own checks call for a broken circuit.
    """
    return Operator(FULL_SPACE, _dense_circuits([phi], _splitter("conjugate_bs"))[0])


# --------------------------------------------------------------------------
# the measures, one per row of CHECKS


def _unitarity(run: _Run) -> float:
    u = _dense_circuits(run.rng.uniform(0.0, 2.0 * np.pi, size=25), beam_splitter())
    return float(np.max(np.abs(u.conj().transpose(0, 2, 1) @ u - np.eye(FULL_SPACE.dim))))


# Total photon number n_U + n_L on |00>, |01>, |10>, |11>. The photonic
# factors come first in FULL_SPACE, so `embed` would give this same product.
_N_PHOTON = np.kron(np.diag([0.0, 1.0, 1.0, 2.0]), np.eye(ATOMIC_SPACE.dim))


def _photon_conservation(run: _Run) -> float:
    u = _dense_circuits(run.rng.uniform(0.0, 2.0 * np.pi, size=10), beam_splitter())
    n = np.diag(_N_PHOTON)    # u @ N - N @ u elementwise: products by 0, 1, 2 are exact
    return float(np.max(np.abs(u * n - n[:, None] * u)))


def _oracle_equivalence(run: _Run) -> float:
    """Dense circuit and fast kernel vs the closed-form branch pair.

    Three independent paths, each over all 200 draws at once: the dense
    circuit's factors applied to the input states stacked as rows, the
    structured one-photon kernel behind `evolve`, and the closed forms. Both
    circuit paths get the same splitter, so an injected fault breaks both.
    """
    splitter = _splitter(run.fault)
    block = _one_photon_block(splitter)
    # draw n: one phase, then four angles (a scalar loop's stream), as contiguous arrays
    draws = run.rng.uniform(0.0, [2.0 * np.pi] + [np.pi / 2.0] * 4, size=(200, 5))
    phis, thetas = draws[:, 0].copy(), draws[:, 1:].copy()
    # Expected output: a single photon split over |01> and |10>, each
    # component carrying its branch, under one common prefactor.
    phase = -1j * np.exp(-2j * phis)
    want = phase[:, None, None] * _closed_form_pairs(phis, thetas)
    dense = _branch_rows(_dense_apply(phis, splitter, _initial_states(thetas)))
    fast = _one_photon_output(phis, thetas, block)
    return float(max(np.max(np.abs(dense - want)), np.max(np.abs(fast - want))))


def _branch_normalization(run: _Run) -> float:
    run.log["chi_double_prime_normalization"] = {
        "agrees": False,
        "note": (
            "the chi'' branch normalizes by 1/sqrt(Gamma_2); the "
            "denominator 1/sqrt(Gamma_1) sometimes quoted for it would "
            "leave the branch unnormalized whenever Gamma_1 != Gamma_2, "
            "as the branch_normalization check demonstrates."
        ),
    }
    thetas = run.rng.uniform(0.0, np.pi / 2.0, size=(50, 4))
    pairs = _closed_form_pairs(np.full(50, np.pi / 2.0), thetas)
    worst = 0.0
    for (g1, g2), n_p, n_dp in zip(_angle_terms(thetas)[2].tolist(), _row_norms(pairs[:, 0]),
                                   _row_norms(pairs[:, 1])):
        n_p, n_dp = n_p ** 2, n_dp ** 2
        worst = max(worst, abs(n_p - g1), abs(n_dp - g2), abs(n_p + n_dp - 1.0))
    return worst


def _ges_preparation(run: _Run) -> float:
    params = SchemeParams(phi=np.pi / 2.0)
    worst = 0.0
    final = evolve(params)
    ref = ges_target_state(BRANCH_PRIME)
    for outcome, branch in ((_D2, BRANCH_PRIME), (_D1, BRANCH_DOUBLE_PRIME)):
        state, prob = detect(final, outcome, eta=1.0)
        worst = max(worst, abs(prob - 0.5))
        if state is None:
            raise CheckFailed(f"outcome {outcome.value} produced no pure state")
        worst = max(worst, float(1.0 - abs(inner(ges_target_state(branch), state))))
        prepared = prepare_ges(params, outcome=outcome)
        worst = max(worst, float(np.max(np.abs(prepared.state.amp - ref.amp))))
        worst = max(worst, abs(prepared.probability - 1.0))
    return worst


def _genuineness(run: _Run) -> float:
    worst = 0.0
    reports = _measure_reports([ges_target_state(branch) for branch in BRANCHES])
    for branch, report in zip(BRANCHES, reports):
        if not report.is_genuine:
            raise CheckFailed(f"{branch} branch failed the criterion")
        worst = max(worst, max(report.pairwise_concurrence.values()))
        for entropies in (report.pair_entropy, report.single_entropy):
            worst = max(worst, max(abs(1.0 - s) for s in entropies.values()))
    return worst


def _closed_forms(run: _Run) -> tuple:
    """The calibrated pair and cut, and the formulas' spot values at theta_i = pi/8."""
    cal = calibrate_closed_forms(n_samples=40, seed=run.seed + 101)
    run.log["closed_form_calibration"] = {
        "agrees": True,
        **{key: cal[key] for key in ("matching_pairs", "matching_cuts",
                                     "pair_max_dev", "cut_max_dev")},
        "note": (
            "the concurrence formula describes exactly the (q3,q4) pair "
            "and the entropy formula exactly the {q1,q2}|{q3,q4} cut; no "
            "other pair or cut matches for generic angles."
        ),
    }
    pair, cut = "".join(FORMULA_PAIR), str(FORMULA_CUT)
    devs = [cal[key][b][name] for b in BRANCHES
            for key, name in (("pair_max_dev", pair), ("cut_max_dev", cut))]
    matched = all(cal["matching_pairs"][b] == [pair] and cal["matching_cuts"][b] == [cut]
                  for b in BRANCHES)
    thetas = (np.pi / 8.0,) * 4
    s_prime = entropy_closed_form(thetas, BRANCH_PRIME)
    chi, _ = closed_form_pair(SchemeParams(phi=np.pi / 2.0, thetas=thetas))
    run.log["entropy_spot_theta_pi_8"] = {
        "agrees": False,
        "computed": float(s_prime),
        "numerical_check": float(bipartition_entropy(chi.normalized(), FORMULA_CUT)),
        "circulated_value": 0.8813,
        "note": (
            "at theta = pi/8 the formula gives delta = (0.5+0.5)/1.25 = 0.8 "
            "and S = 0.46900, confirmed by the reduced density matrix; the "
            "circulated 0.8813 equals the entropy at delta = 0.4, which arises "
            "from squaring the numerator terms, and matches no cut of the state."
        ),
    }
    spots = (
        abs(concurrence_closed_form(thetas, BRANCH_PRIME) - 0.2),
        abs(concurrence_closed_form(thetas, BRANCH_DOUBLE_PRIME) - 1.0 / 3.0),
        abs(s_prime - ENTROPY_SPOT_PI_8),
        abs(entropy_closed_form(thetas, BRANCH_DOUBLE_PRIME) - 1.0),
    )
    return max(0.0, *devs, *map(float, spots)), matched


def _basis(run: _Run) -> float:
    rep = verify_representation(explicit_basis())
    worst = max(rep.max_orthonormality_dev, rep.max_completeness_dev)
    if not rep.healthy:
        n_genuine = sum(report.is_genuine for report in rep.state_reports.values())
        raise CheckFailed(f"Gram and completeness deviations; {n_genuine}/16 elements genuine",
                          worst)
    return worst


def _generated_basis(run: _Run) -> tuple:
    rows = compare_generated()
    run.log["generated_basis_phases"] = {
        "agrees": True,
        "phases": {r["index"]: _phase_str(r["phase"]) for r in rows},
        "note": (
            "circuit-generated basis elements match the explicit tables "
            "up to the listed unit phase factors, which drop out of every "
            "physical quantity."
        ),
    }
    return (max(r["max_dev_after_alignment"] for r in rows),
            all(r["matches_up_to_phase"] for r in rows))


def _decompositions(run: _Run) -> float:
    basis = explicit_basis()
    worst = 0.0
    for name, expected in CANONICAL_EXPANSIONS.items():
        dec = decompose(canonical_state(name), basis)
        # Align one common phase so the largest coefficient matches its
        # (real, possibly negative) expected value.
        key = max(expected, key=lambda k: abs(expected[k]))
        pivot = dec.coefficient(*key)
        phase = pivot / abs(pivot) * (-1.0 if expected[key] < 0 else 1.0)
        for idx in ALL_INDICES:
            got = dec.coefficient(idx.family, idx.component) / phase
            want = expected.get((idx.family, idx.component), 0.0)
            worst = max(worst, float(abs(got - want)))
    return worst


def _parseval(run: _Run) -> float:
    # state n draws its 16 real parts, then its 16 imaginary parts
    parts = run.rng.normal(size=(100, 2, 16))
    raw = parts[:, 0] + 1j * parts[:, 1]
    c, residual = _expand(raw / np.linalg.norm(raw, axis=-1, keepdims=True),
                          explicit_basis().matrix())
    total = np.sum(np.abs(c) ** 2, axis=-1)
    return float(max(np.max(np.abs(total - 1.0)), np.max(residual)))


def _detector_model(run: _Run) -> float:
    """POVM completeness, eta-independence, and the success-probability log: 22
    detections of one state (one cached branch split), then random points'
    `_povm` sums."""
    etas = (0.0, 0.25, 0.5, 0.8, 1.0)
    worst = 0.0
    psi = evolve(SchemeParams(phi=np.pi / 2.0))
    reference = {outcome: detect(psi, outcome, 1.0)[0] for outcome in (_D1, _D2)}
    success = {}
    for eta in etas:
        probs = {}
        for outcome in DetectionOutcome:
            state, prob = detect(psi, outcome, eta)
            probs[outcome] = prob
            if eta > 0.0 and outcome in reference and state is not None:
                fidelity = abs(inner(reference[outcome], state))
                worst = max(worst, float(1.0 - fidelity))
        worst = max(worst, float(abs(sum(probs.values()) - 1.0)))
        worst = max(worst, float(probs[DetectionOutcome.DOUBLE_CLICK]))
        success[eta] = probs[_D1] + probs[_D2]
    # Away from the symmetric point: point n draws four angles, then eta; its
    # branches are the |01> and |10> rows `evolve` puts between two empty ones.
    draws = run.rng.uniform(0.0, [np.pi / 2.0] * 4 + [1.0], size=(10, 5))
    out = _one_photon_output(np.full(10, np.pi / 2.0), draws[:, :4].copy(), _BS_BLOCK)
    norms = _row_norms(out.reshape(-1, ATOMIC_SPACE.dim))
    for eta, n_l, n_u in zip(draws[:, 4].tolist(), norms[::2], norms[1::2]):
        total = sum(_povm([0.0, n_l, n_u, 0.0], o, eta)[1] for o in DetectionOutcome)
        worst = max(worst, float(abs(total - 1.0)))
    run.log["success_probability_scaling"] = {
        "agrees": False,
        "computed_success_probability": {f"{eta:g}": float(p)
                                         for eta, p in success.items()},
        "linear_reference": {f"{eta:g}": float(eta) for eta in etas},
        "quadratic_reference": {f"{eta:g}": float(eta) ** 2 for eta in etas},
        "note": (
            "a single photon reaches a single detector, so the total heralding "
            "probability scales as eta, not eta^2; the computed values match "
            "the linear reference."
        ),
    }
    return worst


# (name, bound, detail, measure), run in this order on one rng.
CHECKS = (
    ("circuit_unitarity", 1e-12, "U^dag U = 1 for 25 random phases", _unitarity),
    ("photon_number_conservation", 1e-12, "[U, N_photon] = 0 for 10 random phases",
     _photon_conservation),
    ("oracle_equivalence", 1e-12,
     "circuit output matches closed-form branches for 200 random draws", _oracle_equivalence),
    ("branch_normalization", 1e-12,
     "|chi'|^2 = Gamma_1, |chi''|^2 = Gamma_2, sum = 1 at phi = pi/2", _branch_normalization),
    ("ges_preparation", 1e-12,
     "both detector outcomes yield the target state with probability 1/2", _ges_preparation),
    ("target_state_genuineness", 1e-10,
     "all pairwise concurrences vanish and all 7 cut entropies equal 1", _genuineness),
    ("closed_form_measures", 1e-9,
     "formulas match numerics on the (q3,q4) pair and the q1q2|q3q4 cut", _closed_forms),
    ("basis_orthonormal_complete_genuine", HEALTH_TOL,
     "Gram and completeness deviations; 16/16 elements genuine", _basis),
    ("generated_basis_matches_explicit", 1e-12,
     "circuit-generated elements equal the explicit table up to unit phases", _generated_basis),
    ("canonical_decompositions", 1e-12,
     "GHZ/W/cluster/Dicke expansions match their coefficient tables", _decompositions),
    ("parseval_completeness", 1e-12,
     "coefficients of 100 random states carry all the norm", _parseval),
    ("detector_model", 1e-12,
     "POVM outcomes are complete and click-conditioned states ignore eta", _detector_model),
)


def _run_check(row: tuple, run: _Run) -> CheckResult:
    """One row of `CHECKS` on `run`: it passes when its measure raises no
    `CheckFailed`, returns a deviation within the bound, and, if it returns
    a condition as well, that condition holds."""
    name, bound, detail, measure = row
    try:
        got = measure(run)
        measured, ok = got if isinstance(got, tuple) else (got, True)
    except CheckFailed as exc:
        measured, ok, detail = exc.measured, False, exc.detail
    measured = float(measured)
    return CheckResult(name, ok and measured <= bound, measured, detail)


def _d4_variant_entry() -> dict:
    """Characterize the alternative Dicke expansion that circulates."""
    basis = explicit_basis()
    variant = np.zeros(16, dtype=complex)
    for (family, component), coeff in D4_EXPANSION_VARIANT.items():
        variant += coeff * basis.state(family, component).amp
    d4 = canonical_state("d4").amp
    overlap = abs(np.vdot(d4, variant))
    # The variant reconstructs the Dicke state with the |1100> amplitude
    # negated; index 12 = 0b1100 in the first-qubit-most-significant order.
    flipped = d4.copy()
    flipped[12] = -flipped[12]
    dev_flipped = float(np.max(np.abs(variant - flipped)))
    return {
        "agrees": bool(overlap >= 1.0 - 1e-12),
        "computed_coefficients": {
            f"phi_{f}_{c}": float(v)
            for (f, c), v in sorted(CANONICAL_EXPANSIONS["d4"].items())
        },
        "variant_coefficients": {
            f"phi_{f}_{c}": float(v)
            for (f, c), v in sorted(D4_EXPANSION_VARIANT.items())
        },
        "variant_norm": float(np.linalg.norm(variant)),
        "variant_overlap_with_dicke": float(overlap),
        "variant_deviation_from_flipped_1100": dev_flipped,
        "note": (
            "the circulated six-term expansion has unit norm but overlap 2/3 "
            "with the Dicke state; it reconstructs the Dicke state with the "
            "|1100> amplitude negated.  The four-term expansion above is the "
            "unique exact one."
        ),
    }


def _one_vs_three_entry(rng: np.random.Generator) -> dict:
    thetas = rng.uniform(0.1, 1.4, size=(25, 4))
    *_, formula = _closed_form_measures(thetas)
    _, ent = _branch_measures(_closed_form_pairs(np.full(25, np.pi / 2.0), thetas), (),
                              _SINGLE_CUT_SIDES)
    dev = np.abs(ent - formula[..., None])
    worst = float(dev[dev == dev].max(initial=0.0))    # NaN cells: empty branches
    at_pi4 = bipartition_entropy(ges_target_state(BRANCH_PRIME), SINGLE_CUTS[0])
    return {
        "agrees": False,
        "max_deviation_single_cut_vs_two_two_formula": worst,
        "value_at_theta_pi_4": float(at_pi4),
        "note": (
            "the closed-form entropy describes the {q1,q2}|{q3,q4} cut only; "
            "single-qubit cuts generically deviate from it by O(1), although "
            "all seven cuts coincide at 1 for the theta = pi/4 target states."
        ),
    }


def run_all_checks(seed: int = 0, fault: Optional[str] = None) -> VerificationReport:
    """Run every row of `CHECKS` and assemble the report.

    ``fault`` injects a known defect (see ``FAULT_MODES``) so the suite can be
    shown to actually catch broken builds; ``None`` verifies the real code.
    """
    if fault is not None and fault not in FAULT_MODES:
        raise ValueError(f"unknown fault mode {fault!r}; expected one of {FAULT_MODES}")
    run = _Run(seed, np.random.default_rng(seed), fault, {})
    checks = tuple(_run_check(row, run) for row in CHECKS)
    # after every row, so this draw follows all of theirs
    run.log["one_vs_three_entropy"] = _one_vs_three_entry(run.rng)
    run.log["dicke_expansion"] = _d4_variant_entry()
    return VerificationReport(seed=seed, checks=checks, discrepancy_log=run.log)


def report_to_json(report: VerificationReport) -> str:
    """Serialize a report deterministically (same seed, same bytes)."""
    return json.dumps(report.as_dict(), indent=2, sort_keys=True)
