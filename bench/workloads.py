"""The three workloads: seeded inputs, the call into ges4, and its checks.

Each workload turns a ``random.Random`` into rounds of inputs (``make_round``),
makes one call into the program per input (``call``, the timed part) and
checks the result against ``reference`` or against properties the method
must have (``check``, untimed). ``check`` returns how many of the input's
operations failed and why. No check compares against stored output.

ges4 functions are looked up on their modules at call time, so the span
recorder's wrappers are seen by the benchmark's own calls too.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

# Agreement with the reference, in ges4's own two accuracy classes: states,
# probabilities and other structural values, and anything that goes through
# an eigensolver (ges4's EIG_TOL). Observed: ~2e-15 for the first; for
# concurrences typically below 4e-12, and 1.1e-11 on a nearly rank-deficient
# pair reduction (see CHANGES.md).
TOL = 1e-11
MEASURE_TOL = 1e-10
EMPTY = 1e-12        # a branch below this weight has no conditional state

SWEEP_COLUMNS = (
    ["phi", "theta1", "theta2", "theta3", "theta4", "eta",
     "gamma1", "gamma2", "success_probability"]
    + [f"{q}_{b}" for b in ("prime", "double_prime")
       for q in ("conc_closed", "conc_numeric", "conc_absdiff",
                 "entropy_closed", "entropy_numeric", "entropy_absdiff")]
)
# ges4 branch name -> row of reference.interferometer: "prime" is the mode-L
# (detector D2) branch, "double_prime" the mode-U (detector D1) branch.
BRANCH_ROW = {"prime": 1, "double_prime": 0}
FORMULA_PAIR = (2, 3)        # the closed forms describe the (q3, q4) pair
FORMULA_CUT = (0, 1)         # and the q1q2|q3q4 cut

_LABELS = ("q1", "q2", "q3", "q4")


def _axis_arg(lo: float, hi: float, n: int) -> str:
    return f"{lo!r}:{hi!r}:{n}"


def _normalised(branch: np.ndarray) -> np.ndarray:
    return branch / np.linalg.norm(branch)


def _pair_key(pair) -> str:
    return "".join(_LABELS[q] for q in pair)


def _cut_key(side) -> str:
    rest = [q for q in range(4) if q not in side]
    return _pair_key(side) + "|" + _pair_key(rest)


def reference_measures(psi: np.ndarray) -> dict:
    """The measure_report tables of a normalised state, from the reference."""
    return {
        "pairwise_concurrence": {_pair_key(p): float(ref.concurrence(psi, p))
                                 for p in ref.PAIRS},
        "pair_entropy": {_cut_key(c): float(ref.cut_entropy(psi, c))
                         for c in ref.PAIR_CUTS},
        "single_entropy": {_LABELS[c[0]]: float(ref.cut_entropy(psi, c))
                           for c in ref.SINGLE_CUTS},
    }


def check_state_outputs(state, report, dec, basis, expected: np.ndarray) -> list:
    """Problems with a post-state and its measure_report and decompose results.

    ``expected`` is the reference state; agreement is up to a global phase.
    """
    problems = []
    amp = np.asarray(state.amp)
    dist = ref.phase_distance(expected, amp)
    if not dist <= TOL:
        problems.append(f"post-state differs from the reference by {dist:.3e}")
    got = report.as_dict()
    want = reference_measures(amp)
    for table, values in want.items():
        if set(got[table]) != set(values):
            problems.append(f"{table} keys {sorted(got[table])}")
            continue
        for key, value in values.items():
            if not abs(got[table][key] - value) <= MEASURE_TOL:
                problems.append(f"{table}[{key}] = {got[table][key]!r}, "
                                f"reference {value!r}")
    coeffs = dec.coefficients
    if len(coeffs) != 16:
        problems.append(f"{len(coeffs)} coefficients, not 16")
        return problems
    weight = sum(abs(c) ** 2 for c in coeffs.values())
    if not abs(weight - 1.0) <= TOL:
        problems.append(f"Parseval: sum |c|^2 = {weight!r}")
    recon = sum(c * np.asarray(basis.states[idx].amp) for idx, c in coeffs.items())
    if not float(np.max(np.abs(recon - amp))) <= TOL:
        problems.append("coefficients do not reconstruct the state")
    for idx, c in coeffs.items():
        if not abs(c - np.vdot(basis.states[idx].amp, amp)) <= TOL:
            problems.append(f"coefficient {idx} is not <phi|psi>")
            break
    return problems


class SweepGrid:
    """``ges4 sweep --csv`` over a seeded grid, in process.

    Per call: phi axis {pi/2, b} with b seeded and kept 0.15 rad away from
    multiples of pi/4; theta1, theta2 on {0, pi/4, pi/2}; theta3 on
    {0, c/2, c} and theta4 on {d, (d + pi/2)/2, pi/2} with c, d seeded; eta
    on two seeded values and 1. That is 162 grid points and 486 rows. The
    all-endpoint theta points (4 per phi) are where branches empty: at
    phi = pi/2 all 8 have an empty branch, at phi = b the 2 with two atoms in
    each state do, and all 8 have undefined closed forms.
    """

    name = "sweep-grid"
    nominal_round_s = 1.5
    sample_calls = 1

    def __init__(self, out_dir: Path):
        self.out = out_dir / "sweep.csv"

    def make_round(self, rng) -> list:
        b = rng.randrange(8) * math.pi / 4 + rng.uniform(0.15, math.pi / 4 - 0.15)
        c = rng.uniform(0.5, 1.4)
        d = rng.uniform(0.1, 1.0)
        axes = {
            "phi": (math.pi / 2, b, 2),
            "theta1": (0.0, math.pi / 2, 3),
            "theta2": (0.0, math.pi / 2, 3),
            "theta3": (0.0, c, 3),
            "theta4": (d, math.pi / 2, 3),
        }
        etas = (rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95), 1.0)
        return [{"axes": axes, "etas": etas}]

    def argv(self, inp) -> list:
        argv = ["sweep"]
        for flag, (lo, hi, n) in inp["axes"].items():
            argv += [f"--{flag}", _axis_arg(lo, hi, n)]
        argv += ["--eta", ",".join(repr(e) for e in inp["etas"]),
                 "--csv", "--out", str(self.out)]
        return argv

    def units(self, inp) -> int:
        return int(np.prod([n for _, _, n in inp["axes"].values()]))

    def first_call(self, rng) -> None:
        import ges4.cli
        ges4.cli.main(["sweep", "--csv", "--out", str(self.out)])

    def call(self, inp):
        import ges4.cli
        return ges4.cli.main(self.argv(inp))

    def out_bytes(self, inp) -> int:
        return self.out.stat().st_size

    def check(self, inp, rc) -> tuple:
        n_points = self.units(inp)
        if rc != 0:
            return n_points, [f"exit code {rc}"]
        with open(self.out, newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows or rows[0] != SWEEP_COLUMNS:
            return n_points, [f"header {rows[:1]}"]
        n_eta = len(inp["etas"])
        if len(rows) - 1 != n_points * n_eta:
            return n_points, [f"{len(rows) - 1} rows, expected {n_points * n_eta}"]
        table = np.array([[float(v) for v in row] for row in rows[1:]])
        col = {name: table[:, i] for i, name in enumerate(SWEEP_COLUMNS)}

        axes = [np.linspace(lo, hi, n) for lo, hi, n in inp["axes"].values()]
        grid = np.array(list(itertools.product(*axes, inp["etas"])))
        bad = np.any(table[:, :6] != grid, axis=1)

        phi, thetas, eta = grid[:, 0], grid[:, 1:5], grid[:, 5]
        here = ref.interferometer(phi, thetas)
        at_op = ref.interferometer(np.full_like(phi, math.pi / 2), thetas)
        w_here = (np.abs(here) ** 2).sum(axis=-1)
        w_op = (np.abs(at_op) ** 2).sum(axis=-1)
        bad |= ~(np.abs(col["gamma1"] - w_op[:, 1]) <= TOL)
        bad |= ~(np.abs(col["gamma2"] - w_op[:, 0]) <= TOL)
        bad |= ~(np.abs(col["gamma1"] + col["gamma2"] - 1.0) <= TOL)
        bad |= ~(np.abs(col["success_probability"] - eta * w_here.sum(axis=1)) <= TOL)

        def expect(branches, weights, row):
            live = weights[:, row] >= EMPTY
            psi = branches[:, row] / np.sqrt(np.where(live, weights[:, row], 1.0))[:, None]
            conc = np.where(live, ref.concurrence(psi, FORMULA_PAIR), np.nan)
            ent = np.where(live, ref.cut_entropy(psi, FORMULA_CUT), np.nan)
            return conc, ent

        def mismatch(got, want):
            return ~((np.isnan(got) & np.isnan(want)) | (np.abs(got - want) <= MEASURE_TOL))

        for branch, row in BRANCH_ROW.items():
            # Numeric columns describe the state at the row's phi; the closed
            # forms are the paper's phi = pi/2 expressions, so they must equal
            # the reference measures at pi/2.
            c_num, s_num = expect(here, w_here, row)
            c_cl, s_cl = expect(at_op, w_op, row)
            got = {q: col[f"{q}_{branch}"] for q in (
                "conc_numeric", "entropy_numeric", "conc_closed", "entropy_closed",
                "conc_absdiff", "entropy_absdiff")}
            bad |= mismatch(got["conc_numeric"], c_num)
            bad |= mismatch(got["entropy_numeric"], s_num)
            bad |= mismatch(got["conc_closed"], c_cl)
            bad |= mismatch(got["entropy_closed"], s_cl)
            bad |= mismatch(got["conc_absdiff"], np.abs(c_cl - c_num))
            bad |= mismatch(got["entropy_absdiff"], np.abs(s_cl - s_num))

        bad_points = bad.reshape(n_points, n_eta).any(axis=1)
        problems = [f"row {i + 1}: {rows[i + 1]}" for i in np.flatnonzero(bad)[:3]]
        return int(bad_points.sum()), problems


class VerifySuite:
    """``ges4 verify --json`` in process, three reports per round.

    A round draws one report seed and runs it, runs it again (the JSON must
    be byte-identical), then runs it with ``--fault conjugate_bs`` (only
    ``oracle_equivalence`` may fail, everything else must equal the first
    report).
    """

    name = "verify-suite"
    nominal_round_s = 6.5
    sample_calls = 1
    KINDS = ("plain", "repeat", "fault")

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.plain = None

    def path(self, inp) -> Path:
        return self.out_dir / f"verify-{inp['kind']}.json"

    def make_round(self, rng) -> list:
        seed = rng.randrange(2 ** 31)
        return [{"kind": kind, "seed": seed} for kind in self.KINDS]

    def argv(self, inp) -> list:
        argv = ["verify", "--seed", str(inp["seed"]), "--json", "--out", str(self.path(inp))]
        if inp["kind"] == "fault":
            argv += ["--fault", "conjugate_bs"]
        return argv

    def units(self, inp) -> int:
        return 1

    def first_call(self, rng) -> None:
        self.call(self.make_round(rng)[0])

    def call(self, inp):
        import ges4.cli
        return ges4.cli.main(self.argv(inp))

    def out_bytes(self, inp) -> int:
        return self.path(inp).stat().st_size

    def check(self, inp, rc) -> tuple:
        text = self.path(inp).read_bytes()
        kind = inp["kind"]
        if kind == "repeat":
            if rc != 0 or self.plain is None or text != self.plain[0]:
                return 1, ["repeated seed did not give byte-identical JSON"]
            return 0, []
        report = json.loads(text)
        if kind == "fault":
            return self._check_fault(rc, report)
        self.plain = None
        problems = self._check_plain(inp, rc, report)
        if not problems:
            self.plain = (text, report)
        return int(bool(problems)), problems

    def _check_plain(self, inp, rc, report) -> list:
        problems = []
        if rc != 0 or report.get("all_passed") is not True:
            problems.append(f"exit code {rc}, all_passed {report.get('all_passed')}")
        if report.get("seed") != inp["seed"]:
            problems.append(f"report seed {report.get('seed')}")
        checks = report.get("checks", [])
        if len(checks) != 12 or not all(c["passed"] for c in checks):
            problems.append(f"{len(checks)} checks, failing: "
                            f"{[c['name'] for c in checks if not c['passed']]}")
        log = report.get("discrepancy_log", {})
        spot = log.get("entropy_spot_theta_pi_8", {})
        psi = _normalised(ref.interferometer(math.pi / 2, [math.pi / 8] * 4)[1])
        want = float(ref.cut_entropy(psi, FORMULA_CUT))
        for key in ("computed", "numerical_check"):
            if not abs(spot.get(key, math.nan) - want) <= MEASURE_TOL:
                problems.append(f"theta = pi/8 entropy {key} {spot.get(key)!r}, "
                                f"reference {want!r}")
        success = log.get("success_probability_scaling", {}).get(
            "computed_success_probability", {})
        if not success or any(not abs(p - float(eta)) <= TOL for eta, p in success.items()):
            problems.append(f"P(d1) + P(d2) != eta: {success}")
        return problems

    def _check_fault(self, rc, report) -> tuple:
        if self.plain is None:
            return 1, ["no passing report of the same seed to compare with"]
        plain = self.plain[1]
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        others = [c for c in report["checks"] if c["name"] != "oracle_equivalence"]
        plain_others = [c for c in plain["checks"] if c["name"] != "oracle_equivalence"]
        if rc != 1 or report["all_passed"] or failing != ["oracle_equivalence"]:
            return 1, [f"fault run: exit code {rc}, failing {failing}"]
        if others != plain_others or report["discrepancy_log"] != plain["discrepancy_log"]:
            return 1, ["fault run changed checks other than oracle_equivalence"]
        return 0, []


class SingleShot:
    """Library requests, one at a time, through the public ges4 API.

    A round is 8 requests: 2 at the operating point (phi = pi/2,
    theta = pi/4, seeded eta) through ``prepare_ges``, and 6 at seeded
    random (phi, theta, eta) through ``evolve`` plus ``detect`` on all four
    outcomes. Every pure post-state then gets ``measure_report`` and
    ``decompose`` over ``explicit_basis()``. The two kinds take about 8 and
    12 ms and their tails overlap. With an even split, or even 3 in 8, the
    median sits where the two overlap and jumps between runs. With 2 in 8
    it lies a third of the way into the random kind.
    """

    name = "single-shot"
    nominal_round_s = 0.09
    sample_calls = 8
    PATTERN = ("op", "random", "random", "random", "op", "random", "random", "random")

    def __init__(self, out_dir: Path):
        pass

    def make_round(self, rng) -> list:
        reqs = []
        for kind in self.PATTERN:
            if kind == "op":
                reqs.append({"kind": kind, "phi": math.pi / 2, "thetas": (math.pi / 4,) * 4,
                             "eta": rng.uniform(0.05, 1.0)})
            else:
                # Away from phi = k pi/2 and from the theta endpoints, so both
                # click branches carry weight and the no-click state is mixed.
                phi = rng.randrange(4) * math.pi / 2 + rng.uniform(0.05, math.pi / 2 - 0.05)
                thetas = tuple(rng.uniform(0.05, math.pi / 2 - 0.05) for _ in range(4))
                reqs.append({"kind": kind, "phi": phi, "thetas": thetas,
                             "eta": rng.uniform(0.05, 0.95)})
        return reqs

    def units(self, inp) -> int:
        return 1

    def first_call(self, rng) -> None:
        reqs = self.make_round(rng)
        self.call(reqs[0])
        self.call(reqs[1])

    def out_bytes(self, inp) -> int:
        return 0

    def call(self, inp):
        import ges4
        params = ges4.SchemeParams(phi=inp["phi"], thetas=inp["thetas"], eta=inp["eta"])
        basis = None
        if inp["kind"] == "op":
            prepared = ges4.prepare_ges(params)
            basis = ges4.explicit_basis()
            return {"prepared": prepared, "basis": basis,
                    "report": ges4.measure_report(prepared.state),
                    "decomposition": ges4.decompose(prepared.state, basis)}
        psi = ges4.evolve(params)
        outcomes = {}
        for outcome in ges4.DetectionOutcome:
            state, prob = ges4.detect(psi, outcome, params.eta)
            entry = {"probability": prob, "state": state}
            if state is not None:
                if basis is None:
                    basis = ges4.explicit_basis()
                entry["report"] = ges4.measure_report(state)
                entry["decomposition"] = ges4.decompose(state, basis)
            outcomes[outcome.value] = entry
        return {"psi": psi, "outcomes": outcomes, "basis": basis}

    def check(self, inp, out) -> tuple:
        branches = ref.interferometer(inp["phi"], inp["thetas"])
        weights = (np.abs(branches) ** 2).sum(axis=-1)
        eta = inp["eta"]
        if inp["kind"] == "op":
            prepared = out["prepared"]
            problems = []
            if not abs(prepared.probability - eta) <= TOL:
                problems.append(f"P(d1) + P(d2) = {prepared.probability!r}, eta {eta!r}")
            if not out["report"].is_genuine:
                problems.append("operating-point state is not genuinely entangled")
            problems += check_state_outputs(
                prepared.state, out["report"], out["decomposition"], out["basis"],
                _normalised(branches[1]))
            return int(bool(problems)), problems

        # The full output fixes the relative phase of the two branches,
        # which no conditional state or probability shows.
        full = np.zeros(64, dtype=complex)
        full[16:32], full[32:48] = branches[1], branches[0]     # |01>, |10>
        dist = ref.phase_distance(full, np.asarray(out["psi"].amp))
        outcomes = out["outcomes"]
        expected = {"d1": (eta * weights[0], branches[0]),
                    "d2": (eta * weights[1], branches[1]),
                    "none": (1.0 - eta * weights.sum(), None),
                    "double": (0.0, None)}
        if set(outcomes) != set(expected):
            return 1, [f"outcomes {sorted(outcomes)}"]
        problems = []
        if not dist <= TOL:
            problems.append(f"evolve output differs from the reference by {dist:.3e}")
        total = sum(e["probability"] for e in outcomes.values())
        if not abs(total - 1.0) <= TOL:
            problems.append(f"outcome probabilities sum to {total!r}")
        clicks = outcomes["d1"]["probability"] + outcomes["d2"]["probability"]
        if not abs(clicks - eta) <= TOL:
            problems.append(f"P(d1) + P(d2) = {clicks!r}, eta {eta!r}")
        for name, (prob, branch) in expected.items():
            entry = outcomes[name]
            if not abs(entry["probability"] - prob) <= TOL:
                problems.append(f"P({name}) = {entry['probability']!r}, reference {prob!r}")
            if (entry["state"] is None) != (branch is None):
                problems.append(f"outcome {name}: post-state {entry['state']!r}")
            elif branch is not None:
                problems += check_state_outputs(
                    entry["state"], entry["report"], entry["decomposition"],
                    out["basis"], _normalised(branch))
        return int(bool(problems)), problems


WORKLOADS = {w.name: w for w in (SweepGrid, VerifySuite, SingleShot)}
