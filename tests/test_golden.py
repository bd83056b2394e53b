"""Golden outputs: `ges4 verify --seed 0 --json` (with and without the
conjugate_bs fault), a small sweep CSV and `ges4 decompose d4 --json`.

The files in tests/golden/ were written by the density-matrix measures,
before the amplitude kernel took over the sweep, the calibration and the
pairwise concurrences. Everything but floats must match exactly: keys,
check names, details, flags, the CSV header, the row count and where NaN
stands. Floats may move by roundoff: 1e-12 in general, and 1e-10 (EIG_TOL)
for the sweep's concurrence and entropy columns, which came out of
eigensolvers on the old route. The decomposition was written before the
dense oracle cached its generators' eigensystems. The
`simulate --measures` and `basis --verify` reports, which pin the entropies
and concurrences `measure_report` prints, were written before it ran its
cut entropies on the amplitude kernel.

The text and CSV renderings of every simulate, basis, decompose and verify
mode, and three sweeps, are pinned byte for byte (`BYTE_GOLDENS`): they print
floats to a fixed number of digits, so they must not move at all. The first
two sweep goldens were written before the sweep ran all its points through
one kernel call; the third, at the empty-branch boundary, before the sweep
measured its branches through `measures._branch_measures`. In the verify goldens, the `measured` cells of `circuit_unitarity`,
`oracle_equivalence` and `parseval_completeness` were re-recorded when the
dense oracle moved to one eigensystem of the summed cavity generator and
Parseval to one stacked product: they are roundoff residues of identities
whose exact value is 0 (the faulty `oracle_equivalence` moved by one ulp).

The two seed-0 verify reports are pinned byte for byte as well, next to the
structural comparison: they were re-recorded from the program once the
1e-12 comparison had let 19 float cells of the plain report and 2 of the
fault report drift at roundoff, so a change that moves any printed bit of
either report now fails.

The Gamma cells of the sweep goldens are also audited against Gamma at 50
digits (`_GAMMA_AUDIT`), and their closed-form cells against lambda and
S(delta) at 50 digits (`_CLOSED_FORM_AUDIT`): tables of each file's worst
error, which a change that moves those cells may only tighten.
"""

import csv
import io
import json
import math
from pathlib import Path

import mpmath
import pytest

from ges4 import cli
from ges4.circuit import BRANCHES
from ges4.hilbert import EIG_TOL, STRUCT_TOL

GOLDEN = Path(__file__).resolve().parent / "golden"

# Regenerate with: ges4 <argv>  > tests/golden/<file>
VERIFY_ARGV = ["verify", "--seed", "0", "--json"]
VERIFY_FAULT_ARGV = VERIFY_ARGV + ["--fault", "conjugate_bs"]
DECOMPOSE_ARGV = ["decompose", "d4", "--basis", "generated", "--json"]
SIMULATE_ARGV = ["simulate", "--phi", "1.1", "--theta", "0.3,0.5,0.7,0.9",
                 "--eta", "0.6", "--measures", "--json"]
BASIS_ARGV = ["basis", "--verify", "--json"]
SWEEP_ARGV = ["sweep", "--phi", "0:pi/2:3", "--theta1", "0:pi/2:3",
              "--theta2", "0:pi/2:3", "--theta3", "0:1.1:2",
              "--theta4", "0.4:pi/2:2", "--eta", "0.3,1", "--csv"]

# Text and CSV goldens: file stem -> (argv, exit code). Each stem has a
# <stem>.txt (argv as given) and a <stem>.csv (argv + --csv).
_SIM = ["--phi", "1.1", "--theta", "0.3,0.5,0.7,0.9"]
BYTE_GOLDENS = {
    "simulate_outcomes": (["simulate", *_SIM, "--eta", "0.6"], 0),
    "simulate_outcome_d1": (["simulate", *_SIM, "--outcome", "d1"], 0),
    "simulate_outcome_none": (["simulate", *_SIM, "--eta", "0.6", "--outcome", "none"], 0),
    "simulate_deterministic": (["simulate", "--theta", "0.3,0.5,0.7,0.9", "--eta", "0.8",
                                "--deterministic", "--outcome", "d1"], 0),
    "simulate_deterministic_measures": (["simulate", "--deterministic", "--measures"], 0),
    "simulate_measures": (["simulate", *_SIM, "--eta", "0.6", "--measures"], 0),
    "simulate_outcome_measures": (["simulate", "--theta", "0.2", "--outcome", "d2",
                                   "--measures"], 0),
    "basis_list": (["basis"], 0),
    "basis_index": (["basis", "--index", "3,2"], 0),
    "basis_verify": (["basis", "--verify"], 0),
    "basis_compare": (["basis", "--compare-generated"], 0),
    "decompose_w4": (["decompose", "w4"], 0),
    "decompose_d4_generated": (["decompose", "d4", "--basis", "generated"], 0),
    "verify_seed3": (["verify", "--seed", "3"], 0),
    "verify_seed3_fault": (["verify", "--seed", "3", "--fault", "conjugate_bs"], 1),
    # the benchmark's grid shape: empty branches and undefined closed forms
    "sweep_grid": (["sweep", "--phi", "pi/2:1.2:2", "--theta1", "0:pi/2:3",
                    "--theta2", "0:pi/2:3", "--theta3", "0:1.1:3",
                    "--theta4", "0.4:pi/2:3", "--eta", "0.3,0.7,1"], 0),
    # locked angles, negative and beyond pi/2, at phi = -0 (printed as given)
    "sweep_locked": (["sweep", "--phi=-0", "--thetas=-pi/2:pi:7", "--eta", "0,0.5,1"], 0),
    # the empty-branch boundary: chi''s numeric cells turn from NaN to numbers
    # between theta = 5e-7 and 7.5e-7, where its weight crosses 1e-12
    "sweep_empty_edge": (["sweep", "--phi", "pi/2", "--thetas", "0:2e-6:9"], 0),
}


def _run(capsys, argv, want_rc=0) -> str:
    rc = cli.main(argv)
    assert rc == want_rc
    return capsys.readouterr().out


def _assert_same(got, want, path="$"):
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            _assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= STRUCT_TOL, (path, got, want)
    else:
        assert got == want, path


def test_verify_seed0_matches_golden(capsys):
    text = (GOLDEN / "verify_seed0.json").read_text()
    out = _run(capsys, VERIFY_ARGV)
    _assert_same(json.loads(out), json.loads(text))
    assert out == text


def test_verify_seed0_fault_matches_golden(capsys):
    text = (GOLDEN / "verify_seed0_fault.json").read_text()
    out = _run(capsys, VERIFY_FAULT_ARGV, want_rc=1)
    got = json.loads(out)
    _assert_same(got, json.loads(text))
    assert out == text
    failed = [c["name"] for c in got["checks"] if not c["passed"]]
    assert failed == ["oracle_equivalence"]


def test_decompose_matches_golden(capsys):
    want = json.loads((GOLDEN / "decompose_d4_generated.json").read_text())
    got = json.loads(_run(capsys, DECOMPOSE_ARGV))
    _assert_same(got, want)


def test_simulate_measures_matches_golden(capsys):
    want = json.loads((GOLDEN / "simulate_measures.json").read_text())
    got = json.loads(_run(capsys, SIMULATE_ARGV))
    _assert_same(got, want)


def test_basis_verify_matches_golden(capsys):
    want = json.loads((GOLDEN / "basis_verify.json").read_text())
    got = json.loads(_run(capsys, BASIS_ARGV))
    _assert_same(got, want)
    assert got["all_genuine"] is True


def test_sweep_matches_golden(capsys):
    want = list(csv.reader(io.StringIO((GOLDEN / "sweep_small.csv").read_text())))
    got = list(csv.reader(io.StringIO(_run(capsys, SWEEP_ARGV))))
    header = want[0]
    assert got[0] == header
    assert len(got) == len(want)
    n_nan = 0
    for line, (row_got, row_want) in enumerate(zip(got[1:], want[1:]), start=2):
        for column, g, w in zip(header, row_got, row_want, strict=True):
            g, w = float(g), float(w)
            assert math.isnan(g) == math.isnan(w), (line, column)
            if math.isnan(w):
                n_nan += 1
                continue
            tol = EIG_TOL if column.startswith(("conc_", "entropy_")) else STRUCT_TOL
            assert abs(g - w) <= tol, (line, column, g, w)
    # the grid has empty branches and degenerate closed forms
    assert n_nan > 0


@pytest.mark.parametrize("fmt", ["txt", "csv"])
@pytest.mark.parametrize("stem", list(BYTE_GOLDENS))
def test_text_and_csv_match_golden_bytes(capsys, stem, fmt):
    argv, want_rc = BYTE_GOLDENS[stem]
    rc = cli.main(argv + (["--csv"] if fmt == "csv" else []))
    captured = capsys.readouterr()
    assert rc == want_rc
    assert captured.err == ""
    assert captured.out == (GOLDEN / f"{stem}.{fmt}").read_bytes().decode()


def test_sweep_golden_cells_are_the_cell_format_of_their_floats():
    # `_sweep_csv` writes its own %.17g cells; each must be the cell `_cell`
    # writes for the float it reads back as, NaN and negative zero included
    seen = set()
    for stem in [stem for stem in BYTE_GOLDENS if stem.startswith("sweep")]:
        rows = list(csv.reader(io.StringIO((GOLDEN / f"{stem}.csv").read_text())))
        assert len(rows) > 1
        for row in rows[1:]:
            for cell in row:
                assert cell == cli._cell(float(cell)), (stem, cell)
            seen.update(row)
    assert {"nan", "-0", "0", "1"} <= seen


def _fifty_digit_closed_forms(row) -> dict:
    """Branch -> (Gamma, lambda, S(delta)) at the working precision, from the
    row's theta cells read back as exact doubles; lambda and S are None where
    Gamma is 0."""
    th = [mpmath.mpf(float(row[f"theta{i}"])) for i in (1, 2, 3, 4)]
    c, s = [mpmath.cos(2 * t) for t in th], [mpmath.sin(2 * t) for t in th]
    prod, out = mpmath.fprod(c), {}
    for branch, sign in zip(BRANCHES, (1, -1)):
        den = 1 + sign * prod        # 2 Gamma
        if den == 0:
            out[branch] = (den / 2, None, None)
            continue
        d = min(abs((c[2] * c[3] + sign * c[0] * c[1]) / den), 1)
        plogp = (1 + d) * mpmath.log(1 + d, 2) + ((1 - d) * mpmath.log(1 - d, 2) if d < 1 else 0)
        out[branch] = (den / 2, abs(c[0] * c[1] * s[2] * s[3]) / den, 1 - plogp / 2)
    return out


def _errors(cell: float, true) -> tuple:
    err = abs(mpmath.mpf(cell) - true)
    return float(err), float(err / abs(true) if true != 0 else (0 if err == 0 else mpmath.inf))


# Each sweep golden's worst (absolute, relative) error per Gamma column against
# Gamma = (1 +- prod_i cos 2theta_i)/2 at 50 digits, from the theta cells read
# back as exact doubles; the measured figures rounded up. Roundoff in 1 +- prod
# is about 1e-16 absolute, so the relative error grows as Gamma shrinks: 8.9e-5
# at Gamma_2 ~ 1e-12 in sweep_empty_edge, and 1 where the true Gamma is below
# 1e-31 and the cell reads 0. A change may tighten a bound, never loosen it.
_GAMMA_AUDIT = {
    "sweep_empty_edge": {"gamma1": (1.11e-16, 1.11e-16), "gamma2": (1.11e-16, 8.90e-5)},
    "sweep_grid": {"gamma1": (5.65e-17, 1.0), "gamma2": (5.65e-17, 1.0)},
    "sweep_locked": {"gamma1": (6.0e-32, 6.0e-32), "gamma2": (6.0e-32, 1.0)},
    "sweep_small": {"gamma1": (5.65e-17, 1.0), "gamma2": (5.65e-17, 1.0)},
}


def test_every_sweep_golden_has_a_gamma_audit_entry():
    assert sorted(path.stem for path in GOLDEN.glob("sweep_*.csv")) == sorted(_GAMMA_AUDIT)


@pytest.mark.parametrize("stem", sorted(_GAMMA_AUDIT))
def test_sweep_golden_gamma_cells_are_within_their_50_digit_audit(stem):
    worst = {column: [0.0, 0.0] for column in ("gamma1", "gamma2")}
    with mpmath.workdps(50):
        for row in csv.DictReader(io.StringIO((GOLDEN / f"{stem}.csv").read_text())):
            exact = _fifty_digit_closed_forms(row)
            for column, branch in zip(("gamma1", "gamma2"), BRANCHES):
                err, rel = _errors(float(row[column]), exact[branch][0])
                worst[column][0] = max(worst[column][0], err)
                worst[column][1] = max(worst[column][1], rel)
    for column, (abs_bound, rel_bound) in _GAMMA_AUDIT[stem].items():
        assert worst[column][0] <= abs_bound, (column, worst[column])
        assert worst[column][1] <= rel_bound, (column, worst[column])


# Each sweep golden's closed-form columns against lambda and S(delta) at 50
# digits: the worst (absolute, relative) error over the rows where the cell is a
# number and the 50-digit Gamma is at least the empty-branch weight 1e-12, and
# the number of rows where the cell is NaN or a number but that Gamma says the
# opposite; the measured figures rounded up. In sweep_empty_edge the row at
# theta = 5e-7 has a double Gamma_2 of 1.000089e-12 against a true
# 9.99999999999e-13, so its chi'' closed forms are numbers where they should
# be NaN, and the next rows' lambda carries Gamma_2's relative error, up to
# 2.2e-5. Entropy cells read 0 where the true S is below 5e-21 (relative
# error 1). A change may tighten an entry, never loosen it.
_CLOSED_FORM_AUDIT = {
    "sweep_empty_edge": {"conc_closed_prime": (1.27e-27, 2.06e-16, 0),
                         "entropy_closed_prime": (4.82e-21, 1.0, 0),
                         "conc_closed_double_prime": (1.11e-5, 2.22e-5, 1),
                         "entropy_closed_double_prime": (0.0, 0.0, 1)},
    "sweep_grid": {"conc_closed_prime": (1.70e-16, 2.06e-16, 0),
                   "entropy_closed_prime": (1.44e-16, 1.0, 0),
                   "conc_closed_double_prime": (1.70e-16, 2.06e-16, 0),
                   "entropy_closed_double_prime": (1.44e-16, 1.0, 0)},
    "sweep_locked": {"conc_closed_prime": (5.18e-48, 1.54e-16, 0),
                     "entropy_closed_prime": (0.0, 0.0, 0),
                     "conc_closed_double_prime": (5.18e-48, 1.54e-16, 0),
                     "entropy_closed_double_prime": (0.0, 0.0, 0)},
    "sweep_small": {"conc_closed_prime": (3.81e-17, 2.06e-16, 0),
                    "entropy_closed_prime": (1.07e-16, 1.0, 0),
                    "conc_closed_double_prime": (3.81e-17, 2.06e-16, 0),
                    "entropy_closed_double_prime": (1.07e-16, 1.0, 0)},
}


def test_every_sweep_golden_has_a_closed_form_audit_entry():
    assert sorted(_CLOSED_FORM_AUDIT) == sorted(_GAMMA_AUDIT)
    columns = [f"{m}_closed_{b}" for b in BRANCHES for m in ("conc", "entropy")]
    assert all(sorted(table) == sorted(columns) for table in _CLOSED_FORM_AUDIT.values())


@pytest.mark.parametrize("stem", sorted(_CLOSED_FORM_AUDIT))
def test_sweep_golden_closed_form_cells_are_within_their_50_digit_audit(stem):
    worst = dict.fromkeys(_CLOSED_FORM_AUDIT[stem], (0.0, 0.0, 0))
    with mpmath.workdps(50):
        empty = mpmath.mpf(1e-12)
        for row in csv.DictReader(io.StringIO((GOLDEN / f"{stem}.csv").read_text())):
            for branch, (gamma, lam, s) in _fifty_digit_closed_forms(row).items():
                for column, true in ((f"conc_closed_{branch}", lam),
                                     (f"entropy_closed_{branch}", s)):
                    cell = float(row[column])
                    err, rel, wrong = worst[column]
                    if (cell != cell) != (gamma < empty):
                        wrong += 1
                    elif cell == cell:
                        err, rel = map(max, (err, rel), _errors(cell, true))
                    worst[column] = (err, rel, wrong)
    for column, bounds in _CLOSED_FORM_AUDIT[stem].items():
        assert all(got <= bound for got, bound in zip(worst[column], bounds)), worst
