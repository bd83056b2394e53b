"""The mutation matrix: each row's mutant must make at least one of its named tests fail.

    python .github/scripts/mutants.py

Each row names a file, an exact text that must occur in it exactly once, the
text that replaces it, and the test node ids that must catch the change. The
script copies `src/`, `tests/`, `bench/` and `pyproject.toml` to a temporary
directory and never edits the working tree. There it runs the union of every
row's nodes unmodified, which must pass; then, for each row, it applies the
mutant, runs that row's nodes, requires a nonzero pytest exit, and restores
the file. A mutant that stops `ges4` importing counts as killed: the flipped
"1110" sign leaves the basis not orthonormal, `basis` raises at import, and
pytest exits 4 before the named test runs. A row whose text does not occur
exactly once fails the script, so a
change that moves the code must update the table with it. Hypothesis runs
with a fixed seed, so the outcome does not depend on the run.

Exit status: 0 when every row is killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[2]
COPIED = ("src", "tests", "bench", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    path: str
    text: str
    replacement: str
    nodes: tuple[str, ...]


_SWAPPED_SIGN_ROWS = (
    '(2, 1): {"1110": -1, "0111": +1, "1101": -1, "1011": +1,\n'
    '             "0010": +1, "0100": -1, "1000": -1, "0001": +1},\n'
    '    (2, 2): {')

MUTANTS = (
    Mutant("parse_thetas reverses the four angles", "src/ges4/cli.py",
           "return tuple(parse_angle(p) for p in parts)",
           "return tuple(parse_angle(p) for p in reversed(parts))",
           ("tests/test_reference_oracle.py::test_simulate_json_equals_the_reference",)),
    Mutant("prepare_ges applies the identity, not sigma^y", "src/ges4/circuit.py",
           "PAULIS[2].T", "PAULIS[0].T",
           ("tests/test_reference_oracle.py::test_simulate_json_equals_the_reference"
            "[simulate_deterministic]",)),
    Mutant('the sign of "1110" flipped in the (2, 1) table', "src/ges4/basis.py",
           '(2, 1): {"1110": -1,', '(2, 1): {"1110": +1,',
           ("tests/test_reference_oracle.py::"
            "test_the_sixteen_states_are_the_paper_construction_of_the_reference_seed",)),
    Mutant("the (2, 1) and (2, 2) sign tables swapped", "src/ges4/basis.py",
           _SWAPPED_SIGN_ROWS,
           _SWAPPED_SIGN_ROWS.replace("(2, 1)", "(2, X)").replace("(2, 2)", "(2, 1)")
           .replace("(2, X)", "(2, 2)"),
           ("tests/test_reference_oracle.py::"
            "test_the_sixteen_states_are_the_paper_construction_of_the_reference_seed",)),
    Mutant("theta2 and theta3 swapped in the sweep rows", "src/ges4/cli.py",
           "rows = np.column_stack([thetas, gammas,",
           "rows = np.column_stack([thetas[:, [0, 2, 1, 3]], gammas,",
           ("tests/test_golden.py::test_text_and_csv_match_golden_bytes[sweep_grid-csv]",)),
    Mutant("a lowered _GAMMA_AUDIT bound", "tests/test_golden.py",
           '"gamma2": (1.11e-16, 8.90e-5)', '"gamma2": (1.11e-16, 8.88e-5)',
           ("tests/test_golden.py::test_sweep_golden_gamma_cells_are_within_their_50_digit_audit"
            "[sweep_empty_edge]",)),
    Mutant("_BRANCH_SIGNS negated", "src/ges4/circuit.py",
           "_BRANCH_SIGNS = np.array([1.0, -1.0])", "_BRANCH_SIGNS = np.array([-1.0, 1.0])",
           ("tests/test_golden.py::test_text_and_csv_match_golden_bytes[sweep_grid-csv]",)),
    Mutant("the one-photon rows swapped", "src/ges4/circuit.py",
           "_ONE_PHOTON = slice(1, 3)", "_ONE_PHOTON = slice(2, 0, -1)",
           ("tests/test_circuit.py::test_fast_evolve_matches_dense_circuit_and_closed_form",
            "tests/test_circuit.py::test_branch_rows_are_a_view_of_rows_01_and_10_in_branches_order")),
    Mutant("D1 and D2 swapped in _POVM_BRANCHES", "src/ges4/circuit.py",
           "D1_CLICK_D2_NULL: (1,),\n    DetectionOutcome.D2_CLICK_D1_NULL: (0,),",
           "D1_CLICK_D2_NULL: (0,),\n    DetectionOutcome.D2_CLICK_D1_NULL: (1,),",
           ("tests/test_circuit.py::test_detect_post_state_matches_target",)),
    Mutant("eta as the no-click weight in _povm", "src/ges4/circuit.py",
           "weight = 1.0 - eta if outcome is DetectionOutcome.NO_CLICK else eta",
           "weight = eta",
           ("tests/test_povm.py::test_outcome_probabilities_are_complete_and_never_double",)),
    Mutant("_EMPTY_WEIGHT ten times larger", "src/ges4/measures.py",
           "_EMPTY_WEIGHT = 1e-12", "_EMPTY_WEIGHT = 1e-11",
           ("tests/test_golden.py::test_text_and_csv_match_golden_bytes[sweep_empty_edge-csv]",)),
    Mutant("the sign of the splitter's off-diagonal flipped", "src/ges4/circuit.py",
           'o = complex(0.0, -float.fromhex("0x1.6a09e667f3bcbp-1"))',
           'o = complex(0.0, float.fromhex("0x1.6a09e667f3bcbp-1"))',
           ("tests/test_circuit.py::"
            "test_beam_splitter_constants_are_the_exponential_of_its_generator",)),
    Mutant("basis_label's bits reversed", "src/ges4/hilbert.py",
           'return format(index, f"0{len(self.factors)}b")',
           'return format(index, f"0{len(self.factors)}b")[::-1]',
           ("tests/test_hilbert.py::test_space_indexing_first_factor_most_significant",)),
    Mutant("partial_trace keeps the labels in the order asked", "src/ges4/hilbert.py",
           "keep_axes = sorted(rho.space.axis(lab) for lab in keep)",
           "keep_axes = [rho.space.axis(lab) for lab in keep]",
           ("tests/test_hilbert.py::test_partial_trace_keep_order",)),
)


def _run(tree: Path, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True)


def _pytest(tree: Path, nodes) -> subprocess.CompletedProcess:
    return _run(tree, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                "--hypothesis-seed=0", *nodes)


def _tail(out: subprocess.CompletedProcess) -> str:
    """pytest's exit code and its last line: the summary, or the error that stopped collection."""
    lines = out.stdout.strip().splitlines() or out.stderr.strip().splitlines()
    return f"exit {out.returncode}" + (f", {lines[-1]}" if lines else "")


def main() -> int:
    ok = True
    for m in MUTANTS:
        count = (ROOT / m.path).read_text().count(m.text)
        if count != 1:
            print(f"TABLE  {m.name}: the text occurs {count} times in {m.path}, not once")
            ok = False
    if not ok:
        return 1

    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="ges4-mutants-") as tmp:
        tree = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, tree / name)

        loaded = _run(tree, "-c", "import ges4; print(ges4.__file__)").stdout.strip()
        if not loaded.startswith(str(tree / "src")):
            print(f"COPY  ges4 is imported from {loaded}, not from the copy under {tree}")
            return 1
        union = list(dict.fromkeys(node for m in MUTANTS for node in m.nodes))
        clean = _pytest(tree, union)
        if clean.returncode != 0:
            print(f"UNMUTATED  the named tests do not pass: {_tail(clean)}")
            print(clean.stdout[-4000:])
            return 1
        print(f"unmutated  {len(union)} node ids pass: {_tail(clean)}")

        for m in MUTANTS:
            target = tree / m.path
            original = target.read_text()
            target.write_text(original.replace(m.text, m.replacement))
            try:
                out = _pytest(tree, m.nodes)
            finally:
                target.write_text(original)
            killed = out.returncode != 0
            ok &= killed
            print(f"{'killed' if killed else 'SURVIVED':8}  {m.name}: {_tail(out)}")

    print(f"{len(MUTANTS)} mutants, {'all killed' if ok else 'some survived'}, "
          f"{time.monotonic() - start:.0f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
