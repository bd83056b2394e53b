"""End-to-end tests for the command line interface."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ges4 import circuit, cli, measures
from ges4.circuit import BRANCHES
from ges4.hilbert import InvariantError, StateVector
from ges4.cli import CliInputError, _axis_spec, _axis_values, parse_angle, parse_thetas
from test_golden import BYTE_GOLDENS, GOLDEN, SWEEP_ARGV


# ---------------------------------------------------------------------------
# argument parsing helpers


def test_parse_angle_symbolic():
    assert parse_angle("pi/4") == math.pi / 4
    assert parse_angle("3pi/8") == 3 * math.pi / 8
    assert parse_angle("-pi/2") == -math.pi / 2
    assert parse_angle("2pi") == 2 * math.pi
    assert parse_angle("pi") == math.pi


def test_parse_angle_decimal():
    assert parse_angle("0.25") == 0.25
    assert parse_angle("-1.5e-1") == -0.15
    assert parse_angle("0") == 0.0


@pytest.mark.parametrize("bad", ["", "pi/0", "pi/", "two", "1/2/3", "pipi"])
def test_parse_angle_rejects_garbage(bad):
    with pytest.raises(CliInputError):
        parse_angle(bad)


def test_parse_thetas():
    # single value stays scalar (broadcast downstream), four become a tuple
    assert parse_thetas("pi/8") == math.pi / 8
    assert parse_thetas("0.1,0.2,0.3,0.4") == (0.1, 0.2, 0.3, 0.4)
    with pytest.raises(CliInputError):
        parse_thetas("0.1,0.2")  # must be one or four values


def _axis(text):
    return _axis_values(_axis_spec(text))


def test_parse_axis():
    assert _axis("pi/4") == [math.pi / 4]
    grid = _axis("0:pi/2:5")
    assert len(grid) == 5
    assert grid[0] == 0.0
    assert abs(grid[-1] - math.pi / 2) < 1e-15
    with pytest.raises(CliInputError):
        _axis("0:pi:1:extra")
    with pytest.raises(CliInputError):
        _axis("0:pi:0")  # need at least one point


# ---------------------------------------------------------------------------
# simulate


# Each argv with its angle written as --flag=VALUE; the spaced form splits it.
_NEGATIVE_ANGLES = [
    ["simulate", "--theta=-pi/8"], ["simulate", "--phi=-pi/2"],
    ["simulate", "--theta=-0.3,0.5,0.7,0.9", "--json"], ["simulate", "--phi=-1e-3", "--csv"],
    ["sweep", "--thetas=-pi/2:pi:7"], ["sweep", "--phi=-1:1:3", "--theta3=-0.2", "--json"],
]


@pytest.mark.parametrize("argv", _NEGATIVE_ANGLES, ids=lambda argv: " ".join(argv))
def test_a_negative_angle_may_follow_its_flag_after_a_space(capsys, argv):
    assert cli.main(argv) == 0
    joined = capsys.readouterr()
    assert cli.main([part for token in argv for part in token.split("=")]) == 0
    assert capsys.readouterr() == joined


@pytest.mark.parametrize("argv", [["simulate", "--theta", "--json"], ["simulate", "--phi", "-h"],
                                  ["sweep", "--thetas", "--csv"]])
def test_an_angle_flag_followed_by_an_option_still_lacks_its_value(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}: expected one argument" in capsys.readouterr().err


def run_json(capsys, args):
    rc = cli.main(args)
    out = capsys.readouterr().out
    return rc, json.loads(out)


def test_simulate_d2_matches_target(capsys):
    rc, doc = run_json(
        capsys, ["simulate", "--phi", "pi/2", "--theta", "pi/4",
                 "--outcome", "d2", "--json"])
    assert rc == 0
    assert abs(doc["probability"] - 0.5) < 1e-12
    amps = {r["basis_label"]: complex(r["re"], r["im"]) for r in doc["state"]}
    assert set(amps) == {"0000", "0011", "0101", "0110",
                         "1001", "1010", "1100", "1111"}
    a = 1.0 / math.sqrt(8.0)
    for label, amp in amps.items():
        sign = 1.0 if label in ("0000", "1111") else -1.0
        assert abs(amp - sign * a) < 1e-12


def test_simulate_all_outcomes_at_phi_zero(capsys):
    rc, doc = run_json(
        capsys, ["simulate", "--phi", "0", "--theta", "0.3,0.7,0.1,1.2",
                 "--json"])
    assert rc == 0
    assert set(doc["outcomes"]) == {"d1", "d2", "none", "double"}
    # at phi=0 the interferometer does nothing: one branch carries everything
    assert doc["branch_probability"]["double_prime"] < 1e-12
    assert abs(doc["branch_probability"]["prime"] - 1.0) < 1e-12
    assert doc["outcomes"]["d1"]["probability"] < 1e-12
    assert doc["outcomes"]["d1"]["state"] is None
    assert doc["outcomes"]["double"]["probability"] < 1e-30


def test_simulate_deterministic_probability_scales_with_eta(capsys):
    rc, doc = run_json(
        capsys, ["simulate", "--eta", "0.8", "--deterministic", "--json"])
    assert rc == 0
    assert abs(doc["probability"] - 0.8) < 1e-12
    assert doc["conditioned_on"] in ("d1", "d2")
    assert doc["state"] is not None


def test_simulate_off_operating_point_warns_in_one_line(capsys, monkeypatch):
    argv = ["simulate", "--phi", "1", "--deterministic"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no warning may escape main
        assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ("warning: prepare_ges expects phi = pi/2; the conditioned "
                            "states are entangled targets only there\n")
    # stdout is what the same run prints when prepare_ges stays silent
    real = cli.prepare_ges

    def silent(*args, **kwargs):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return real(*args, **kwargs)

    monkeypatch.setattr(cli, "prepare_ges", silent)
    assert cli.main(argv) == 0
    quiet = capsys.readouterr()
    assert quiet.err == "" and quiet.out == captured.out


def test_simulate_measures_flag(capsys):
    rc, doc = run_json(
        capsys, ["simulate", "--outcome", "d2", "--measures", "--json"])
    assert rc == 0
    m = doc["measures"]
    assert m["is_genuine"] is True
    assert all(abs(v) < 1e-10 for v in m["pairwise_concurrence"].values())
    assert all(abs(v - 1.0) < 1e-10 for v in m["pair_entropy"].values())


def test_simulate_csv_header(capsys):
    rc = cli.main(["simulate", "--outcome", "d2", "--csv"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "field,value_re,value_im"
    fields = [row.split(",", 1)[0] for row in lines[1:]]
    assert "phi" in fields and "probability_d2" in fields
    assert any(f.startswith("amplitude_d2:") for f in fields)


def test_simulate_rejects_bad_eta(capsys):
    assert cli.main(["simulate", "--eta", "1.5"]) == 2
    assert "eta" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_values(capsys):
    rc = cli.main(["sweep", "--thetas", "0:pi/2:5", "--csv"])
    assert rc == 0
    out = capsys.readouterr().out
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5

    # theta = pi/8 row: closed-form concurrences 0.2 and 1/3
    row = rows[1]
    assert abs(float(row["theta1"]) - math.pi / 8) < 1e-12
    assert abs(float(row["conc_closed_prime"]) - 0.2) < 1e-12
    assert abs(float(row["conc_closed_double_prime"]) - 1.0 / 3.0) < 1e-12
    assert float(row["conc_absdiff_prime"]) < 1e-9

    # theta = pi/4 row: maximal entanglement on the paired cut
    row = rows[2]
    assert abs(float(row["conc_closed_prime"])) < 1e-12
    assert abs(float(row["entropy_closed_prime"]) - 1.0) < 1e-12

    # endpoints are degenerate for the second branch
    assert rows[0]["conc_closed_double_prime"] == "nan"
    assert rows[4]["conc_closed_double_prime"] == "nan"


def test_sweep_is_deterministic(capsys):
    cli.main(["sweep", "--thetas", "0:pi/2:7", "--csv"])
    first = capsys.readouterr().out
    cli.main(["sweep", "--thetas", "0:pi/2:7", "--csv"])
    second = capsys.readouterr().out
    assert first == second


def test_sweep_json_uses_null_for_nan(capsys):
    rc, doc = run_json(capsys, ["sweep", "--thetas", "0:pi/2:3", "--json"])
    assert rc == 0
    assert doc["columns"][:6] == ["phi", "theta1", "theta2", "theta3",
                                  "theta4", "eta"]
    assert len(doc["rows"]) == 3
    assert doc["rows"][0]["conc_closed_double_prime"] is None
    assert abs(doc["rows"][1]["entropy_closed_prime"] - 1.0) < 1e-12


_DENSE_MEASURES = ("density_matrix", "partial_trace", "concurrence",
                   "bipartition_entropy", "von_neumann_entropy")
_SMALL_SWEEP = ["sweep", "--phi", "0:pi:3", "--theta1", "0:pi/2:3",
                "--theta3", "0.2:1.1:2", "--eta", "0.5,1", "--csv"]


def test_sweep_measures_states_without_density_matrices(capsys, monkeypatch):
    import ges4
    from ges4 import circuit, hilbert, verify

    def forbidden(*args, **kwargs):
        raise AssertionError("density-matrix measure on the sweep path")

    for module in (ges4, hilbert, circuit, measures, verify, cli):
        for name in _DENSE_MEASURES:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    assert cli.main(_SMALL_SWEEP) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 3 * 3 * 2 * 2
    assert any(row["conc_numeric_prime"] not in ("nan", "0") for row in rows)


def test_sweep_measures_the_states_evolve_returns(capsys, monkeypatch):
    # The sweep takes every point's state from evolve's kernel, in one call
    # bound in cli, so a broken circuit (here: one amplitude's sign flipped
    # per point after the first, which the sweep checks against evolve)
    # changes the table.
    assert cli.main(_SMALL_SWEEP) == 0
    clean = capsys.readouterr().out
    real_kernel = cli._one_photon_output
    calls = []

    def flipped_kernel(phis, thetas, splitter):
        calls.append((np.array(phis), np.array(thetas)))
        out = real_kernel(phis, thetas, splitter)
        prime = out[:, 0]
        k = np.argmax(np.abs(prime), axis=1)
        prime[np.arange(1, len(prime)), k[1:]] *= -1
        return out

    monkeypatch.setattr(cli, "_one_photon_output", flipped_kernel)
    assert cli.main(_SMALL_SWEEP) == 0
    broken = capsys.readouterr().out
    assert broken != clean
    assert broken.splitlines()[:3] == clean.splitlines()[:3]   # header, first point
    (phis, thetas), = calls
    assert phis.shape == (3 * 3 * 2,) and thetas.shape == (3 * 3 * 2, 4)
    # every (phi, theta) point of the grid, phi reduced mod 2 pi
    want = {(phi % (2 * math.pi), t1, math.pi / 4, t3, math.pi / 4)
            for phi in _axis("0:pi:3") for t1 in _axis("0:pi/2:3")
            for t3 in _axis("0.2:1.1:2")}
    assert {(p, *t) for p, t in zip(phis.tolist(), thetas.tolist())} == want


@pytest.mark.parametrize("broken", ["evolve", "kernel", "branch_order"])
def test_sweep_checks_its_first_point_against_evolve(capsys, monkeypatch, broken):
    # One disagreeing side, at the first grid point, is an internal error.
    import ges4

    real_kernel = cli._one_photon_output
    if broken == "evolve":
        def evolve(params):
            state = ges4.evolve(params)
            amp = np.array(state.amp)
            k = int(np.argmax(np.abs(amp)))
            amp[k] = -amp[k]
            return StateVector(state.space, amp)
        monkeypatch.setattr(cli, "evolve", evolve)
    else:
        def kernel(phis, thetas, splitter):
            out = real_kernel(phis, thetas, splitter)
            if broken == "kernel":
                return out * [[-1.0], [1.0]]        # chi' sign flipped
            return out[:, ::-1]                     # branches swapped
        monkeypatch.setattr(cli, "_one_photon_output", kernel)
    argv = ["sweep", "--phi", "1.1", "--thetas", "0.3:0.9:4", "--csv"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("internal check failed: sweep states differ from "
                            "evolve at the first grid point\n")


def test_sweep_runs_the_kernel_in_blocks(capsys, monkeypatch):
    # A grid larger than a block takes several kernel calls, which together
    # cover every point once and give the same table as one call; its CSV
    # reaches the writer a block of rows at a time.
    argv = ["sweep", "--phi", "0:pi:3", "--thetas", "0:pi/2:7", "--eta", "0.5,1", "--csv"]
    assert cli.main(argv) == 0
    whole = capsys.readouterr().out
    real_kernel, real_write = cli._one_photon_output, cli._write
    sizes, chunks = [], []

    def kernel(phis, thetas, splitter):
        sizes.append(len(phis))
        return real_kernel(phis, thetas, splitter)

    def write(parts, path):
        def recorded():
            for part in parts:
                chunks.append(part)
                yield part
        real_write(recorded(), path)

    monkeypatch.setattr(cli, "_SWEEP_BLOCK", 4)
    monkeypatch.setattr(cli, "_one_photon_output", kernel)
    monkeypatch.setattr(cli, "_write", write)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == whole
    assert sizes == [4, 4, 4, 4, 4, 1]
    assert len(chunks) > 1 and "".join(chunks) == whole
    assert max(chunk.count("\n") for chunk in chunks) <= 4 * 2    # a block of points, two etas


def test_sweep_closed_form_inconsistency_exits_2(capsys, monkeypatch):
    def inconsistent(thetas):
        raise measures.ClosedFormInconsistencyError("delta = 1.5 lies outside [-1, 1]")

    monkeypatch.setattr(cli, "_closed_form_measures", inconsistent)
    assert cli.main(_SMALL_SWEEP) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: delta = 1.5 lies outside [-1, 1]\n"


# Three phis, 300 theta rows each: phi = 0 empties a branch at every point, so
# at blocks of 7 and 81 points empty branches lie on both sides of a boundary,
# and the theta endpoints empty the other branch too.
_BOUNDARY_SWEEP = ["sweep", "--phi", "0:pi:3", "--theta1", "0:pi/2:5", "--theta2", "0:pi/2:3",
                   "--theta3", "0.2:1.1:2", "--theta4", "0:pi/2:10", "--eta", "0.5,1"]
_BLOCK_SWEEPS = {**{stem: argv for stem, (argv, _) in BYTE_GOLDENS.items()
                    if stem.startswith("sweep")},
                 "sweep_small": SWEEP_ARGV[:-1], "boundary": _BOUNDARY_SWEEP}


def _empty_points(csv_text: str) -> list:
    """For each point of a sweep CSV with two etas: has it an empty branch?"""
    rows = list(csv.DictReader(io.StringIO(csv_text)))[::2]
    return [any(row[f"conc_numeric_{b}"] == "nan" for b in BRANCHES) for row in rows]


@pytest.mark.parametrize("name", _BLOCK_SWEEPS)
def test_sweep_bytes_do_not_depend_on_the_block_size(capsys, monkeypatch, name):
    # Each block computes its own theta rows, closed forms and measures, and
    # formats its own cells; the bytes are those of one whole-grid pass.
    argv = _BLOCK_SWEEPS[name]
    outputs = {}
    for block in (4096, 81, 7, 1):
        monkeypatch.setattr(cli, "_SWEEP_BLOCK", block)
        outputs[block] = []
        for fmt in ("--csv", "--json"):
            assert cli.main([*argv, fmt]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs[block].append(captured.out)
    assert all(out == outputs[4096] for out in outputs.values())
    if name in BYTE_GOLDENS:
        assert outputs[1][0] == (GOLDEN / f"{name}.csv").read_text()
    if name == "boundary":
        empty = _empty_points(outputs[4096][0])
        assert len(empty) == 3 * 300
        for block in (7, 81):
            assert any(empty[b - 1] and empty[b] for b in range(block, len(empty), block))


def _chunks_as_blocks_are_computed(monkeypatch, fmt: str) -> list:
    """(lines in each chunk, blocks computed when it was handed to the writer)
    of a 21-point sweep in blocks of 4 points, two etas."""
    argv = ["sweep", "--phi", "0:pi:3", "--thetas", "0:pi/2:7", "--eta", "0.5,1", fmt]
    real_kernel = cli._one_photon_output
    kernel_calls, seen = [], []

    def kernel(phis, thetas, splitter):
        kernel_calls.append(len(phis))
        return real_kernel(phis, thetas, splitter)

    def write(chunks, path):
        for chunk in chunks:
            seen.append((chunk.count("\n"), len(kernel_calls)))

    monkeypatch.setattr(cli, "_SWEEP_BLOCK", 4)
    monkeypatch.setattr(cli, "_one_photon_output", kernel)
    monkeypatch.setattr(cli, "_write", write)
    assert cli.main(argv) == 0
    return seen


def test_sweep_computes_a_block_only_when_its_rows_are_written(capsys, monkeypatch):
    # The first block is computed before any output; each later one when the
    # writer asks for its chunk: the header, then 4 points x 2 etas per
    # block, the 21st point last.
    assert _chunks_as_blocks_are_computed(monkeypatch, "--csv") == [
        (1, 1), (8, 1), (8, 2), (8, 3), (8, 4), (8, 5), (2, 6)]


def test_sweep_json_computes_a_block_only_when_its_rows_are_written(capsys, monkeypatch):
    # As for CSV: the 25-line head with the first block's rows (23 lines
    # each, the last one's newline in the next chunk), then a block per
    # chunk, then the document's 3-line tail.
    assert _chunks_as_blocks_are_computed(monkeypatch, "--json") == [
        (25 + 8 * 23 - 1, 1), (8 * 23, 2), (8 * 23, 3), (8 * 23, 4), (8 * 23, 5),
        (2 * 23, 6), (3, 6)]


def test_sweep_takes_gamma_and_the_closed_forms_from_one_angle_pass_per_block(
        capsys, monkeypatch):
    # 3 phis x 7 theta rows in blocks of 4 points: six blocks, each reading
    # its rows' cos 2theta, sin 2theta and Gamma in one `_angle_terms` call.
    argv = ["sweep", "--phi", "0:pi:3", "--thetas", "0:pi/2:7", "--eta", "0.5,1", "--csv"]
    assert cli.main(argv) == 0
    whole = capsys.readouterr().out
    real, rows = circuit._angle_terms, []

    def angle_terms(thetas):
        rows.append(len(thetas))
        return real(thetas)

    monkeypatch.setattr(circuit, "_angle_terms", angle_terms)
    monkeypatch.setattr(measures, "_angle_terms", angle_terms)
    monkeypatch.setattr(cli, "_SWEEP_BLOCK", 4)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == whole
    assert rows == [4, 4, 4, 4, 4, 1]


def _failing_on_second_call(real, error):
    calls = []

    def wrapped(*args):
        calls.append(1)
        if len(calls) == 2:
            raise error
        return real(*args)
    return wrapped


_MID_STREAM_FAILURES = {
    "invariant": ("_branch_measures", InvariantError("injected"), 1,
                  "internal check failed: injected\n"),
    "closed_form": ("_closed_form_measures",
                    measures.ClosedFormInconsistencyError("delta = 1.5 lies outside [-1, 1]"), 2,
                    "error: delta = 1.5 lies outside [-1, 1]\n"),
}


@pytest.mark.parametrize("failure", _MID_STREAM_FAILURES)
@pytest.mark.parametrize("where", ["stdout", "new_file", "longer_file", "symlink"])
def test_a_sweep_that_fails_mid_stream_leaves_no_partial_file(capsys, monkeypatch, tmp_path,
                                                               failure, where):
    # A failure in the second block, after the header and the first block's
    # rows are written, still ends with exit 1 or 2 and one stderr line; no
    # file is left at the --out path, nor where a symlink there points.
    name, error, code, message = _MID_STREAM_FAILURES[failure]
    argv = ["sweep", "--phi", "0:pi:3", "--thetas", "0:pi/2:7", "--eta", "0.5,1", "--csv"]
    assert cli.main(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(cli, "_SWEEP_BLOCK", 4)
    monkeypatch.setattr(cli, name, _failing_on_second_call(getattr(cli, name), error))
    target = out = tmp_path / "sweep.csv"
    if where == "longer_file":
        target.write_text("x" * 3 * len(whole) + "\n")
    if where == "symlink":
        out = tmp_path / "link.csv"
        out.symlink_to(target)
    assert cli.main(argv if where == "stdout" else [*argv, "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err == message
    if where == "stdout":
        assert whole.startswith(captured.out) and captured.out.count("\n") == 1 + 4 * 2
    else:
        assert captured.out == ""
        assert not target.exists()
        assert out.is_symlink() == (where == "symlink")


_FILE_SIZE_LIMIT = """
import resource, sys
from ges4 import cli
resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("through_symlink", [False, True])
def test_a_write_error_mid_stream_leaves_no_partial_file(tmp_path, through_symlink):
    # A file-size limit below the CSV's size makes a write fail with EFBIG
    # once 100 kB are written (Python ignores SIGXFSZ): exit 2, one line, and
    # nothing left where the output went.
    target = out = tmp_path / "sweep.csv"
    if through_symlink:
        out = tmp_path / "link.csv"
        out.symlink_to(target)
    argv = ["sweep", "--phi", "0:pi:3", "--thetas", "0:pi/2:1400", "--csv", "--out", str(out)]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", _FILE_SIZE_LIMIT, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == f"error: cannot write {out}: File too large\n"
    assert not target.exists()
    assert out.is_symlink() == through_symlink


def test_sweep_memory_does_not_grow_with_the_grid(tmp_path, monkeypatch):
    # Nothing a sweep holds grows with its point count but the axis values
    # (here 70 or 100 of them): a grid four times larger peaks at about the
    # same traced memory.
    monkeypatch.setattr(cli, "_SWEEP_BLOCK", 256)

    def peak(n4: int) -> int:
        argv = ["sweep", "--theta1", "0:pi/2:10", "--theta2", "0:pi/2:10", "--theta3",
                "0.1:1.4:10", "--theta4", f"0:pi/2:{n4}", "--csv", "--out",
                str(tmp_path / "sweep.csv")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)     # first-call caches
    small, large = peak(10), peak(40)
    assert large <= 1.5 * small, (small, large)


_PEAK_RSS = """
import resource, sys
from ges4 import cli
code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_sweep_json_streams_in_bounded_memory(tmp_path):
    # A 4e4-point JSON sweep, a 36 MB document, is written a block at a time
    # like its CSV: the process peaks far below the ~270 MB that building the
    # whole document first takes (ru_maxrss is in kB on Linux).
    out = tmp_path / "sweep.json"
    argv = ["sweep", "--phi", "0:pi:4", "--thetas", "0:pi/2:10000", "--json", "--out", str(out)]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0 and run.stderr == ""
    code, peak_kb = run.stdout.split()
    assert code == "0"
    assert int(peak_kb) < 150 * 1024, peak_kb
    with open(out) as fh:
        rows = json.load(fh)["rows"]
    assert len(rows) == 4 * 10_000
    assert rows[-1]["phi"] == math.pi and rows[-1]["theta4"] == math.pi / 2


def test_parser_is_built_once_and_parses_each_call_afresh(capsys):
    assert cli.build_parser() is cli.build_parser()
    rc, first = run_json(capsys, ["verify", "--seed", "3", "--json"])
    assert rc == 0 and first["seed"] == 3
    assert cli.main(_SMALL_SWEEP) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3 * 3 * 2 * 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--no-such-flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    # nothing carries over from the earlier calls: --seed is back at its default
    rc, doc = run_json(capsys, ["verify", "--json"])
    assert rc == 0 and doc["seed"] == 0
    rc, again = run_json(capsys, ["verify", "--seed", "3", "--json"])
    assert again == first


def test_sweep_at_angles_whose_double_overflows_warns_nothing():
    # 2 theta overflows above ~8.99e307; the closed forms and Gamma take the
    # double-angle identity there, with no numpy warning on stderr
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-m", "ges4.cli", "sweep", "--thetas", "1e308",
                          "--csv"], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0 and out.stderr == ""
    [row] = [{k: float(v) for k, v in row.items()}
             for row in csv.DictReader(io.StringIO(out.stdout))]
    assert all(math.isfinite(v) for v in row.values())
    assert abs(row["gamma1"] + row["gamma2"] - 1.0) <= 1e-15
    assert max(v for k, v in row.items() if "_absdiff_" in k) <= 1e-12


@pytest.mark.parametrize("edge", [0.0, math.pi / 2])
def test_sweep_closed_and_numeric_cells_of_a_branch_are_nan_together(capsys, edge):
    # At phi = pi/2 the closed forms describe the numeric states, and chi''
    # is empty for both below the one weight 1e-12, at |theta - edge| < 5e-7;
    # the axis steps 5e-8 and passes that crossing 1.3e-8 away.
    axis = f"{edge - 2.013e-6!r}:{edge + 1.987e-6!r}:81"
    assert cli.main(["sweep", "--phi", "pi/2", f"--thetas={axis}", "--csv"]) == 0
    empty = []
    for row in csv.DictReader(io.StringIO(capsys.readouterr().out)):
        for branch in BRANCHES:
            cells = {row[f"{q}_{branch}"] == "nan" for q in (
                "conc_closed", "conc_numeric", "entropy_closed", "entropy_numeric")}
            assert len(cells) == 1, (row["theta1"], branch)
            empty += cells
    assert 0 < sum(empty) < len(empty)


def test_sweep_point_cap(capsys):
    rc = cli.main(["sweep", "--phi", "0:pi:1001", "--thetas", "0:pi/2:1001"])
    assert rc == 2
    assert "points" in capsys.readouterr().err


def test_sweep_theta_lock_conflict(capsys):
    rc = cli.main(["sweep", "--thetas", "0:pi/2:3", "--theta1", "0.5"])
    assert rc == 2
    # any explicit --thetaN conflicts, also one that spells the default
    for theta1 in ("pi/4", "0.7853981633974483", "PI/4"):
        assert cli.main(["sweep", "--thetas", "0:1:2", "--theta1", theta1]) == 2


def test_sweep_bad_axis(capsys):
    assert cli.main(["sweep", "--phi", "0:pi:"]) == 2
    assert cli.main(["sweep", "--eta", "0.5,2.0"]) == 2


# ---------------------------------------------------------------------------
# basis


def test_basis_list_single_index(capsys):
    rc, doc = run_json(capsys, ["basis", "--list", "--index", "1,0", "--json"])
    assert rc == 0
    (entry,) = doc["states"]
    assert entry["index"] == "phi_1_0"
    amps = {r["basis_label"]: complex(r["re"], r["im"])
            for r in entry["amplitudes"]}
    assert len(amps) == 8
    a = 1.0 / math.sqrt(8.0)
    assert abs(amps["0000"] - a) < 1e-12
    assert abs(amps["0011"] + a) < 1e-12


def test_basis_verify(capsys):
    rc, doc = run_json(capsys, ["basis", "--verify", "--json"])
    assert rc == 0
    assert doc["max_orthonormality_dev"] < 1e-12
    assert doc["max_completeness_dev"] < 1e-12
    assert doc["all_genuine"] is True
    assert len(doc["states"]) == 16


def test_basis_health_is_decided_in_one_place(capsys, monkeypatch):
    # below the basis's own deviation, both `basis --verify` and verify's basis check fail
    from ges4 import basis, verify
    rc, healthy = run_json(capsys, ["basis", "--verify", "--json"])
    monkeypatch.setattr(basis, "HEALTH_TOL", 0.0)
    rc_tight, doc = run_json(capsys, ["basis", "--verify", "--json"])
    assert (rc, rc_tight, doc) == (0, 1, healthy)
    [failed] = [c for c in verify.run_all_checks(seed=0).checks if not c.passed]
    assert failed.name == "basis_orthonormal_complete_genuine"
    assert failed.detail.endswith("16/16 elements genuine")


def test_basis_compare_generated(capsys):
    rc, doc = run_json(capsys, ["basis", "--compare-generated", "--json"])
    assert rc == 0
    assert len(doc) == 16
    assert all(entry["matches_up_to_phase"] for entry in doc)
    assert all(entry["max_dev_after_alignment"] < 1e-12 for entry in doc)


def test_basis_bad_index(capsys):
    assert cli.main(["basis", "--list", "--index", "5,0"]) == 2
    assert cli.main(["basis", "--index", ""]) == 2


@pytest.mark.parametrize("argv", [
    ["basis", "--verify", "--compare-generated"],
    ["basis", "--list", "--verify"],
    ["basis", "--list", "--compare-generated"],
    ["basis", "--verify", "--index", "1,0"],
    ["basis", "--compare-generated", "--index", "2,1"],
])
def test_basis_mode_conflicts_exit_2(capsys, argv):
    # one mode per run; --index belongs to list mode alone
    try:
        rc = cli.main(argv)
    except SystemExit as exc:      # argparse rejects a second mode flag
        rc = exc.code
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


# ---------------------------------------------------------------------------
# decompose


def test_decompose_ghz4(capsys):
    rc, doc = run_json(capsys, ["decompose", "ghz4", "--json"])
    assert rc == 0
    assert doc["residual"] < 1e-12
    weights = {e["label"]: e for e in doc["coefficients"]}
    assert len(weights) == 16
    heavy = {k: v for k, v in weights.items() if v["abs2"] > 1e-9}
    assert set(heavy) == {"phi_1_0", "phi_2_3", "phi_3_3", "phi_4_0"}
    for entry in heavy.values():
        assert abs(entry["re"] - 0.5) < 1e-12
        assert abs(entry["im"]) < 1e-12


def test_decompose_state_file_round_trip(capsys, tmp_path):
    listing = tmp_path / "listing.json"
    rc = cli.main(["basis", "--list", "--index", "2,3", "--json",
                   "--out", str(listing)])
    assert rc == 0
    assert capsys.readouterr().out == ""  # --out writes the file instead

    # re-export the amplitude records in the plain state-file format
    (entry,) = json.loads(listing.read_text())["states"]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(entry["amplitudes"]))

    rc, doc = run_json(capsys, ["decompose", "--file", str(path), "--json"])
    assert rc == 0
    assert doc["residual"] < 1e-12
    weights = {e["label"]: e["abs2"] for e in doc["coefficients"]}
    assert abs(weights["phi_2_3"] - 1.0) < 1e-12
    assert sum(v for k, v in weights.items() if k != "phi_2_3") < 1e-12


def test_decompose_normalize_gate(capsys, tmp_path):
    path = tmp_path / "unnormalized.json"
    path.write_text(json.dumps(
        [{"basis_label": "0000", "re": 1.0, "im": 0.0},
         {"basis_label": "1111", "re": 1.0, "im": 0.0}]))
    rc = cli.main(["decompose", "--file", str(path)])
    assert rc == 2
    assert "normaliz" in capsys.readouterr().err

    rc, doc = run_json(capsys, ["decompose", "--file", str(path),
                                "--normalize", "--json"])
    assert rc == 0
    assert doc["residual"] < 1e-12


def test_decompose_input_validation(capsys, tmp_path):
    # name and file are mutually exclusive; one of them is required
    some = tmp_path / "s.json"
    some.write_text(json.dumps([{"basis_label": "0000", "re": 1.0, "im": 0.0}]))
    assert cli.main(["decompose", "ghz4", "--file", str(some)]) == 2
    assert cli.main(["decompose"]) == 2
    capsys.readouterr()

    assert cli.main(["decompose", "--file", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["decompose", "--file", str(bad)]) == 2
    dup = tmp_path / "dup.json"
    dup.write_text(json.dumps(
        [{"basis_label": "0000", "re": 0.8, "im": 0.0},
         {"basis_label": "0000", "re": 0.6, "im": 0.0}]))
    assert cli.main(["decompose", "--file", str(dup)]) == 2
    assert cli.main(["decompose", "nosuchstate"]) == 2
    capsys.readouterr()

    # --normalize rescales a --file state; a named state is already normalized
    assert cli.main(["decompose", "ghz4", "--normalize"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --normalize rescales a --file state; it does not "
                            "combine with a state name\n")


_TOL_UNREAD = "error: --tol sets the amplitudes --list shows; it does not combine with " \
              "--verify or --compare-generated\n"


@pytest.mark.parametrize("argv, err", [
    (["decompose", "ghz4", "--tol", "1e-6"],
     "error: --tol checks the norm of a --file state; it does not combine with a state name\n"),
    (["decompose", "w4", "--basis", "generated", "--tol=1e-9", "--json"],
     "error: --tol checks the norm of a --file state; it does not combine with a state name\n"),
    (["basis", "--verify", "--tol", "0"], _TOL_UNREAD),
    (["basis", "--compare-generated", "--tol", "1e-9", "--csv"], _TOL_UNREAD),
], ids=["decompose-name", "decompose-name-json", "basis-verify", "basis-compare"])
def test_tol_where_nothing_reads_it_exits_2_with_one_line(capsys, argv, err):
    # an explicit --tol is rejected where no amplitude is shown or checked,
    # even when it equals the default
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", err)


def test_tol_still_applies_where_it_is_read(capsys, tmp_path):
    # the default and an explicit 1e-9 give the same bytes where --tol is read
    path = tmp_path / "state.json"
    path.write_text(json.dumps([{"basis_label": "0000", "re": 0.6, "im": 0.0},
                                {"basis_label": "1111", "re": 0.8 + 1e-10, "im": 0.0}]))
    for argv in (["simulate", "--theta", "0.3", "--json"], ["basis", "--index", "2,1"],
                 ["decompose", "--file", str(path), "--csv"]):
        assert cli.main(argv) == 0
        default = capsys.readouterr().out
        assert cli.main(argv + ["--tol", "1e-9"]) == 0
        assert capsys.readouterr().out == default
    # a tighter --tol rejects the same file
    assert cli.main(["decompose", "--file", str(path), "--tol", "1e-11"]) == 2
    assert capsys.readouterr().err.startswith("error: state norm")


# ---------------------------------------------------------------------------
# verify


def test_verify_output_is_reproducible(capsys):
    assert cli.main(["verify", "--seed", "42", "--json"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["verify", "--seed", "42", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["all_passed"] is True


def test_verify_fault_fails(capsys):
    rc = cli.main(["verify", "--fault", "conjugate_bs", "--json"])
    assert rc == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_passed"] is False


def test_verify_writes_files(capsys, tmp_path):
    report = tmp_path / "report.json"
    log = tmp_path / "log.json"
    rc = cli.main(["verify", "--json", "--out", str(report),
                   "--discrepancies", str(log)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(report.read_text())
    assert doc["all_passed"] is True
    logged = json.loads(log.read_text())
    assert "success_probability_scaling" in logged
    assert "entropy_spot_theta_pi_8" in logged


@pytest.mark.parametrize("existing", ["symlink", "longer_file"])
def test_out_replaces_what_the_path_names(capsys, tmp_path, existing):
    # --out writes through a symlink to its target, leaving the link a link,
    # and replaces all of an existing file, however long; also when the
    # output is a sweep of two blocks, written one block at a time.
    for argv in (["decompose", "w4", "--csv"],
                 ["sweep", "--phi", "0:pi:3", "--thetas", "0:pi/2:1400", "--csv"]):
        assert cli.main(argv) == 0
        want = capsys.readouterr().out
        target = tmp_path / f"{argv[0]}.csv"
        target.write_text("x" * 3 * len(want) + "\n")
        out = target
        if existing == "symlink":
            out = tmp_path / f"{argv[0]}_link.csv"
            out.symlink_to(target)
        assert cli.main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == want
        assert out.is_symlink() == (existing == "symlink")


@pytest.mark.parametrize("fault", [None, "conjugate_bs"])
@pytest.mark.parametrize("seed", [0, 3])
def test_verify_json_is_the_library_serialization(capsys, seed, fault):
    from ges4.verify import report_to_json, run_all_checks

    argv = ["verify", "--seed", str(seed), "--json"] + (["--fault", fault] if fault else [])
    assert cli.main(argv) == (1 if fault else 0)
    assert capsys.readouterr().out == report_to_json(run_all_checks(seed, fault)) + "\n"


def test_verify_text_mode(capsys):
    rc = cli.main(["verify"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "12/12 checks passed" in out
    assert "discrepancy log:" in out


# ---------------------------------------------------------------------------
# top level behaviour


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["sweep", "--seed", "1"], ["verify", "--tol", "1e-9"], ["sweep", "--tol", "1e-9"],
    ["simulate", "--seed", "1"], ["basis", "--seed", "1"], ["decompose", "w4", "--seed", "1"],
])
def test_a_flag_the_command_does_not_read_exits_2(capsys, argv):
    # --seed belongs to verify alone; --tol to simulate, basis and decompose
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert errors == [f"ges4: error: unrecognized arguments: {' '.join(argv[-2:])}"]


def test_json_csv_mutually_exclusive():
    with pytest.raises(SystemExit) as err:
        cli.main(["simulate", "--json", "--csv"])
    assert err.value.code == 2


def test_broken_invariant_exits_1_with_one_line(capsys, monkeypatch):
    # measure_report takes each two-two cut from both sides in one stacked
    # SVD, after the six pairs; a side_b gather table that repeats a row
    # changes those matrices' spectra and breaks their Schmidt symmetry.
    real_gather = measures._gather

    def corrupted(sides):
        index = real_gather(sides).copy()
        if sides == measures.PAIRS + measures._PAIR_CUT_SIDES:
            index[9:, 1] = index[9:, 0]
        return index

    monkeypatch.setattr(measures, "_gather", corrupted)
    rc = cli.main(["simulate", "--outcome", "d2", "--measures"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("internal check failed: Schmidt symmetry")


def test_errors_go_to_stderr_not_stdout(capsys):
    rc = cli.main(["simulate", "--phi", "nonsense"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err != ""


# ---------------------------------------------------------------------------
# work done per request


@pytest.mark.parametrize("fmt", [[], ["--csv"], ["--json"]])
@pytest.mark.parametrize("argv, n_pure", [
    (["simulate", "--phi", "1.1", "--theta", "0.3,0.5,0.7,0.9", "--eta", "0.6"], 2),
    (["simulate", "--outcome", "d2"], 1),
    (["simulate", "--deterministic"], 1),
])
def test_measures_run_once_per_pure_state(capsys, monkeypatch, argv, n_pure, fmt):
    # d1 and d2 leave pure states at eta 0.6; no-click is mixed and a
    # double click has no weight, so they get no measures.
    real = cli.measure_report
    calls = []

    def counted(state):
        calls.append(state)
        return real(state)

    monkeypatch.setattr(cli, "measure_report", counted)
    assert cli.main(argv + ["--measures"] + fmt) == 0
    capsys.readouterr()
    assert len(calls) == n_pure


@pytest.mark.parametrize("axes", [
    ["--phi", "0:1:2000000"],
    # 1e20 points: a product in int64 would wrap around
    [arg for i in (1, 2, 3, 4) for arg in (f"--theta{i}", "0:1:100000")],
])
def test_sweep_cap_is_checked_before_any_axis_is_built(capsys, monkeypatch, axes):
    def no_linspace(*args, **kwargs):
        raise AssertionError("an axis was built before the cap check")

    monkeypatch.setattr(cli.np, "linspace", no_linspace)
    assert cli.main(["sweep", *axes, "--cap", "10"]) == 2
    assert "exceeding the cap 10" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit paths and input holes


def _exit_code(argv) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:    # argparse rejects a flag
        return exc.code


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("target", ["missing/x.json", "."])   # no such folder; a folder
@pytest.mark.parametrize("argv", [
    ["basis", "--index", "1,0", "--json", "--out"],
    ["simulate", "--out"],
    ["verify", "--seed", "0", "--json", "--discrepancies"],
])
def test_unwritable_output_exits_2_with_one_line(capsys, tmp_path, argv, target):
    rc = cli.main(argv + [str(tmp_path / target)])
    captured = capsys.readouterr()
    assert rc == 2
    assert _one_error_line(captured.err), captured.err


@pytest.mark.parametrize("target", ["missing/x.json", "."])
@pytest.mark.parametrize("bad", ["--out", "--discrepancies"])
def test_one_unwritable_output_leaves_no_file_at_all(capsys, tmp_path, bad, target):
    # the report goes to one path and the log to the other; one is bad
    good = "--discrepancies" if bad == "--out" else "--out"
    good_path = tmp_path / "written.json"
    rc = cli.main(["verify", "--csv", bad, str(tmp_path / target), good, str(good_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert _one_error_line(captured.err) and "cannot write" in captured.err, captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []     # the good path was not written either


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-9", "-0.5"])
def test_tol_must_be_finite_and_nonnegative(capsys, tol):
    assert _exit_code(["simulate", f"--tol={tol}", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--tol" in captured.err


def test_tol_zero_is_accepted(capsys):
    rc, doc = run_json(capsys, ["simulate", "--outcome", "d2", "--tol", "0", "--json"])
    assert rc == 0
    assert len(doc["state"]) >= 8


def _state_file(tmp_path, records) -> str:
    path = tmp_path / "state.json"
    path.write_text(json.dumps(records))
    return str(path)


@pytest.mark.parametrize("field", ["re", "im"])
def test_state_file_rejects_booleans(capsys, tmp_path, field):
    rec = {"basis_label": "0000", "re": 1.0, "im": 0.0}
    rec[field] = field == "re"
    assert cli.main(["decompose", "--file", _state_file(tmp_path, [rec])]) == 2
    assert _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("re, im", [("NaN", "0"), ("1", "NaN"), ("Infinity", "0"),
                                    ("1", "-Infinity")])
@pytest.mark.parametrize("normalize", [False, True])
def test_state_file_with_a_non_finite_amplitude_exits_2(capsys, tmp_path, re, im, normalize):
    # json reads NaN and Infinity as floats; the public StateVector rejects them
    path = tmp_path / "state.json"
    path.write_text(f'[{{"basis_label": "0000", "re": {re}, "im": {im}}}]')
    argv = ["decompose", "--file", str(path)] + (["--normalize"] if normalize else [])
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured.err) and "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("record", [
    {"basis_label": 1000, "re": 1.0, "im": 0.0},        # label must be a string
    {"basis_label": ["1", "0", "0", "0"], "re": 1.0, "im": 0.0},
    {"basis_label": None, "re": 1.0, "im": 0.0},
    {"basis_label": "1000", "re": "1", "im": 0},        # numbers, not strings
    {"basis_label": "1000", "re": 1, "im": "0"},
    {"basis_label": "1000", "re": None, "im": 0},
    {"basis_label": "1000", "re": [1], "im": 0},
])
def test_state_file_rejects_fields_of_the_wrong_json_type(capsys, tmp_path, record):
    assert cli.main(["decompose", "--file", _state_file(tmp_path, [record])]) == 2
    captured = capsys.readouterr()
    assert _one_error_line(captured.err)
    assert captured.out == ""


def test_state_file_takes_json_integers_as_amplitudes(capsys, tmp_path):
    records = [{"basis_label": "1000", "re": 1, "im": 0}]
    rc, doc = run_json(capsys, ["decompose", "--file", _state_file(tmp_path, records),
                                "--json"])
    assert rc == 0 and doc["residual"] < 1e-12


def test_state_file_rejects_an_integer_too_large_for_a_float(capsys, tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('[{"basis_label": "0000", "re": 1' + "0" * 400 + ', "im": 0}]')
    assert cli.main(["decompose", "--file", str(path), "--normalize"]) == 2
    assert _one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize("argv, records, err", [
    (["sweep", "--eta", "0.5,x"], None, "bad --eta list '0.5,x'"),
    (["basis", "--index", "1,x"], None, "--index takes two integers, got '1,x'"),
    (["sweep", "--phi=-1e308:1e308:3"], None, "axis '-1e308:1e308:3' needs finite bounds"),
    (["decompose"], {"basis_label": "0000", "re": 1.0, "im": 0.0},
     "state file must be a JSON list of {basis_label, re, im} records"),
    (["decompose"], [{"basis_label": "0000", "re": 1.0}],
     "every record needs the fields basis_label, re and im"),
    (["decompose", "--normalize"], [{"basis_label": "0000", "re": 0.0, "im": 0.0}],
     "state file describes the zero vector"),
], ids=["eta-list", "index", "axis-span", "file-not-a-list", "record-field", "zero-vector"])
def test_each_input_error_exits_2_with_its_one_line(capsys, tmp_path, argv, records, err):
    if records is not None:
        argv = argv + ["--file", _state_file(tmp_path, records)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_decompose_reads_the_state_simulate_writes(capsys, tmp_path):
    # simulate's JSON wraps the records as {"state": [...]}; decompose unwraps them
    written = tmp_path / "s.json"
    assert cli.main(["simulate", "--outcome", "d2", "--json", "--out", str(written)]) == 0
    rc, wrapped = run_json(capsys, ["decompose", "--file", str(written), "--json"])
    plain = _state_file(tmp_path, json.loads(written.read_text())["state"])
    rc_plain, doc = run_json(capsys, ["decompose", "--file", plain, "--json"])
    assert rc == rc_plain == 0
    assert wrapped["coefficients"] == doc["coefficients"] and wrapped["residual"] < 1e-12


@pytest.mark.parametrize("scale", [1e308, 1.5e-320])
def test_normalize_rescales_extreme_amplitudes(capsys, tmp_path, scale):
    def coefficients(value):
        records = [{"basis_label": label, "re": value, "im": -value}
                   for label in ("0000", "0110", "1111")]
        rc, doc = run_json(capsys, ["decompose", "--file", _state_file(tmp_path, records),
                                    "--normalize", "--json"])
        assert rc == 0
        return [(e["re"], e["im"]) for e in doc["coefficients"]], doc["residual"]

    with warnings.catch_warnings():
        warnings.simplefilter("error")          # an overflow warning fails the test
        got, residual = coefficients(scale)
        want, _ = coefficients(1.0)
    assert residual < 1e-12
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_unnormalized_extreme_amplitudes_name_the_norm(capsys, tmp_path):
    records = [{"basis_label": "0000", "re": 1e308, "im": 1e308}]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["decompose", "--file", _state_file(tmp_path, records)]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err)
    assert "state norm 1.41421356237e+308" in err and "--normalize" in err


# The verification suite loads only for `ges4 verify`: each argv runs in a
# fresh interpreter, which must not have imported ges4.verify afterwards.
_NO_VERIFY_PROBE = """
import sys
from ges4 import cli
code = cli.main(sys.argv[1:])
assert code == 0, code
assert "ges4.verify" not in sys.modules, "ges4.verify was imported"
"""


@pytest.mark.parametrize("argv", [["sweep", "--csv", "--out", "OUT"],
                                  ["simulate", "--phi", "1.1", "--eta", "0.4"]])
def test_sweep_and_simulate_do_not_load_the_verification_suite(tmp_path, argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [str(tmp_path / "out.csv") if a == "OUT" else a for a in argv]
    out = subprocess.run([sys.executable, "-c", _NO_VERIFY_PROBE, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""


# Every eigensolver numpy offers raises from before the import on: importing
# the CLI, the non-verify commands and one library request (prepare, measure,
# decompose) must not need one; the only LAPACK routine they use is the SVD.
_NO_EIGENSOLVER_PROBE = """
import sys
import numpy as np
def refuse(*args, **kwargs):
    raise RuntimeError("eigensolver called")
for name in ("eigh", "eigvalsh", "eig", "eigvals"):
    setattr(np.linalg, name, refuse)
from ges4 import cli
import ges4
codes = [cli.main(argv.split()) for argv in sys.argv[1:]]
state = ges4.prepare_ges(ges4.SchemeParams(phi=np.pi / 2, thetas=(0.3, 0.5, 0.7, 0.9))).state
ges4.measure_report(state)
ges4.decompose(state, ges4.explicit_basis())
sys.exit(max(codes))
"""


def test_import_and_the_non_verify_commands_run_no_eigensolver():
    commands = ["sweep --phi 0:pi:3 --thetas 0:pi/2:5 --csv", "simulate --measures --json",
                "simulate --deterministic --measures", "decompose w4", "basis --verify",
                "basis --compare-generated"]
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", _NO_EIGENSOLVER_PROBE, *commands], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
