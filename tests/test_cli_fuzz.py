"""Fuzz `ges4` end to end: whatever argv or state file it is given, `main`
ends with exit code 0, 1 or 2 and never lets an exception escape.

Runs stay cheap on purpose: sweep axes have at most three points or so many
that the point cap rejects them before any axis is built, only a few
examples run `verify` (about 0.2 s each), and each file an example writes
is unlinked first, so every write creates a new file (on an ext4 disk
mounted with `discard`, rewriting one in place took 50-70 ms).
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ges4 import cli

_WORDS = ["0", "1", "-1", "0.5", "1e-9", "1e308", "-1e308", "1e-320", "nan", "inf",
          "-inf", "pi", "pi/4", "-3pi/8", "pi/0", "2pi", "x", "", ",", "1,0", "4,3",
          "5,0", "0.1,0.2,0.3,0.4", "0.1,0.2", "d1", "d2", "none", "double",
          "ghz4", "w4", "cl4", "d4", "GHZ4", "explicit", "generated",
          "conjugate_bs", "1" + "0" * 400]
_VALUES = st.one_of(st.sampled_from(_WORDS), st.text(max_size=8))


@st.composite
def _axis(draw):
    lo, hi = draw(st.sampled_from(_WORDS)), draw(st.sampled_from(_WORDS))
    count = draw(st.one_of(st.integers(-1, 3), st.sampled_from([10**7, 10**30])))
    return draw(st.sampled_from([lo, f"{lo}:{hi}:{count}", f"{lo}:{hi}", f"{lo}:{hi}:x"]))


_FLAGS = {
    "simulate": {"--phi": _VALUES, "--theta": _VALUES, "--eta": _VALUES,
                 "--outcome": _VALUES, "--deterministic": None, "--measures": None,
                 "--tol": _VALUES},
    "sweep": {"--phi": _axis(), "--thetas": _axis(), "--theta1": _axis(),
              "--theta2": _axis(), "--theta3": _axis(), "--theta4": _axis(),
              "--eta": _VALUES, "--cap": _VALUES},
    "basis": {"--list": None, "--index": _VALUES, "--verify": None,
              "--compare-generated": None, "--tol": _VALUES},
    "decompose": {"--normalize": None, "--basis": _VALUES, "--file": st.just("FILE"),
                  "--tol": _VALUES},
}
_COMMON = {"--json": None, "--csv": None,
           "--out": st.sampled_from(["OUT", "MISSING", "DIR", ""])}

_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True), st.integers(-2, 2),
    st.just(10**400), st.booleans(), st.none(), st.sampled_from(["0.5", "x", ""]),
    st.lists(st.integers(0, 1), max_size=2))
_LABELS = st.one_of(st.text("01", min_size=4, max_size=4), st.text("012", max_size=5),
                    st.integers(0, 1111), st.none())
_RECORD = st.dictionaries(st.sampled_from(["basis_label", "re", "im", "extra"]),
                          st.one_of(_LABELS, _NUMBERS), max_size=4)
_STATE_FILE = st.one_of(
    st.lists(st.fixed_dictionaries({"basis_label": _LABELS, "re": _NUMBERS, "im": _NUMBERS}),
             max_size=6).map(json.dumps),
    st.lists(_RECORD, max_size=4).map(json.dumps),
    st.builds(lambda recs: json.dumps({"state": recs}), st.lists(_RECORD, max_size=3)),
    st.text(max_size=20),
)


# JSON values that are not a string (for basis_label) or not a number (for re, im)
_NOT_A_STRING = st.one_of(st.integers(0, 1111), st.floats(), st.booleans(), st.none(),
                          st.lists(st.sampled_from("01"), min_size=4, max_size=4))
_NOT_A_NUMBER = st.one_of(st.booleans(), st.none(), st.sampled_from(["1", "0.5", "x", ""]),
                          st.lists(st.integers(0, 1), max_size=2))


@st.composite
def _records_with_one_wrong_type(draw):
    """A normalized state file with one field swapped for a value of the wrong type."""
    labels = draw(st.lists(st.text("01", min_size=4, max_size=4), min_size=1,
                           max_size=4, unique=True))
    amp = 1.0 / len(labels) ** 0.5
    records = [{"basis_label": label, "re": amp, "im": 0.0} for label in labels]
    field = draw(st.sampled_from(["basis_label", "re", "im"]))
    wrong = _NOT_A_STRING if field == "basis_label" else _NOT_A_NUMBER
    draw(st.sampled_from(records))[field] = draw(wrong)
    return records


@st.composite
def _argv(draw, command):
    argv = [command]
    if command == "decompose" and draw(st.booleans()):
        argv.append(draw(_VALUES))
    flags = {**_FLAGS.get(command, {}), **_COMMON}
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=5, unique=True)):
        argv.append(flag)
        if flags[flag] is not None:
            argv.append(draw(flags[flag]))
    return argv


def _write_new(path, text):
    path.unlink(missing_ok=True)
    path.write_text(text)


def _run(argv, tmp):
    paths = {"FILE": tmp / "state.json", "OUT": tmp / "out.txt",
             "MISSING": tmp / "missing" / "out.txt", "DIR": tmp}
    paths["OUT"].unlink(missing_ok=True)     # `--out OUT` writes a new file
    argv = [str(paths[a]) if a in paths else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:    # argparse rejects a flag, or --help
            rc = exc.code
    assert rc in (0, 1, 2), (argv, rc, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    return rc


_FUZZ = settings(max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture,
                                        HealthCheck.too_slow])


@_FUZZ
@given(data=st.data(), command=st.sampled_from(["simulate", "sweep", "basis", "decompose"]),
       state_file=_STATE_FILE)
def test_main_ends_with_an_exit_code(tmp_path, data, command, state_file):
    _write_new(tmp_path / "state.json", state_file)
    _run(data.draw(_argv(command)), tmp_path)


@_FUZZ
@given(records=_records_with_one_wrong_type())
def test_state_file_fields_of_the_wrong_type_exit_2(tmp_path, records):
    _write_new(tmp_path / "state.json", json.dumps(records))
    assert _run(["decompose", "--file", "FILE"], tmp_path) == 2


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.sampled_from(["0", "7", "-1", "x", "2" * 30]),
       extra=st.lists(st.sampled_from(["--json", "--csv", "--fault=conjugate_bs",
                                       "--fault=other", "--out=MISSING",
                                       "--discrepancies=MISSING", "--discrepancies=DIR"]),
                      max_size=3, unique=True))
def test_verify_ends_with_an_exit_code(tmp_path, seed, extra):
    argv = ["verify", f"--seed={seed}"]
    for arg in extra:
        flag, _, value = arg.partition("=")
        argv += [flag, value] if value.isupper() else [arg]
    _run(argv, tmp_path)
