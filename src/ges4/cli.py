"""Command-line front end: simulate, sweep, basis, decompose, verify.

Payload -> renderer -> writer: each command builds its result once, as the
data its ``--json`` output shows (undefined entries ``None``); ``verify``'s
payload is its ``VerificationReport``, which ``report_to_json`` serializes.
A renderer per format turns that payload alone into JSON, CSV or text;
``main`` hands the text to ``_write``, the one function that writes to
stdout (or ``--out``).
Diagnostics go to stderr, and ``main`` alone maps errors to exit codes: 0 on
success, 1 when a verification run reports failures or an internal invariant
breaks (``InvariantError``), 2 on usage or input errors, including an output
path that cannot be written. Angles are accepted as decimal radians or as
exact fractions of pi ("pi/4", "3pi/8", "-pi/2"). Re-running a command with
identical flags and seed reproduces its output byte for byte.

``sweep`` evaluates its grid as arrays: one closed-form and one Gamma call
over the distinct angle rows, then, per block of up to 4096 points, one
call of the circuit kernel and one stacked SVD call for the numerical
measures. The first point's states are checked against ``evolve``. Its
CSV formats each point once, with one ``%``-template, and shares the
result between the point's eta rows.

State files are JSON lists of records ``{"basis_label": "0101", "re": x,
"im": y}``; labels are strings of four characters of 0/1, ``re`` and ``im``
are JSON numbers, absent labels mean amplitude zero, and the reconstructed
vector must be normalized within ``--tol`` unless ``--normalize`` is given.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
import warnings
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .hilbert import STRUCT_TOL, InvariantError, StateVector
from .circuit import (
    ATOMIC_SPACE,
    BRANCHES,
    BRANCH_PRIME,
    BRANCH_DOUBLE_PRIME,
    DetectionOutcome,
    SchemeParams,
    _BS_BLOCK,
    _gammas,
    _one_photon_output,
    detect,
    evolve,
    photon_branch,
    prepare_ges,
)
from .measures import (
    FORMULA_CUT,
    FORMULA_PAIR,
    _closed_form_measures,
    _svd_measures,
    measure_report,
)
from .basis import (
    ALL_INDICES,
    GesIndex,
    canonical_state,
    compare_generated,
    decompose,
    explicit_basis,
    generate_basis,
    verify_representation,
)
from .verify import FAULT_MODES, report_to_json, run_all_checks

__all__ = ["main", "parse_angle"]

_ANGLE_RE = re.compile(
    r"^\s*([+-]?)\s*(?:(\d+(?:\.\d+)?)\s*\*?\s*)?pi(?:\s*/\s*(\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)

_CANONICAL_NAMES = ("ghz4", "w4", "cl4", "d4")


class CliInputError(Exception):
    """Malformed flags, input files or output paths; maps to exit code 2."""


def parse_angle(text: str) -> float:
    """Radians from a decimal string or an exact pi fraction like '3pi/8'."""
    try:
        return float(text)
    except ValueError:
        pass
    m = _ANGLE_RE.match(text)
    if not m:
        raise CliInputError(
            f"invalid angle {text!r}; use radians or forms like 'pi/4', '3pi/8'"
        )
    sign = -1.0 if m.group(1) == "-" else 1.0
    coef = float(m.group(2)) if m.group(2) else 1.0
    den = float(m.group(3)) if m.group(3) else 1.0
    if den == 0.0:
        raise CliInputError(f"invalid angle {text!r}: zero denominator")
    return sign * coef * math.pi / den


def parse_thetas(text: str):
    """One angle (applied to all four qubits) or four comma-separated angles."""
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) == 1:
        return parse_angle(parts[0])
    if len(parts) == 4:
        return tuple(parse_angle(p) for p in parts)
    raise CliInputError(f"--theta takes one angle or four, got {len(parts)}")


def _axis_spec(text: str) -> tuple:
    """(start, stop, count) of a grid axis; a single value has stop None."""
    parts = text.split(":")
    if len(parts) == 1:
        return parse_angle(parts[0]), None, 1
    if len(parts) == 3:
        start, stop = parse_angle(parts[0]), parse_angle(parts[1])
        try:
            count = int(parts[2])
        except ValueError:
            raise CliInputError(f"axis count {parts[2]!r} is not an integer")
        if count < 1:
            raise CliInputError("axis count must be >= 1")
        if not math.isfinite(stop - start):
            raise CliInputError(f"axis {text!r} needs finite bounds")
        return start, stop, count
    raise CliInputError(f"axis {text!r} must be 'value' or 'start:stop:count'")


def _axis_values(spec: tuple) -> list:
    start, stop, count = spec
    if stop is None:
        return [start]
    return [float(x) for x in np.linspace(start, stop, count)]


def _tolerance(text: str) -> float:
    """--tol: a finite number >= 0 (NaN would silently drop every amplitude)."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


# --------------------------------------------------------------------------
# formats and the one writer


def _fmt(x) -> str:
    """CSV float format: 17 significant digits, '.' separator, 'nan' for NaN or None."""
    if x is None or x != x:
        return "nan"
    return format(float(x), ".17g")


def _jsonable(x: float):
    """NaN is not valid JSON; represent undefined table entries as null."""
    return None if x != x else float(x)


def _csv_text(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _text(lines: list) -> str:
    return "\n".join(lines) + "\n"


def _write(text: str, path: Optional[str]) -> None:
    """The one place output leaves the program: the file at `path`, or stdout."""
    try:
        if path:
            Path(path).write_text(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        raise CliInputError(f"cannot write {path or 'stdout'}: {exc.strerror or exc}")


class Output(NamedTuple):
    """A command's payload, a renderer per format, its exit code, and
    (path, payload) pairs written as JSON after it (verify's discrepancy log)."""

    payload: object
    text: Callable[[object], str]
    csv: Callable[[object], str]
    json: Callable[[object], str] = _json_text
    code: int = 0
    side_files: tuple = ()


def _state_records(state: StateVector, tol: float) -> list:
    records = []
    for i in range(state.space.dim):
        a = state.amp[i]
        if abs(a) > tol:
            records.append({
                "basis_label": state.space.basis_label(i),
                "re": float(a.real),
                "im": float(a.imag),
            })
    return records


def _record_lines(records: list) -> list:
    return [f"  |{r['basis_label']}>  {r['re']:+.12f}  {r['im']:+.12f}" for r in records]


def read_state_file(path: str, normalize: bool, tol: float) -> StateVector:
    """Load a StateFile JSON document into a normalized four-qubit state."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CliInputError(f"cannot read state file {path}: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliInputError(f"state file {path} is not valid JSON: {exc}")
    if isinstance(data, dict) and "state" in data:
        data = data["state"]
    if not isinstance(data, list):
        raise CliInputError(
            "state file must be a JSON list of {basis_label, re, im} records"
        )
    amp = np.zeros(ATOMIC_SPACE.dim, dtype=complex)
    seen = set()
    for rec in data:
        if not isinstance(rec, dict) or not {"basis_label", "re", "im"} <= set(rec):
            raise CliInputError(
                "every record needs the fields basis_label, re and im"
            )
        label = rec["basis_label"]
        if (not isinstance(label, str) or len(label) != 4
                or any(c not in "01" for c in label)):
            raise CliInputError(f"bad basis label {label!r}; need a string of 4 chars of 0/1")
        if label in seen:
            raise CliInputError(f"duplicate basis label {label!r}")
        seen.add(label)
        parts = (rec["re"], rec["im"])
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in parts):
            raise CliInputError(f"non-numeric amplitude at label {label!r}: "
                                f"re and im must be JSON numbers")
        try:
            value = float(parts[0]) + 1j * float(parts[1])
        except OverflowError as exc:
            raise CliInputError(f"amplitude out of range at label {label!r}: {exc}")
        amp[ATOMIC_SPACE.index_of([int(c) for c in label])] = value
    state = StateVector(ATOMIC_SPACE, amp)
    # Dividing the real and imaginary parts by a power of two is exact, and keeps
    # amplitudes near either end of the float range from over- or underflowing the norm.
    parts = state.amp.view(float)
    scale = math.ldexp(1.0, math.frexp(float(np.max(np.abs(parts))))[1] - 1)
    scaled = StateVector(ATOMIC_SPACE, (parts / scale).view(complex))
    norm = scaled.norm * scale
    if abs(norm - 1.0) > tol:
        if not normalize:
            raise CliInputError(f"state norm {norm:.12g} differs from 1 by more than "
                                f"{tol:g}; pass --normalize to rescale")
        if norm == 0.0:
            raise CliInputError("state file describes the zero vector")
    if norm > 0.0 and abs(norm * norm - 1.0) > STRUCT_TOL:
        return scaled.normalized()
    return state


# --------------------------------------------------------------------------
# simulate


def _outcome_entry(state, prob: float, want_measures: bool, tol: float) -> dict:
    entry = {"probability": float(prob),
             "state": _state_records(state, tol) if state is not None else None}
    if want_measures and state is not None:
        entry["measures"] = measure_report(state).as_dict()
    return entry


def cmd_simulate(args) -> Output:
    params = SchemeParams(phi=parse_angle(args.phi), thetas=parse_thetas(args.theta),
                          eta=args.eta)
    psi = evolve(params)
    payload = {
        "phi": params.phi,
        "thetas": list(params.thetas),
        "eta": params.eta,
        "branch_probability": {BRANCH_PRIME: float(photon_branch(psi, 0, 1).norm ** 2),
                               BRANCH_DOUBLE_PRIME: float(photon_branch(psi, 1, 0).norm ** 2)},
    }
    outcome = DetectionOutcome(args.outcome) if args.outcome else None
    if args.deterministic:
        # an off-operating-point warning becomes one diagnostic line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prepared = prepare_ges(params, outcome=outcome)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        payload["mode"] = "deterministic"
        payload["conditioned_on"] = prepared.outcome.value
        payload.update(_outcome_entry(prepared.state, prepared.probability,
                                      args.measures, args.tol))
    elif outcome is not None:
        payload["outcome"] = outcome.value
        payload.update(_outcome_entry(*detect(psi, outcome, params.eta),
                                      args.measures, args.tol))
    else:
        payload["outcomes"] = {
            o.value: _outcome_entry(*detect(psi, o, params.eta), args.measures, args.tol)
            for o in DetectionOutcome}
    return Output(payload, _simulate_text, _simulate_csv)


def _simulate_entries(payload) -> dict:
    """Outcome name -> entry ({probability, state[, measures]}), in output order."""
    if "outcomes" in payload:
        return payload["outcomes"]
    return {payload.get("conditioned_on", payload.get("outcome")): payload}


def _measures_lines(m: dict, indent: str) -> list:
    lines = [f"{indent}pairwise concurrence:"]
    lines += [f"{indent}  {pair}: {c:.12f}" for pair, c in m["pairwise_concurrence"].items()]
    lines.append(f"{indent}bipartition entropy:")
    lines += [f"{indent}  {cut}: {s:.12f}" for cut, s in m["pair_entropy"].items()]
    lines += [f"{indent}  {q}|rest: {s:.12f}" for q, s in m["single_entropy"].items()]
    lines.append(f"{indent}genuine: {'yes' if m['is_genuine'] else 'no'}")
    return lines


def _simulate_text(payload) -> str:
    prob = payload["branch_probability"]
    lines = [
        f"phi = {payload['phi']:.12f}, theta = ("
        + ", ".join(f"{t:.12f}" for t in payload["thetas"]) + f"), eta = {payload['eta']:g}",
        f"branch probabilities: prime = {prob[BRANCH_PRIME]:.12f}, "
        f"double_prime = {prob[BRANCH_DOUBLE_PRIME]:.12f}",
    ]
    title = ("deterministic preparation, conditioned on" if "conditioned_on" in payload
             else "outcome")
    # one outcome gets a "state:" heading; a list of them is indented further
    nested = "outcomes" in payload
    for name, entry in _simulate_entries(payload).items():
        lines.append(f"{title} {name}: probability {entry['probability']:.12f}")
        if entry["state"] is None:
            lines.append("  (no pure conditional state)")
            continue
        lines += ([] if nested else ["state:"]) + _record_lines(entry["state"])
        if "measures" in entry:
            lines += _measures_lines(entry["measures"], "    " if nested else "  ")
    return _text(lines)


def _simulate_csv(payload) -> str:
    rows = [["phi", _fmt(payload["phi"]), ""]]
    rows += [[f"theta{i}", _fmt(t), ""] for i, t in enumerate(payload["thetas"], start=1)]
    rows.append(["eta", _fmt(payload["eta"]), ""])
    rows += [[f"branch_probability_{branch}", _fmt(payload["branch_probability"][branch]), ""]
             for branch in BRANCHES]
    for name, entry in _simulate_entries(payload).items():
        rows.append([f"probability_{name}", _fmt(entry["probability"]), ""])
        rows += [[f"amplitude_{name}:{r['basis_label']}", _fmt(r["re"]), _fmt(r["im"])]
                 for r in entry["state"] or ()]
    return _csv_text(["field", "value_re", "value_im"], rows)


# --------------------------------------------------------------------------
# sweep

_SWEEP_COLUMNS = (
    ["phi", "theta1", "theta2", "theta3", "theta4", "eta",
     "gamma1", "gamma2", "success_probability"]
    + [f"{q}_{b}" for b in BRANCHES
       for q in ("conc_closed", "conc_numeric", "conc_absdiff",
                 "entropy_closed", "entropy_numeric", "entropy_absdiff")]
)


# Grid points per kernel call; bounds the arrays a sweep holds besides its table.
_SWEEP_BLOCK = 4096


def _sweep_cells(point, eta) -> list:
    """A sweep row from a point's 19 cells (phi, theta1..4, gamma1, gamma2 and
    the twelve branch cells): eta goes after theta4 and again as the success
    probability."""
    return [*point[:5], eta, *point[5:7], eta, *point[7:]]


# The CSV formats each point once into a row with its two eta cells left
# open: "%%s" formats to "%s", and no number contains "%".
_SWEEP_ROW = ",".join(_sweep_cells(["%.17g"] * 19, "%%s")) + "\n"


def _sweep_points(payload):
    """The payload's points as lists of floats, converted a block at a time."""
    points = payload["points"]
    for start in range(0, len(points), _SWEEP_BLOCK):
        yield from points[start:start + _SWEEP_BLOCK].tolist()


def _sweep_csv(payload) -> str:
    etas = [("%.17g" % eta,) * 2 for eta in payload["etas"]]
    lines = [",".join(_SWEEP_COLUMNS) + "\n"]
    for point in _sweep_points(payload):
        row = _SWEEP_ROW % tuple(point)
        lines += [row % eta for eta in etas]
    return "".join(lines)


def _sweep_json(payload) -> str:
    etas = [_jsonable(eta) for eta in payload["etas"]]
    rows = []
    for point in _sweep_points(payload):
        cells = [_jsonable(v) for v in point]
        rows += [dict(zip(_SWEEP_COLUMNS, _sweep_cells(cells, eta))) for eta in etas]
    return _json_text({"columns": _SWEEP_COLUMNS, "rows": rows})


def _check_first_point(phi: float, thetas, branches: np.ndarray) -> None:
    """The sweep's branch amplitudes at its first grid point must be the ones
    `evolve` returns there, branch order and phi reduction included."""
    psi = evolve(SchemeParams(phi=phi, thetas=tuple(thetas))).amp
    want = psi.reshape(4, ATOMIC_SPACE.dim)[1:3]     # rows |01>, |10>
    if not np.max(np.abs(branches - want)) <= STRUCT_TOL:
        raise InvariantError("sweep states differ from evolve at the first grid point")


def cmd_sweep(args) -> Output:
    phi_spec = _axis_spec(args.phi)
    axes = [getattr(args, f"theta{i}") for i in (1, 2, 3, 4)]
    locked = args.thetas is not None
    if locked:
        if any(axis is not None for axis in axes):
            raise CliInputError("--thetas (lock-equal) conflicts with --theta1..4")
        theta_specs = [_axis_spec(args.thetas)]
    else:
        theta_specs = [_axis_spec("pi/4" if axis is None else axis) for axis in axes]
    try:
        etas = [float(x) for x in args.eta.split(",") if x.strip()]
    except ValueError:
        raise CliInputError(f"bad --eta list {args.eta!r}")
    if not etas or any(not 0.0 <= e <= 1.0 for e in etas):
        raise CliInputError("--eta values must lie in [0, 1]")

    # The cap is checked on the axis counts, before any axis is built.
    total = math.prod(count for _, _, count in (phi_spec, *theta_specs)) * len(etas)
    if total > args.cap:
        raise CliInputError(f"grid has {total} points, exceeding the cap "
                            f"{args.cap}; raise --cap to proceed")

    phi_axis = np.array(_axis_values(phi_spec))
    theta_axes = [_axis_values(spec) for spec in theta_specs]
    # theta1 varies slowest and theta4 fastest; locked rows repeat one angle.
    theta_rows = (np.repeat(np.array(theta_axes[0])[:, None], 4, axis=1) if locked
                  else np.stack(np.meshgrid(*theta_axes, indexing="ij"), axis=-1).reshape(-1, 4))
    # SchemeParams checks each point and reduces its phi mod 2 pi. A
    # non-finite angle can only come from a single-value axis, which every
    # theta row shares, so checking the first row checks them all.
    phis = np.array([SchemeParams(phi=phi, thetas=theta_rows[0]).phi for phi in phi_axis])

    # Gamma and the closed forms depend on the angles alone: one call each
    # over the theta rows.
    gammas = _gammas(theta_rows)
    c_closed, s_closed = _closed_form_measures(theta_rows)

    # Points run phi-major, through the circuit kernel and one stacked SVD
    # call a block at a time; a branch without population has no numeric measures.
    n_theta = len(theta_rows)
    points = np.empty((len(phis) * n_theta, 19))
    for start in range(0, len(points), _SWEEP_BLOCK):
        at_phi, rows = np.divmod(np.arange(start, min(start + _SWEEP_BLOCK, len(points))),
                                 n_theta)
        thetas = theta_rows[rows]
        amps = _one_photon_output(phis[at_phi], thetas, _BS_BLOCK)
        if start == 0:
            _check_first_point(phi_axis[0], theta_rows[0], amps[0])
        norms = np.linalg.norm(amps, axis=-1)
        live = norms ** 2 >= 1e-12
        states = amps / np.where(live, norms, 1.0)[..., None]
        conc, ent = _svd_measures(states, (FORMULA_PAIR,), (FORMULA_CUT.side_a,))
        c_num = np.where(live, conc[..., 0], np.nan)
        s_num = np.where(live, ent[..., 0], np.nan)
        c_cl, s_cl = c_closed[rows], s_closed[rows]
        branch_cells = np.stack([c_cl, c_num, np.abs(c_cl - c_num),
                                 s_cl, s_num, np.abs(s_cl - s_num)], axis=-1)
        points[start:start + len(rows)] = np.column_stack(
            [phi_axis[at_phi], thetas, gammas[rows], branch_cells.reshape(len(rows), -1)])
    return Output({"etas": etas, "points": points}, _sweep_csv, _sweep_csv, _sweep_json)


# --------------------------------------------------------------------------
# basis


def _parse_index(text: str) -> GesIndex:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliInputError(f"--index takes 'family,component', got {text!r}")
    try:
        family, component = int(parts[0]), int(parts[1])
    except ValueError:
        raise CliInputError(f"--index takes two integers, got {text!r}")
    try:
        return GesIndex(family, component)
    except ValueError as exc:
        raise CliInputError(str(exc))


def cmd_basis(args) -> Output:
    if args.index is not None and (args.verify or args.compare_generated):
        raise CliInputError("--index restricts --list; it does not combine with "
                            "--verify or --compare-generated")
    if args.compare_generated:
        payload = [{"index": r["index"], "overlap_magnitude": r["overlap_magnitude"],
                    "phase_re": float(r["phase"].real), "phase_im": float(r["phase"].imag),
                    "matches_up_to_phase": r["matches_up_to_phase"],
                    "max_dev_after_alignment": _jsonable(r["max_dev_after_alignment"])}
                   for r in compare_generated()]
        return Output(payload, _compare_text, _compare_csv)

    basis = explicit_basis()
    if args.verify:
        rep = verify_representation(basis)
        payload = {
            "max_orthonormality_dev": rep.max_orthonormality_dev,
            "max_completeness_dev": rep.max_completeness_dev,
            "all_genuine": rep.all_genuine,
            "states": {idx.label: rep.state_reports[idx].as_dict() for idx in ALL_INDICES},
        }
        return Output(payload, _basis_verify_text, _basis_verify_csv, code=0 if rep.healthy else 1)

    indices = [_parse_index(args.index)] if args.index is not None else list(ALL_INDICES)
    payload = {"states": [{"index": idx.label,
                           "amplitudes": _state_records(basis.states[idx], args.tol)}
                          for idx in indices]}
    return Output(payload, _basis_list_text, _basis_list_csv)


def _compare_text(payload) -> str:
    lines = []
    for r in payload:
        dev = r["max_dev_after_alignment"]
        lines.append(f"{r['index']}: overlap {r['overlap_magnitude']:.12f}, "
                     f"phase {r['phase_re']:+.6f}{r['phase_im']:+.6f}j, "
                     f"match={'yes' if r['matches_up_to_phase'] else 'no'}, "
                     f"dev {math.nan if dev is None else dev:.3e}")
    return _text(lines)


def _compare_csv(payload) -> str:
    columns = ["index", "overlap_magnitude", "phase_re", "phase_im",
               "matches_up_to_phase", "max_dev_after_alignment"]
    return _csv_text(columns, [
        [r["index"], _fmt(r["overlap_magnitude"]), _fmt(r["phase_re"]), _fmt(r["phase_im"]),
         str(r["matches_up_to_phase"]).lower(), _fmt(r["max_dev_after_alignment"])]
        for r in payload])


def _basis_verify_text(payload) -> str:
    n = sum(s["is_genuine"] for s in payload["states"].values())
    return _text([
        f"max orthonormality deviation: {payload['max_orthonormality_dev']:.3e}",
        f"max completeness deviation:   {payload['max_completeness_dev']:.3e}",
        f"genuine states: {n}/16",
        f"all genuine: {'yes' if payload['all_genuine'] else 'no'}",
    ])


def _basis_verify_csv(payload) -> str:
    rows = [["max_orthonormality_dev", _fmt(payload["max_orthonormality_dev"])],
            ["max_completeness_dev", _fmt(payload["max_completeness_dev"])],
            ["all_genuine", str(payload["all_genuine"]).lower()]]
    rows += [[f"genuine_{label}", str(s["is_genuine"]).lower()]
             for label, s in payload["states"].items()]
    return _csv_text(["field", "value"], rows)


def _basis_list_text(payload) -> str:
    lines = []
    for entry in payload["states"]:
        lines += [f"{entry['index']}:", *_record_lines(entry["amplitudes"])]
    return _text(lines)


def _basis_list_csv(payload) -> str:
    return _csv_text(["index", "basis_label", "re", "im"], [
        [entry["index"], r["basis_label"], _fmt(r["re"]), _fmt(r["im"])]
        for entry in payload["states"] for r in entry["amplitudes"]])


# --------------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> Output:
    if (args.state is None) == (args.file is None):
        raise CliInputError("give exactly one input: a state name "
                            f"({'/'.join(_CANONICAL_NAMES)}) or --file")
    if args.state is not None:
        name = args.state.lower()
        if name not in _CANONICAL_NAMES:
            raise CliInputError(f"unknown state {args.state!r}; expected one of "
                                f"{'/'.join(_CANONICAL_NAMES)} (or use --file)")
        state = canonical_state(name)
        source = name
    else:
        state = read_state_file(args.file, args.normalize, args.tol)
        source = args.file

    basis = generate_basis() if args.basis == "generated" else explicit_basis()
    dec = decompose(state, basis)
    coefficients = [{"family": idx.family, "component": idx.component, "label": idx.label,
                     "re": float(c.real), "im": float(c.imag), "abs2": float(abs(c) ** 2)}
                    for idx in ALL_INDICES for c in (dec.coefficients[idx],)]
    payload = {"input": source, "basis": args.basis,
               "coefficients": coefficients, "residual": dec.residual}
    return Output(payload, _decompose_text, _decompose_csv)


def _decompose_text(payload) -> str:
    lines = [f"decomposition of {payload['input']} over the {payload['basis']} basis:"]
    lines += [f"  {e['label']}  {e['re']:+.12f}  {e['im']:+.12f}  |c|^2 = {e['abs2']:.12f}"
              for e in payload["coefficients"]]
    lines.append(f"  residual = {payload['residual']:.3e}")
    return _text(lines)


def _decompose_csv(payload) -> str:
    rows = [[str(e["family"]), str(e["component"]), e["label"],
             _fmt(e["re"]), _fmt(e["im"]), _fmt(e["abs2"])]
            for e in payload["coefficients"]]
    residual = payload["residual"]
    rows.append(["", "", "residual", _fmt(residual), _fmt(0.0), _fmt(residual ** 2)])
    return _csv_text(["family", "component", "label", "re", "im", "abs2"], rows)


# --------------------------------------------------------------------------
# verify


def cmd_verify(args) -> Output:
    report = run_all_checks(seed=args.seed, fault=args.fault)
    log = ((args.discrepancies, report.discrepancy_log),) if args.discrepancies else ()
    return Output(report, _verify_text, _verify_csv, _verify_json,
                  code=0 if report.all_passed else 1, side_files=log)


def _verify_text(report) -> str:
    return _text(report.lines() + ["discrepancy log:"]) + _json_text(report.discrepancy_log)


def _verify_csv(report) -> str:
    return _csv_text(["name", "passed", "measured", "detail"], [
        [c.name, str(c.passed).lower(), _fmt(c.measured), c.detail] for c in report.checks])


def _verify_json(report) -> str:
    return report_to_json(report) + "\n"


# --------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    common = argparse.ArgumentParser(add_help=False)
    fmt_group = common.add_mutually_exclusive_group()
    fmt_group.add_argument("--json", action="store_true",
                           help="emit structured JSON")
    fmt_group.add_argument("--csv", action="store_true",
                           help="emit CSV (17 significant digits)")
    common.add_argument("--out", metavar="PATH",
                        help="write output to a file instead of stdout")
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=_tolerance, default=1e-9,
                     help="display/validation tolerance, finite and >= 0 (default 1e-9)")

    parser = argparse.ArgumentParser(
        prog="ges4",
        description="Simulate and analyze the four-qubit entangling "
                    "interferometer protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common, tol],
                           help="run the circuit and condition on a detector outcome")
    p_sim.add_argument("--phi", default="pi/2",
                       help="interaction phase (default pi/2)")
    p_sim.add_argument("--theta", default="pi/4",
                       help="one angle for all qubits or four comma-separated "
                            "(default pi/4)")
    p_sim.add_argument("--eta", type=float, default=1.0,
                       help="detector efficiency in [0, 1] (default 1)")
    p_sim.add_argument("--outcome", choices=[o.value for o in DetectionOutcome],
                       help="condition on one detector outcome")
    p_sim.add_argument("--deterministic", action="store_true",
                       help="apply the sigma-y correction on the d1 branch so "
                            "either click yields the same state")
    p_sim.add_argument("--measures", action="store_true",
                       help="include concurrence/entropy tables for pure "
                            "conditional states")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="tabulate closed-form vs numerical measures "
                                  "over a parameter grid (CSV by default)")
    p_sweep.add_argument("--phi", default="pi/2",
                         help="phi axis: value or start:stop:count (default pi/2)")
    p_sweep.add_argument("--thetas", default=None,
                         help="lock-equal theta axis driving all four qubits")
    for i in (1, 2, 3, 4):
        p_sweep.add_argument(f"--theta{i}", default=None,
                             help=f"theta_{i} axis (default pi/4)")
    p_sweep.add_argument("--eta", default="1",
                         help="comma-separated efficiencies (default 1)")
    p_sweep.add_argument("--cap", type=int, default=10**6,
                         help="maximum number of grid points (default 1e6)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_basis = sub.add_parser("basis", parents=[common, tol],
                             help="list, verify, or cross-check the "
                                  "sixteen-state entangled basis")
    mode = p_basis.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true",
                      help="print basis state amplitude tables (default)")
    p_basis.add_argument("--index", metavar="F,C",
                         help="restrict --list to one index, e.g. 1,0")
    mode.add_argument("--verify", action="store_true",
                      help="check orthonormality, completeness and "
                           "genuineness; exit 1 on failure")
    mode.add_argument("--compare-generated", action="store_true",
                      help="compare Pauli-string-generated states with the "
                           "explicit tables")
    p_basis.set_defaults(func=cmd_basis)

    p_dec = sub.add_parser("decompose", parents=[common, tol],
                           help="expand a state over the sixteen-state basis")
    p_dec.add_argument("state", nargs="?",
                       help=f"named state: {'/'.join(_CANONICAL_NAMES)}")
    p_dec.add_argument("--file", metavar="PATH",
                       help="read the state from a StateFile JSON document")
    p_dec.add_argument("--normalize", action="store_true",
                       help="rescale a state file whose norm is off")
    p_dec.add_argument("--basis", choices=["explicit", "generated"],
                       default="explicit", help="which basis to use")
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = sub.add_parser("verify", parents=[common],
                           help="run the full self-check suite; exit 0 iff "
                                "all checks pass")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for pseudo-random sampling (default 0)")
    p_ver.add_argument("--fault", choices=list(FAULT_MODES), default=None,
                       help="inject a known defect (negative control; the "
                            "suite must then fail)")
    p_ver.add_argument("--discrepancies", metavar="PATH",
                       help="also write the discrepancy log to a JSON file")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = args.func(args)
        render = out.json if args.json else out.csv if args.csv else out.text
        _write(render(out.payload), args.out)
        for path, payload in out.side_files:
            _write(_json_text(payload), path)
        return out.code
    except (CliInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
