"""Command-line front end: simulate, sweep, basis, decompose, verify.

Data goes to stdout (or ``--out``); diagnostics go to stderr.  Exit codes:
0 on success, 1 when a verification run reports failures or an internal
invariant breaks (``InvariantError``), 2 on usage or input errors.  Angles
are accepted as decimal radians or as exact fractions of pi ("pi/4",
"3pi/8", "-pi/2").  All structured output is deterministic:
re-running a command with identical flags and seed reproduces it byte for
byte.

State files are JSON lists of records ``{"basis_label": "0101", "re": x,
"im": y}``; labels are four characters of 0/1, absent labels mean amplitude
zero, and the reconstructed vector must be normalized within ``--tol``
unless ``--normalize`` is given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .hilbert import InvariantError, StateVector
from .circuit import (
    ATOMIC_SPACE,
    BRANCHES,
    BRANCH_PRIME,
    BRANCH_DOUBLE_PRIME,
    DetectionOutcome,
    SchemeParams,
    _branch_slice,
    detect,
    evolve,
    gamma_factors,
    photon_branch,
    prepare_ges,
)
from .measures import (
    FORMULA_CUT,
    FORMULA_PAIR,
    DegenerateBranchError,
    _cut_entropy,
    _pair_concurrence,
    _qubits,
    concurrence_closed_form,
    entropy_closed_form,
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
    """Malformed flags or input files; maps to exit code 2."""


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


def parse_axis(text: str) -> list:
    """Grid axis: a single value or 'start:stop:count' (angles allowed)."""
    parts = text.split(":")
    if len(parts) == 1:
        return [parse_angle(parts[0])]
    if len(parts) == 3:
        start, stop = parse_angle(parts[0]), parse_angle(parts[1])
        try:
            count = int(parts[2])
        except ValueError:
            raise CliInputError(f"axis count {parts[2]!r} is not an integer")
        if count < 1:
            raise CliInputError("axis count must be >= 1")
        return [float(x) for x in np.linspace(start, stop, count)]
    raise CliInputError(f"axis {text!r} must be 'value' or 'start:stop:count'")


def _fmt(x: float) -> str:
    """CSV float format: 17 significant digits, '.' separator, 'nan' for NaN."""
    if x != x:
        return "nan"
    return format(float(x), ".17g")


def _jsonable(x: float):
    """NaN is not valid JSON; represent undefined table entries as null."""
    return None if x != x else float(x)


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


def _state_lines(state: StateVector, tol: float, indent: str = "  ") -> list:
    lines = []
    for rec in _state_records(state, tol):
        lines.append(f"{indent}|{rec['basis_label']}>  "
                     f"{rec['re']:+.12f}  {rec['im']:+.12f}")
    return lines


def _measures_lines(state: StateVector, indent: str = "  ") -> list:
    rep = measure_report(state)
    lines = [f"{indent}pairwise concurrence:"]
    for pair, c in rep.pairwise_concurrence.items():
        lines.append(f"{indent}  {''.join(pair)}: {c:.12f}")
    lines.append(f"{indent}bipartition entropy:")
    for cut, s in rep.pair_entropy.items():
        lines.append(f"{indent}  {cut}: {s:.12f}")
    for qubit, s in rep.single_entropy.items():
        lines.append(f"{indent}  {qubit}|rest: {s:.12f}")
    lines.append(f"{indent}genuine: {'yes' if rep.is_genuine else 'no'}")
    return lines


def read_state_file(path: str, normalize: bool, tol: float) -> StateVector:
    """Load a StateFile JSON document into a normalized four-qubit state."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CliInputError(f"cannot read state file {path}: {exc}")
    except json.JSONDecodeError as exc:
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
        label = str(rec["basis_label"])
        if len(label) != 4 or any(c not in "01" for c in label):
            raise CliInputError(f"bad basis label {label!r}; need 4 chars of 0/1")
        if label in seen:
            raise CliInputError(f"duplicate basis label {label!r}")
        seen.add(label)
        try:
            value = float(rec["re"]) + 1j * float(rec["im"])
        except (TypeError, ValueError):
            raise CliInputError(f"non-numeric amplitude at label {label!r}")
        amp[ATOMIC_SPACE.index_of([int(c) for c in label])] = value
    state = StateVector(ATOMIC_SPACE, amp)
    if abs(state.norm - 1.0) > tol:
        if not normalize:
            raise CliInputError(
                f"state norm {state.norm:.12g} differs from 1 by more than "
                f"{tol:g}; pass --normalize to rescale"
            )
        if state.norm == 0.0:
            raise CliInputError("state file describes the zero vector")
    if state.norm > 0.0 and not state.is_normalized:
        state = state.normalized()
    return state


def _emit(text: str, args) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# --------------------------------------------------------------------------
# simulate


def _outcome_entry(state, prob: float, want_measures: bool, tol: float) -> dict:
    entry = {"probability": float(prob),
             "state": _state_records(state, tol) if state is not None else None}
    if want_measures and state is not None:
        entry["measures"] = measure_report(state).as_dict()
    return entry


def cmd_simulate(args) -> int:
    phi = parse_angle(args.phi)
    thetas = parse_thetas(args.theta)
    params = SchemeParams(phi=phi, thetas=thetas, eta=args.eta)
    psi = evolve(params)
    p_prime = photon_branch(psi, 0, 1).norm ** 2
    p_dprime = photon_branch(psi, 1, 0).norm ** 2

    payload = {
        "phi": params.phi,
        "thetas": list(params.thetas),
        "eta": params.eta,
        "branch_probability": {BRANCH_PRIME: float(p_prime),
                               BRANCH_DOUBLE_PRIME: float(p_dprime)},
    }

    if args.deterministic:
        outcome = (DetectionOutcome.from_string(args.outcome)
                   if args.outcome else None)
        prepared = prepare_ges(params, outcome=outcome)
        payload["mode"] = "deterministic"
        payload["conditioned_on"] = prepared.outcome.value
        payload["probability"] = prepared.probability
        payload["state"] = _state_records(prepared.state, args.tol)
        if args.measures:
            payload["measures"] = measure_report(prepared.state).as_dict()
    elif args.outcome:
        outcome = DetectionOutcome.from_string(args.outcome)
        state, prob = detect(psi, outcome, params.eta)
        payload["outcome"] = outcome.value
        payload.update(_outcome_entry(state, prob, args.measures, args.tol))
    else:
        payload["outcomes"] = {}
        post_states = {}
        for outcome in DetectionOutcome:
            state, prob = detect(psi, outcome, params.eta)
            post_states[outcome] = state
            payload["outcomes"][outcome.value] = _outcome_entry(
                state, prob, args.measures, args.tol)

    if args.json:
        _emit(_json_text(payload), args)
        return 0
    if args.csv:
        rows = [["phi", _fmt(params.phi), ""]]
        for i, t in enumerate(params.thetas, start=1):
            rows.append([f"theta{i}", _fmt(t), ""])
        rows.append(["eta", _fmt(params.eta), ""])
        for branch in BRANCHES:
            rows.append([f"branch_probability_{branch}",
                         _fmt(payload["branch_probability"][branch]), ""])

        def state_rows(prefix, records):
            return [[f"{prefix}:{r['basis_label']}", _fmt(r["re"]), _fmt(r["im"])]
                    for r in records]

        if "outcomes" in payload:
            for name, entry in payload["outcomes"].items():
                rows.append([f"probability_{name}", _fmt(entry["probability"]), ""])
                if entry["state"] is not None:
                    rows.extend(state_rows(f"amplitude_{name}", entry["state"]))
        else:
            key = payload.get("conditioned_on", payload.get("outcome"))
            rows.append([f"probability_{key}", _fmt(payload["probability"]), ""])
            if payload.get("state"):
                rows.extend(state_rows(f"amplitude_{key}", payload["state"]))
        _emit(_csv_text(["field", "value_re", "value_im"], rows), args)
        return 0

    lines = [
        f"phi = {params.phi:.12f}, theta = "
        + "(" + ", ".join(f"{t:.12f}" for t in params.thetas) + f"), eta = {params.eta:g}",
        f"branch probabilities: prime = {p_prime:.12f}, "
        f"double_prime = {p_dprime:.12f}",
    ]
    if args.deterministic:
        lines.append(f"deterministic preparation, conditioned on "
                     f"{payload['conditioned_on']}: probability "
                     f"{payload['probability']:.12f}")
        lines.append("state:")
        lines.extend(_state_lines(prepared.state, args.tol))
        if args.measures:
            lines.extend(_measures_lines(prepared.state))
    elif args.outcome:
        lines.append(f"outcome {payload['outcome']}: probability "
                     f"{payload['probability']:.12f}")
        if state is None:
            lines.append("  (no pure conditional state)")
        else:
            lines.append("state:")
            lines.extend(_state_lines(state, args.tol))
            if args.measures:
                lines.extend(_measures_lines(state))
    else:
        for outcome in DetectionOutcome:
            entry = payload["outcomes"][outcome.value]
            lines.append(f"outcome {outcome.value}: probability "
                         f"{entry['probability']:.12f}")
            state = post_states[outcome]
            if state is None:
                lines.append("  (no pure conditional state)")
            else:
                lines.extend(_state_lines(state, args.tol))
                if args.measures:
                    lines.extend(_measures_lines(state, indent="    "))
    _emit("\n".join(lines) + "\n", args)
    return 0


# --------------------------------------------------------------------------
# sweep

_SWEEP_COLUMNS = (
    ["phi", "theta1", "theta2", "theta3", "theta4", "eta",
     "gamma1", "gamma2", "success_probability"]
    + [f"{q}_{b}" for b in BRANCHES
       for q in ("conc_closed", "conc_numeric", "conc_absdiff",
                 "entropy_closed", "entropy_numeric", "entropy_absdiff")]
)


# Amplitude slices of the two branches in a full-space state, in BRANCHES order.
_BRANCH_SLICES = (_branch_slice(0, 1), _branch_slice(1, 0))
_FORMULA_PAIR_QUBITS = _qubits(FORMULA_PAIR)
_FORMULA_CUT_QUBITS = _qubits(FORMULA_CUT.side_a)


def _closed_forms(thetas, branch: str) -> tuple:
    """(closed C, closed S) of one branch; NaN where the branch is degenerate."""
    try:
        return (concurrence_closed_form(thetas, branch),
                entropy_closed_form(thetas, branch))
    except DegenerateBranchError:
        return float("nan"), float("nan")


def cmd_sweep(args) -> int:
    phis = parse_axis(args.phi)
    if args.thetas is not None:
        if any(getattr(args, f"theta{i}") != "pi/4" for i in (1, 2, 3, 4)):
            raise CliInputError("--thetas (lock-equal) conflicts with --theta1..4")
        theta_axes = None
        lock_axis = parse_axis(args.thetas)
        n_theta = len(lock_axis)
    else:
        theta_axes = [parse_axis(getattr(args, f"theta{i}")) for i in (1, 2, 3, 4)]
        lock_axis = None
        n_theta = int(np.prod([len(ax) for ax in theta_axes]))
    try:
        etas = [float(x) for x in args.eta.split(",") if x.strip()]
    except ValueError:
        raise CliInputError(f"bad --eta list {args.eta!r}")
    if not etas or any(not 0.0 <= e <= 1.0 for e in etas):
        raise CliInputError("--eta values must lie in [0, 1]")

    total = len(phis) * n_theta * len(etas)
    if total > args.cap:
        raise CliInputError(f"grid has {total} points, exceeding the cap "
                            f"{args.cap}; raise --cap to proceed")

    def theta_tuples():
        if lock_axis is not None:
            for t in lock_axis:
                yield (t, t, t, t)
        else:
            for t1 in theta_axes[0]:
                for t2 in theta_axes[1]:
                    for t3 in theta_axes[2]:
                        for t4 in theta_axes[3]:
                            yield (t1, t2, t3, t4)

    points = [(phi, thetas) for phi in phis for thetas in theta_tuples()]
    amps = np.empty((len(points), len(BRANCHES), ATOMIC_SPACE.dim), dtype=complex)
    closed = []
    for k, (phi, thetas) in enumerate(points):
        psi = evolve(SchemeParams(phi=phi, thetas=thetas)).amp
        for j, sl in enumerate(_BRANCH_SLICES):
            amps[k, j] = psi[sl]
        closed.append([_closed_forms(thetas, branch) for branch in BRANCHES])

    # Numeric measures of every branch state in two stacked kernel calls;
    # a branch without population has none.
    norms = np.linalg.norm(amps, axis=-1)
    live = norms ** 2 >= 1e-12
    states = amps / np.where(live, norms, 1.0)[..., None]
    c_num = np.where(live, _pair_concurrence(states, _FORMULA_PAIR_QUBITS), np.nan)
    s_num = np.where(live, _cut_entropy(states, _FORMULA_CUT_QUBITS), np.nan)

    # Per point, the cells before eta and the cells after it; a row is
    # head, eta, gamma1, gamma2, eta (the success probability), the rest.
    split_rows = []
    for (phi, thetas), cl, cs, ss in zip(points, closed, c_num.tolist(), s_num.tolist()):
        tail = list(gamma_factors(thetas))
        for (c_cl, s_cl), c, s in zip(cl, cs, ss):
            tail += [c_cl, c, abs(c_cl - c), s_cl, s, abs(s_cl - s)]
        split_rows.append(([phi, *thetas], tail))

    def rows(format_cell):
        # each cell that does not depend on eta is formatted once per point
        etas_out = [format_cell(eta) for eta in etas]
        for head, tail in split_rows:
            head, tail = [format_cell(v) for v in head], [format_cell(v) for v in tail]
            for eta in etas_out:
                yield [*head, eta, *tail[:2], eta, *tail[2:]]

    if args.json:
        payload = {
            "columns": _SWEEP_COLUMNS,
            "rows": [dict(zip(_SWEEP_COLUMNS, row)) for row in rows(_jsonable)],
        }
        _emit(_json_text(payload), args)
    else:
        _emit(_csv_text(_SWEEP_COLUMNS, rows(_fmt)), args)
    return 0


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


def cmd_basis(args) -> int:
    if args.compare_generated:
        records = compare_generated()
        if args.json:
            payload = [{
                "index": r["index"],
                "overlap_magnitude": r["overlap_magnitude"],
                "phase_re": float(r["phase"].real),
                "phase_im": float(r["phase"].imag),
                "matches_up_to_phase": r["matches_up_to_phase"],
                "max_dev_after_alignment": _jsonable(r["max_dev_after_alignment"]),
            } for r in records]
            _emit(_json_text(payload), args)
        elif args.csv:
            rows = [[r["index"], _fmt(r["overlap_magnitude"]),
                     _fmt(r["phase"].real), _fmt(r["phase"].imag),
                     str(r["matches_up_to_phase"]).lower(),
                     _fmt(r["max_dev_after_alignment"])] for r in records]
            _emit(_csv_text(["index", "overlap_magnitude", "phase_re",
                             "phase_im", "matches_up_to_phase",
                             "max_dev_after_alignment"], rows), args)
        else:
            lines = []
            for r in records:
                z = r["phase"]
                lines.append(
                    f"{r['index']}: overlap {r['overlap_magnitude']:.12f}, "
                    f"phase {z.real:+.6f}{z.imag:+.6f}j, "
                    f"match={'yes' if r['matches_up_to_phase'] else 'no'}, "
                    f"dev {r['max_dev_after_alignment']:.3e}")
            _emit("\n".join(lines) + "\n", args)
        return 0

    basis = explicit_basis()

    if args.verify:
        rep = verify_representation(basis)
        healthy = (rep.max_orthonormality_dev <= 1e-12
                   and rep.max_completeness_dev <= 1e-12
                   and rep.all_genuine)
        if args.json:
            payload = {
                "max_orthonormality_dev": rep.max_orthonormality_dev,
                "max_completeness_dev": rep.max_completeness_dev,
                "all_genuine": rep.all_genuine,
                "states": {idx.label: rep.state_reports[idx].as_dict()
                           for idx in ALL_INDICES},
            }
            _emit(_json_text(payload), args)
        elif args.csv:
            rows = [["max_orthonormality_dev", _fmt(rep.max_orthonormality_dev)],
                    ["max_completeness_dev", _fmt(rep.max_completeness_dev)],
                    ["all_genuine", str(rep.all_genuine).lower()]]
            rows += [[f"genuine_{idx.label}",
                      str(rep.state_reports[idx].is_genuine).lower()]
                     for idx in ALL_INDICES]
            _emit(_csv_text(["field", "value"], rows), args)
        else:
            lines = [
                f"max orthonormality deviation: {rep.max_orthonormality_dev:.3e}",
                f"max completeness deviation:   {rep.max_completeness_dev:.3e}",
            ]
            n = sum(rep.state_reports[idx].is_genuine for idx in ALL_INDICES)
            lines.append(f"genuine states: {n}/16")
            lines.append(f"all genuine: {'yes' if rep.all_genuine else 'no'}")
            _emit("\n".join(lines) + "\n", args)
        return 0 if healthy else 1

    indices = [_parse_index(args.index)] if args.index else list(ALL_INDICES)
    if args.json:
        payload = {"states": [{
            "index": idx.label,
            "amplitudes": _state_records(basis.states[idx], args.tol),
        } for idx in indices]}
        _emit(_json_text(payload), args)
    elif args.csv:
        rows = []
        for idx in indices:
            for rec in _state_records(basis.states[idx], args.tol):
                rows.append([idx.label, rec["basis_label"],
                             _fmt(rec["re"]), _fmt(rec["im"])])
        _emit(_csv_text(["index", "basis_label", "re", "im"], rows), args)
    else:
        lines = []
        for idx in indices:
            lines.append(f"{idx.label}:")
            lines.extend(_state_lines(basis.states[idx], args.tol))
        _emit("\n".join(lines) + "\n", args)
    return 0


# --------------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> int:
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

    entries = []
    for idx in ALL_INDICES:
        c = dec.coefficients[idx]
        entries.append({
            "family": idx.family,
            "component": idx.component,
            "label": idx.label,
            "re": float(c.real),
            "im": float(c.imag),
            "abs2": float(abs(c) ** 2),
        })

    if args.json:
        payload = {"input": source, "basis": args.basis,
                   "coefficients": entries, "residual": dec.residual}
        _emit(_json_text(payload), args)
    elif args.csv:
        rows = [[str(e["family"]), str(e["component"]), e["label"],
                 _fmt(e["re"]), _fmt(e["im"]), _fmt(e["abs2"])]
                for e in entries]
        rows.append(["", "", "residual", _fmt(dec.residual), _fmt(0.0),
                     _fmt(dec.residual ** 2)])
        _emit(_csv_text(["family", "component", "label", "re", "im", "abs2"],
                        rows), args)
    else:
        lines = [f"decomposition of {source} over the {args.basis} basis:"]
        for e in entries:
            lines.append(f"  {e['label']}  {e['re']:+.12f}  {e['im']:+.12f}  "
                         f"|c|^2 = {e['abs2']:.12f}")
        lines.append(f"  residual = {dec.residual:.3e}")
        _emit("\n".join(lines) + "\n", args)
    return 0


# --------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    report = run_all_checks(seed=args.seed, fault=args.fault)
    log_text = _json_text(report.discrepancy_log)
    if args.json:
        _emit(report_to_json(report) + "\n", args)
    elif args.csv:
        rows = [[c.name, str(c.passed).lower(), _fmt(c.measured), c.detail]
                for c in report.checks]
        _emit(_csv_text(["name", "passed", "measured", "detail"], rows), args)
    else:
        lines = report.lines()
        lines.append("discrepancy log:")
        text = "\n".join(lines) + "\n" + log_text
        _emit(text, args)
    if args.discrepancies:
        Path(args.discrepancies).write_text(log_text)
    return 0 if report.all_passed else 1


# --------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    fmt_group = common.add_mutually_exclusive_group()
    fmt_group.add_argument("--json", action="store_true",
                           help="emit structured JSON")
    fmt_group.add_argument("--csv", action="store_true",
                           help="emit CSV (17 significant digits)")
    common.add_argument("--out", metavar="PATH",
                        help="write output to a file instead of stdout")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for pseudo-random sampling (default 0)")
    common.add_argument("--tol", type=float, default=1e-9,
                        help="display/validation tolerance (default 1e-9)")

    parser = argparse.ArgumentParser(
        prog="ges4",
        description="Simulate and analyze the four-qubit entangling "
                    "interferometer protocol.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[common],
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
        p_sweep.add_argument(f"--theta{i}", default="pi/4",
                             help=f"theta_{i} axis (default pi/4)")
    p_sweep.add_argument("--eta", default="1",
                         help="comma-separated efficiencies (default 1)")
    p_sweep.add_argument("--cap", type=int, default=10**6,
                         help="maximum number of grid points (default 1e6)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_basis = sub.add_parser("basis", parents=[common],
                             help="list, verify, or cross-check the "
                                  "sixteen-state entangled basis")
    p_basis.add_argument("--list", action="store_true",
                         help="print basis state amplitude tables (default)")
    p_basis.add_argument("--index", metavar="F,C",
                         help="restrict --list to one index, e.g. 1,0")
    p_basis.add_argument("--verify", action="store_true",
                         help="check orthonormality, completeness and "
                              "genuineness; exit 1 on failure")
    p_basis.add_argument("--compare-generated", action="store_true",
                         help="compare Pauli-string-generated states with the "
                              "explicit tables")
    p_basis.set_defaults(func=cmd_basis)

    p_dec = sub.add_parser("decompose", parents=[common],
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
    p_ver.add_argument("--fault", choices=list(FAULT_MODES), default=None,
                       help="inject a known defect (negative control; the "
                            "suite must then fail)")
    p_ver.add_argument("--discrepancies", metavar="PATH",
                       help="also write the discrepancy log to a JSON file")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
