"""Command-line front end: simulate, sweep, basis, decompose, verify.

Payload -> renderer chunks -> the one writer: each command builds its result
once, as the data its ``--json`` output shows (undefined entries ``None``;
``verify``'s is its report's ``as_dict()``; only ``sweep``'s streams, a block
at a time). A renderer per format turns that payload alone into ``str``
chunks: text renderers yield lines, CSV renderers hand rows of raw values to
``_csv_lines``, which formats each cell with ``_cell`` (the sweep's
``_sweep_csv`` writes the same ``%.17g`` cells itself), and JSON is one chunk
(the sweep's is one per block).
``main`` hands the chunks to ``_write``, which writes them in order to stdout
(or ``--out``). Diagnostics go to stderr, and ``main`` alone maps errors to
exit codes: 0 on success, 1 when a verification run reports failures or an
internal invariant breaks (``InvariantError``), 2 on usage or input errors,
including an output path that cannot be written; every path is checked before
any is written. Angles are accepted as decimal radians or as exact fractions
of pi ("pi/4", "3pi/8", "-pi/2"), as "--phi -pi/2" or "--phi=-pi/2".
Re-running a command with identical flags and seed reproduces its output byte
for byte.

``sweep`` computes, checks and renders its grid one block of up to 4096
points at a time: one call for Gamma and the closed forms over the block's
distinct angle rows, one circuit-kernel call, and one ``_branch_measures``
call (one SVD over the nonempty branches). The first block, whose first
point is checked against ``evolve``, is computed before any output. Its CSV
formats each angle row once per block and each point once for all its eta
rows; its JSON reads the CSV's cells back and streams a block at a time too.

State files are JSON lists of records ``{"basis_label": "0101", "re": x,
"im": y}``; labels are strings of four characters of 0/1, ``re`` and ``im``
are JSON numbers, absent labels mean amplitude zero, and the reconstructed
vector must be normalized within ``--tol`` unless ``--normalize`` is given.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .hilbert import STRUCT_TOL, InvariantError, StateVector
from .circuit import (
    ATOMIC_SPACE,
    BRANCHES,
    BRANCH_PRIME,
    BRANCH_DOUBLE_PRIME,
    FAULT_MODES,
    DetectionOutcome,
    SchemeParams,
    _BS_BLOCK,
    _branch_rows,
    _one_photon_output,
    _row_norms,
    detect,
    evolve,
    prepare_ges,
)
from .measures import (
    FORMULA_CUT,
    FORMULA_PAIR,
    _branch_measures,
    _closed_form_measures,
    measure_report,
)
from .basis import (
    ALL_INDICES,
    GesIndex,
    _CANONICAL_AMPLITUDES,
    canonical_state,
    compare_generated,
    decompose,
    explicit_basis,
    generate_basis,
    verify_representation,
)

__all__ = ["main", "parse_angle"]

_ANGLE_RE = re.compile(
    r"^\s*([+-]?)\s*(?:(\d+(?:\.\d+)?)\s*\*?\s*)?pi(?:\s*/\s*(\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)

_ANGLE_FLAGS = {"--phi", "--theta", "--thetas", *(f"--theta{i}" for i in (1, 2, 3, 4))}
_CANONICAL_NAMES = tuple(_CANONICAL_AMPLITUDES)


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


def _axis_values(spec: tuple) -> np.ndarray:
    start, stop, count = spec
    return np.array([start]) if stop is None else np.linspace(start, stop, count)


def _tolerance(text: str) -> float:
    """--tol: a finite number >= 0 (NaN would silently drop every amplitude)."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return tol


def _tol(args) -> float:
    """--tol where a command reads it: the given value, or 1e-9 when it was not given."""
    return 1e-9 if args.tol is None else args.tol


# --------------------------------------------------------------------------
# formats and the one writer


def _cell(x) -> str:
    """A CSV cell by type: a str as is, a bool as true/false, and a number as
    17 significant digits with '.' separator, 'nan' for NaN or None."""
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if x is None or x != x:
        return "nan"
    return format(float(x), ".17g")


def _jsonable(x: float):
    """NaN is not valid JSON; represent undefined table entries as null."""
    return None if x != x else float(x)


class _Echo:
    """A file whose write returns the line, so csv.writer's writerow returns it."""

    def write(self, line: str) -> str:
        return line


def _csv_lines(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """The CSV lines of `header` and of `rows` of raw values, one `_cell` each."""
    writer = csv.writer(_Echo(), lineterminator="\n")
    yield writer.writerow(header)
    for row in rows:
        yield writer.writerow([_cell(x) for x in row])


def _json_chunks(payload) -> Iterator[str]:
    yield json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write(chunks: Iterable[str], path: Optional[str]) -> None:
    """The one place output leaves the program: `chunks` in order, to the file
    at `path` or to stdout, which stays open. An error while a file is written
    (raised by a chunk, or an OSError) removes the regular file `path` names,
    through any symlink, so no partial output stays there; stdout keeps it."""
    try:
        if not path:
            sys.stdout.writelines(chunks)
            return
        out = open(path, "w")
        try:
            with out:
                out.writelines(chunks)
        except BaseException:
            target = os.path.realpath(path)
            with contextlib.suppress(OSError):
                if os.path.isfile(target):
                    os.remove(target)
            raise
    except OSError as exc:
        raise CliInputError(f"cannot write {path or 'stdout'}: {exc.strerror or exc}")


class Output(NamedTuple):
    """A command's payload, a renderer per format (payload -> str chunks), its
    exit code, and (path, payload) pairs written as JSON after it (verify's
    discrepancy log)."""

    payload: object
    text: Callable[[object], Iterable[str]]
    csv: Callable[[object], Iterable[str]]
    json: Callable[[object], Iterable[str]] = _json_chunks
    code: int = 0
    side_files: tuple = ()


def _state_records(state: StateVector, tol: float) -> list:
    return [{"basis_label": state.space.basis_label(i), "re": float(a.real), "im": float(a.imag)}
            for i, a in enumerate(state.amp) if abs(a) > tol]


def _record_lines(records: list) -> Iterator[str]:
    return (f"  |{r['basis_label']}>  {r['re']:+.12f}  {r['im']:+.12f}\n" for r in records)


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
        amp[int(label, 2)] = value
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
    norms = _row_norms(_branch_rows(psi.amp))
    payload = {
        "phi": params.phi,
        "thetas": list(params.thetas),
        "eta": params.eta,
        "branch_probability": dict(zip(BRANCHES, (n ** 2 for n in norms))),
    }
    outcome = DetectionOutcome(args.outcome) if args.outcome else None
    entry = functools.partial(_outcome_entry, want_measures=args.measures, tol=_tol(args))
    if args.deterministic:
        # an off-operating-point warning becomes one diagnostic line
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            prepared = prepare_ges(params, outcome=outcome)
        for warning in caught:
            print(f"warning: {warning.message}", file=sys.stderr)
        payload["mode"] = "deterministic"
        payload["conditioned_on"] = prepared.outcome.value
        payload.update(entry(prepared.state, prepared.probability))
    elif outcome is not None:
        payload["outcome"] = outcome.value
        payload.update(entry(*detect(psi, outcome, params.eta)))
    else:
        payload["outcomes"] = {o.value: entry(*detect(psi, o, params.eta))
                               for o in DetectionOutcome}
    return Output(payload, _simulate_text, _simulate_csv)


def _simulate_entries(payload) -> dict:
    """Outcome name -> entry ({probability, state[, measures]}), in output order."""
    if "outcomes" in payload:
        return payload["outcomes"]
    return {payload.get("conditioned_on", payload.get("outcome")): payload}


def _measures_lines(m: dict, indent: str) -> Iterator[str]:
    yield f"{indent}pairwise concurrence:\n"
    yield from (f"{indent}  {pair}: {c:.12f}\n" for pair, c in m["pairwise_concurrence"].items())
    yield f"{indent}bipartition entropy:\n"
    yield from (f"{indent}  {cut}: {s:.12f}\n" for cut, s in m["pair_entropy"].items())
    yield from (f"{indent}  {q}|rest: {s:.12f}\n" for q, s in m["single_entropy"].items())
    yield f"{indent}genuine: {'yes' if m['is_genuine'] else 'no'}\n"


def _simulate_text(payload) -> Iterator[str]:
    prob = payload["branch_probability"]
    yield (f"phi = {payload['phi']:.12f}, theta = ("
           + ", ".join(f"{t:.12f}" for t in payload["thetas"]) + f"), eta = {payload['eta']:g}\n")
    yield (f"branch probabilities: prime = {prob[BRANCH_PRIME]:.12f}, "
           f"double_prime = {prob[BRANCH_DOUBLE_PRIME]:.12f}\n")
    title = ("deterministic preparation, conditioned on" if "conditioned_on" in payload
             else "outcome")
    # one outcome gets a "state:" heading; a list of them is indented further
    nested = "outcomes" in payload
    for name, entry in _simulate_entries(payload).items():
        yield f"{title} {name}: probability {entry['probability']:.12f}\n"
        if entry["state"] is None:
            yield "  (no pure conditional state)\n"
            continue
        if not nested:
            yield "state:\n"
        yield from _record_lines(entry["state"])
        if "measures" in entry:
            yield from _measures_lines(entry["measures"], "    " if nested else "  ")


def _simulate_csv(payload) -> Iterator[str]:
    rows = [["phi", payload["phi"], ""]]
    rows += [[f"theta{i}", t, ""] for i, t in enumerate(payload["thetas"], start=1)]
    rows.append(["eta", payload["eta"], ""])
    rows += [[f"branch_probability_{branch}", payload["branch_probability"][branch], ""]
             for branch in BRANCHES]
    for name, entry in _simulate_entries(payload).items():
        rows.append([f"probability_{name}", entry["probability"], ""])
        rows += [[f"amplitude_{name}:{r['basis_label']}", r["re"], r["im"]]
                 for r in entry["state"] or ()]
    return _csv_lines(["field", "value_re", "value_im"], rows)


# --------------------------------------------------------------------------
# sweep

_SWEEP_COLUMNS = (
    ["phi", "theta1", "theta2", "theta3", "theta4", "eta",
     "gamma1", "gamma2", "success_probability"]
    + [f"{q}_{b}" for b in BRANCHES
       for q in ("conc_closed", "conc_numeric", "conc_absdiff",
                 "entropy_closed", "entropy_numeric", "entropy_absdiff")]
)


# Grid points per block: each block is computed, checked and rendered before
# the next, so a sweep holds one block's arrays and its axes, whatever its size.
_SWEEP_BLOCK = 4096

# A theta row's branch cells, its closed forms formatted and its point's
# numeric cells left open: "%%.17g" formats to "%.17g", and no number contains "%".
_SWEEP_TAIL = ",".join(["%.17g,%%.17g,%%.17g"] * 4) + "\n"


def _sweep_csv(payload) -> Iterator[str]:
    """The header, then one chunk of rows per block. Each phi and each theta
    row's angle-only cells are formatted once per block, and each point's
    eight numeric cells once for all its eta rows, which splice in the eta cells."""
    joins = [",%.17g," % eta for eta in payload["etas"]]
    yield ",".join(_SWEEP_COLUMNS) + "\n"
    for phis, at_phi, rows, at_row, numeric in payload["blocks"]:
        phis = ["%.17g" % phi for phi in phis.tolist()]
        rows = [(",%.17g,%.17g,%.17g,%.17g" % tuple(r[:4]), "%.17g,%.17g" % tuple(r[4:6]),
                 _SWEEP_TAIL % tuple(r[6:])) for r in rows.tolist()]
        lines = []
        for i, k, cells in zip(at_phi.tolist(), at_row.tolist(), numeric.tolist()):
            thetas, gammas, tail = rows[k]
            parts = (phis[i] + thetas, gammas, tail % tuple(cells))
            lines += [join.join(parts) for join in joins]
        yield "".join(lines)


def _sweep_json(payload) -> Iterator[str]:
    """The CSV's rows as one document, one chunk per block: the bytes of
    `_json_chunks({"columns": ..., "rows": rows})`, whose head and tail are
    those of a one-row document. Each cell is read back from its 17
    significant digits, which give every float exactly."""
    chunks = _sweep_csv(payload)
    next(chunks)    # the header
    # the head goes before the first block's rows, a row separator before each later block's
    sep, tail = next(_json_chunks({"columns": _SWEEP_COLUMNS, "rows": [None]})).split("null")
    for chunk in chunks:
        rows = (json.dumps(dict(zip(_SWEEP_COLUMNS, (_jsonable(float(x)) for x in line.split(",")))),
                           indent=2, sort_keys=True) for line in chunk.splitlines())
        yield sep + ",\n".join(rows).replace("\n", "\n    ")
        sep = ",\n    "
    yield tail


def _check_first_point(phi: float, thetas, branches: np.ndarray) -> None:
    """The sweep's branch amplitudes at its first grid point must be the ones
    `evolve` returns there, branch order and phi reduction included."""
    want = _branch_rows(evolve(SchemeParams(phi=phi, thetas=tuple(thetas))).amp)
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

    phi_axis = _axis_values(phi_spec)
    theta_axes = [_axis_values(spec) for spec in theta_specs]
    shape = [len(axis) for axis in theta_axes]
    n_theta = math.prod(shape)
    n_points = len(phi_axis) * n_theta

    def block(start: int) -> tuple:
        # Points run phi-major: point p lies at phi p // n_theta and theta row
        # p % n_theta, theta1 varying slowest and theta4 fastest; locked rows
        # repeat one angle.
        n = min(_SWEEP_BLOCK, n_points - start)
        distinct = np.arange(start, start + min(n, n_theta)) % n_theta
        at_row = np.arange(n) % len(distinct)
        at_phi = np.arange(start, start + n) // n_theta
        phis = phi_axis[at_phi[0]:at_phi[-1] + 1]
        at_phi -= at_phi[0]
        thetas = (np.repeat(theta_axes[0][distinct, None], 4, axis=1) if locked else np.stack(
            [axis[i] for axis, i in zip(theta_axes, np.unravel_index(distinct, shape))], axis=-1))
        # SchemeParams checks each point and reduces its phi mod 2 pi. A
        # non-finite angle can only come from a single-value axis, which every
        # point shares, so the first block's first row checks them all.
        reduced = np.array([SchemeParams(phi=phi, thetas=thetas[0]).phi for phi in phis.tolist()])
        amps = _one_photon_output(reduced[at_phi], thetas[at_row], _BS_BLOCK)
        if start == 0:
            _check_first_point(phi_axis[0], thetas[0], amps[0])
        # Gamma and the closed forms depend on the angles alone: one call over
        # the block's theta rows. An empty branch's numeric cells are NaN.
        gammas, lam, s = _closed_form_measures(thetas)
        closed = np.stack([lam, s], axis=-1)                          # (row, branch, measure)
        conc, ent = _branch_measures(amps, (FORMULA_PAIR,), (FORMULA_CUT.side_a,))
        num = np.concatenate([conc, ent], axis=-1)
        numeric = np.stack([num, np.abs(closed[at_row] - num)], axis=-1).reshape(n, 8)
        # Point i lies at phis[at_phi[i]] and theta row at_row[i]. A row holds
        # theta1..4, gamma1, gamma2 and the closed forms, and a point each
        # branch's conc_numeric, conc_absdiff, entropy_numeric, entropy_absdiff.
        rows = np.column_stack([thetas, gammas, closed.reshape(-1, 4)])
        return phis, at_phi, rows, at_row, numeric

    # The first block, with every check that can fail on it, runs before any
    # output; the others run one at a time as the output is written.
    blocks = map(block, range(0, n_points, _SWEEP_BLOCK))
    payload = {"etas": etas, "blocks": itertools.chain([next(blocks)], blocks)}
    return Output(payload, _sweep_csv, _sweep_csv, _sweep_json)


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
    if args.tol is not None and (args.verify or args.compare_generated):
        raise CliInputError("--tol sets the amplitudes --list shows; it does not combine "
                            "with --verify or --compare-generated")
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
                           "amplitudes": _state_records(basis.states[idx], _tol(args))}
                          for idx in indices]}
    return Output(payload, _basis_list_text, _basis_list_csv)


def _compare_text(payload) -> Iterator[str]:
    for r in payload:
        dev = r["max_dev_after_alignment"]
        yield (f"{r['index']}: overlap {r['overlap_magnitude']:.12f}, "
               f"phase {r['phase_re']:+.6f}{r['phase_im']:+.6f}j, "
               f"match={'yes' if r['matches_up_to_phase'] else 'no'}, "
               f"dev {math.nan if dev is None else dev:.3e}\n")


def _compare_csv(payload) -> Iterator[str]:
    columns = ["index", "overlap_magnitude", "phase_re", "phase_im",
               "matches_up_to_phase", "max_dev_after_alignment"]
    return _csv_lines(columns, ([r[c] for c in columns] for r in payload))


def _basis_verify_text(payload) -> Iterator[str]:
    n = sum(s["is_genuine"] for s in payload["states"].values())
    yield f"max orthonormality deviation: {payload['max_orthonormality_dev']:.3e}\n"
    yield f"max completeness deviation:   {payload['max_completeness_dev']:.3e}\n"
    yield f"genuine states: {n}/16\n"
    yield f"all genuine: {'yes' if payload['all_genuine'] else 'no'}\n"


def _basis_verify_csv(payload) -> Iterator[str]:
    rows = [[field, payload[field]]
            for field in ("max_orthonormality_dev", "max_completeness_dev", "all_genuine")]
    rows += [[f"genuine_{label}", s["is_genuine"]] for label, s in payload["states"].items()]
    return _csv_lines(["field", "value"], rows)


def _basis_list_text(payload) -> Iterator[str]:
    for entry in payload["states"]:
        yield f"{entry['index']}:\n"
        yield from _record_lines(entry["amplitudes"])


def _basis_list_csv(payload) -> Iterator[str]:
    return _csv_lines(["index", "basis_label", "re", "im"], (
        [entry["index"], r["basis_label"], r["re"], r["im"]]
        for entry in payload["states"] for r in entry["amplitudes"]))


# --------------------------------------------------------------------------
# decompose


def cmd_decompose(args) -> Output:
    if (args.state is None) == (args.file is None):
        raise CliInputError("give exactly one input: a state name "
                            f"({'/'.join(_CANONICAL_NAMES)}) or --file")
    if args.state is not None:
        if args.normalize:
            raise CliInputError("--normalize rescales a --file state; it does not combine "
                                "with a state name")
        if args.tol is not None:
            raise CliInputError("--tol checks the norm of a --file state; it does not "
                                "combine with a state name")
        name = args.state.lower()
        if name not in _CANONICAL_NAMES:
            raise CliInputError(f"unknown state {args.state!r}; expected one of "
                                f"{'/'.join(_CANONICAL_NAMES)} (or use --file)")
        state = canonical_state(name)
        source = name
    else:
        state = read_state_file(args.file, args.normalize, _tol(args))
        source = args.file

    basis = generate_basis() if args.basis == "generated" else explicit_basis()
    dec = decompose(state, basis)
    coefficients = [{"family": idx.family, "component": idx.component, "label": idx.label,
                     "re": float(c.real), "im": float(c.imag), "abs2": float(abs(c) ** 2)}
                    for idx in ALL_INDICES for c in (dec.coefficients[idx],)]
    payload = {"input": source, "basis": args.basis,
               "coefficients": coefficients, "residual": dec.residual}
    return Output(payload, _decompose_text, _decompose_csv)


def _decompose_text(payload) -> Iterator[str]:
    yield f"decomposition of {payload['input']} over the {payload['basis']} basis:\n"
    yield from (f"  {e['label']}  {e['re']:+.12f}  {e['im']:+.12f}  |c|^2 = {e['abs2']:.12f}\n"
                for e in payload["coefficients"])
    yield f"  residual = {payload['residual']:.3e}\n"


def _decompose_csv(payload) -> Iterator[str]:
    columns = ["family", "component", "label", "re", "im", "abs2"]
    rows = [[e[c] for c in columns] for e in payload["coefficients"]]
    residual = payload["residual"]
    return _csv_lines(columns, [*rows, ["", "", "residual", residual, 0.0, residual ** 2]])


# --------------------------------------------------------------------------
# verify


def cmd_verify(args) -> Output:
    # imported here so that the other commands never load the verification suite
    from .verify import run_all_checks

    payload = run_all_checks(seed=args.seed, fault=args.fault).as_dict()
    log = ((args.discrepancies, payload["discrepancy_log"]),) if args.discrepancies else ()
    return Output(payload, _verify_text, _verify_csv,
                  code=0 if payload["all_passed"] else 1, side_files=log)


def _verify_text(payload) -> Iterator[str]:
    checks = payload["checks"]
    yield from (f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']} "
                f"(measured {c['measured']:.3e})\n" for c in checks)
    yield f"{sum(c['passed'] for c in checks)}/{len(checks)} checks passed\n"
    yield "discrepancy log:\n"
    yield from _json_chunks(payload["discrepancy_log"])


def _verify_csv(payload) -> Iterator[str]:
    columns = ["name", "passed", "measured", "detail"]
    return _csv_lines(columns, ([c[k] for k in columns] for c in payload["checks"]))


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
    tol.add_argument("--tol", type=_tolerance, default=None,    # None: not given
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
                            "conditional states (text and JSON; not in --csv)")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="tabulate closed-form vs numerical measures "
                                  "over a parameter grid (CSV by default)",
                             description="Every format is computed and written one "
                                         "block of 4096 points at a time, in memory "
                                         "bounded whatever the grid size.")
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
    tokens = []
    for token in sys.argv[1:] if argv is None else argv:
        # argparse takes a value like "-pi/8" for an option: join it onto its angle flag
        if tokens and tokens[-1] in _ANGLE_FLAGS and re.match(r"-(?!-|h$)", token):
            tokens[-1] += "=" + token
        else:
            tokens.append(token)
    args = build_parser().parse_args(tokens)
    try:
        out = args.func(args)
        for path in filter(None, (args.out, *(path for path, _ in out.side_files))):
            if Path(path).is_dir() or not Path(path).parent.is_dir():   # before any write
                raise CliInputError(f"cannot write {path}: not a file in an existing folder")
        render = out.json if args.json else out.csv if args.csv else out.text
        _write(render(out.payload), args.out)
        for path, payload in out.side_files:
            _write(_json_chunks(payload), path)
        return out.code
    except (CliInputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
