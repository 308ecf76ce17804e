"""Command-line front end: JSON scenarios in, JSON/CSV results out.

Exit codes: 0 success, 1 domain error (error name from the owning module),
2 malformed input (bad JSON, schema violation, unreadable file).  Errors are
emitted as machine-readable JSON objects on stdout.  Output is strict JSON
(+inf is the string "inf"; any other non-finite result is a DomainError) and
byte-stable for identical inputs.
"""

import argparse
import json
import math
import sys

import jsonschema
import numpy as np

from . import causality, dispersion, distance, fluctuation
from .clifford import build_gamma_basis
from .errors import DomainError, TwoSheetError
from .finite_triple import (decode_complex, electroweak_triple, encode_matrix,
                            triple_from_dict, validate_axioms)
from .schemas import INPUT_SCHEMAS, TRIPLE_SCHEMA


class InputError(Exception):
    """Malformed input: maps to exit code 2."""


def _num(x: float):
    """+inf as "inf"; -inf and NaN stay floats, which _encode refuses."""
    return "inf" if x == math.inf else float(x)


def _finite_float(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals (1e400) are malformed."""
    if not math.isfinite(value := float(text)):
        raise ValueError(f"non-finite number {text}")
    return value


def _double_int(text: str) -> int:
    """JSON integer hook: literals beyond the double range are malformed."""
    value = int(text)
    try:
        float(value)
    except OverflowError as exc:
        raise ValueError(f"integer {text[:20]}... overflows a double") from exc
    return value


_STRICT_JSON = {"parse_float": _finite_float, "parse_constant": _finite_float,
                "parse_int": _double_int}


def _read_json(path: str):
    try:
        if path == "-":
            return json.load(sys.stdin, **_STRICT_JSON)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, **_STRICT_JSON)
    except ValueError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _validated(doc, schema, context: str):
    try:
        jsonschema.validate(doc, schema)
    except jsonschema.ValidationError as exc:
        raise InputError(f"{context}: {exc.message}") from exc
    return doc


def _load_triple(path: str):
    return triple_from_dict(_validated(_read_json(path), TRIPLE_SCHEMA, f"triple file {path}"))


def _scenario(args, command: str):
    return _validated(_read_json(args.input), INPUT_SCHEMAS[command],
                      f"scenario for {command}")


def _tol(args, name: str = "tol") -> dict:
    """--tolerance as the library keyword name; absent, the library default applies."""
    return {} if args.tolerance is None else {name: args.tolerance}


def _event(doc) -> causality.Event:
    return causality.Event(t=doc["t"], x=np.asarray(doc["x"], dtype=float))


def _parse_state(text: str, n: int) -> distance.AlgebraState:
    try:
        return distance.AlgebraState.pure(int(text), n)
    except ValueError:
        pass
    try:
        weights = json.loads(text, **_STRICT_JSON)
    except ValueError as exc:
        raise InputError(f"state {text!r} is neither an index nor a JSON list") from exc
    if not isinstance(weights, list):
        raise InputError(f"state {text!r} must decode to a list of weights")
    return distance.AlgebraState(np.asarray(weights, dtype=float))


def _cmd_validate(args, basis):
    report = validate_axioms(_load_triple(args.triple), **_tol(args))
    return {
        "all_passed": report.all_passed,
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in report.checks],
    }


def _cmd_distance(args, basis):
    triple = _load_triple(args.triple)
    n = len(triple.algebra_generators)
    state_a = _parse_state(args.state_a, n)
    state_b = _parse_state(args.state_b, n)
    result = distance.connes_distance(triple, state_a, state_b,
                                      oracle_step=args.oracle_step, **_tol(args))
    return {
        "value": _num(result.value),
        "maximizer": None if result.maximizer is None else encode_matrix(result.maximizer),
        "gap": None if result.gap is None else float(result.gap),
    }


def _cmd_causal(args, basis):
    doc = _scenario(args, "causal")
    ev_a, ev_b = _event(doc["event_a"]), _event(doc["event_b"])
    m = decode_complex(doc["m"])
    tau = causality.proper_time(ev_a, ev_b) if causality.minkowski_precedes(ev_a, ev_b) else None
    # a sheet index is the weight of an endpoint interpolating state
    pure = "sheets" in doc
    weights = doc["sheets"] if pure else doc["xis"]
    state = causality.SheetPoint if pure else causality.MixedState
    relation = causality.causally_related_pure if pure else causality.causally_related_mixed
    a, b = state(ev_a, weights[0]), state(ev_b, weights[1])
    return {
        "related": relation(a, b, m, **_tol(args)),
        "L2m": _num(causality.extremal_length_sq_sheets(a, b, m)) if pure else None,
        "proper_time": tau,
        "threshold": _num(causality.interpolation_threshold(*weights, m)),
    }


def _cmd_cone(args, basis):
    doc = _scenario(args, "cone")
    tol = args.tolerance if args.tolerance is not None else causality.BOUNDARY_TOL
    if "k" in doc:
        worst = causality.affine_worst_eigenvalue(doc["k"], basis)
    else:
        axes = [np.linspace(*doc["box"][name], doc["box"]["n"]) for name in "txyz"]
        points = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        worst = causality.two_sheet_worst_eigenvalue(doc["k0"], doc["k1"], doc["c0"], doc["c1"],
                                                     decode_complex(doc["m"]), points, basis)
    return {"causal": worst <= tol, "worst_eigenvalue": worst}


def _cmd_lightcone_scan(args, basis):
    doc = _scenario(args, "lightcone-scan")
    t, r = (np.linspace(doc[f"{a}_min"], doc[f"{a}_max"], doc[f"{a}_steps"]) for a in "tr")
    allowed = causality.sheet_crossing_grid(t, r, decode_complex(doc["m"]), **_tol(args))
    t_col, r_col = (np.array([repr(v) for v in a.tolist()], dtype=object) for a in (t, r))
    cells = np.empty(allowed.shape + (2,), dtype=object)  # shared "t" and ",r,flag" strings
    cells[..., 0] = t_col[:, None]
    cells[..., 1] = np.where(allowed, "," + r_col + ",1\n", "," + r_col + ",0\n")
    return "".join(["t,r,sheet_crossing_allowed\n", *cells.ravel().tolist()])


def _cmd_classify(args, basis):
    doc = _scenario(args, "classify")
    triple = _load_triple(doc["triple_file"])
    tol = {"tol": doc["tol"]} if "tol" in doc else _tol(args)
    mode = dispersion.PlaneWaveMode(E=doc["E"], p=np.asarray(doc["p"], dtype=float),
                                    internal=doc["internal_index"])
    result = dispersion.classify_spinor(triple, mode, basis, **tol)
    mass = dispersion.internal_mass(triple, doc["internal_index"])
    return {
        "class": result.kind.value,
        "ratio": result.ratio,
        "on_shell_E": dispersion.on_shell_energy(mode.p, mass),
    }


def _field_from_doc(doc) -> fluctuation.HiggsField:
    if "h1" in doc:
        return fluctuation.HiggsField(h1=decode_complex(doc["h1"]),
                                      h2=decode_complex(doc["h2"]))
    return fluctuation.HiggsField.broken(doc["v"], doc["h"])


def _cmd_fluctuate(args, basis):
    doc = _scenario(args, "fluctuate")
    m_e = decode_complex(doc["m_e"])
    field = _field_from_doc(doc)
    phi = fluctuation.higgs_phi(m_e, field)
    full = fluctuation.higgs_phi_completion(m_e, field)
    pair = fluctuation.pair_for_higgs(field.h1, field.h2)
    rebuilt = fluctuation.inner_fluctuation(electroweak_triple(m_e), *pair)
    return {
        "phi": encode_matrix(phi),
        "Phi": encode_matrix(full),
        "trace_phi_sq": fluctuation.trace_phi_sq(phi),
        "closed_form": fluctuation.trace_phi_sq_closed_form(m_e, field),
        "max_abs_diff": float(np.max(np.abs(rebuilt - full))),
    }


def _cmd_ew_dispersion(args, basis):
    doc = _scenario(args, "ew-dispersion")
    m_e = decode_complex(doc["m_e"])
    field = fluctuation.HiggsField.broken(doc["v"], doc["h"])
    triple = fluctuation.fluctuated_triple(m_e, field)
    mass = dispersion.internal_mass(triple, triple.label_index(doc["state"]))
    energy = dispersion.on_shell_energy(doc["p"], mass)
    residual = fluctuation.fluctuated_dispersion(triple, m_e, field, energy, doc["p"],
                                                 doc["state"], basis, **_tol(args, "block_tol"))
    return {"E_on_shell": energy, "residual": residual}


_HANDLERS = {
    "validate": _cmd_validate,
    "distance": _cmd_distance,
    "causal": _cmd_causal,
    "cone": _cmd_cone,
    "lightcone-scan": _cmd_lightcone_scan,
    "classify": _cmd_classify,
    "fluctuate": _cmd_fluctuate,
    "ew-dispersion": _cmd_ew_dispersion,
}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", type=float, default=None,
                        help="override the default tolerance of the operation")
    common.add_argument("--output", default=None,
                        help="write the result to this path instead of stdout")

    parser = argparse.ArgumentParser(prog="twosheet",
                                     description="two-sheet spectral geometry toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common], help="check finite-triple axioms")
    p.add_argument("--triple", required=True, help="path to a triple JSON document")

    p = sub.add_parser("distance", parents=[common], help="Connes distance between states")
    p.add_argument("--triple", required=True)
    p.add_argument("--state-a", required=True,
                   help="pure-state index or JSON list of weights")
    p.add_argument("--state-b", required=True)
    p.add_argument("--oracle-step", type=float, default=None,
                   help="also run the grid oracle with this step")

    for name, help_text in (
        ("causal", "causal relation between two (sheet or mixed) points"),
        ("cone", "causal-cone test for an affine function or two-sheet element"),
        ("lightcone-scan", "CSV scan of the cross-sheet cone boundary"),
        ("classify", "classify a plane-wave mode"),
        ("fluctuate", "assemble the fluctuated internal operator"),
        ("ew-dispersion", "fluctuated dispersion relation residual"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("input", nargs="?", default="-",
                       help="scenario JSON path (default: stdin)")
    return parser


def _encode(result) -> str:
    if isinstance(result, str):
        return result
    try:
        return json.dumps(result, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise DomainError(f"result is not finite: {exc}") from exc


def _emit(text: str, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(error: str, message, code: int) -> int:
    sys.stdout.write(json.dumps({"error": error, "message": str(message)}, sort_keys=True) + "\n")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    basis = build_gamma_basis()
    handler = _HANDLERS[args.command]
    try:
        text = _encode(handler(args, basis))
    except InputError as exc:
        return _fail("MalformedInput", exc, 2)
    except OverflowError as exc:  # float ** on a finite input past the double range
        return _fail("DomainError", f"result is not finite: {exc}", 1)
    except TwoSheetError as exc:
        return _fail(type(exc).__name__, exc, 1)
    _emit(text, args.output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
