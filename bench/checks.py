"""Independent checks of request outputs, run outside the timed interval.

A request passes when the exit code is the expected one, stdout is one
strict JSON object (or, for lightcone-scan, CSV) matching the published
output schema, and the values agree with closed forms recomputed here.
check() returns None on success and a one-line reason on failure.
"""

import json
import math

import jsonschema
import numpy as np

TOL = 1e-12


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    doc = json.loads(text, parse_constant=reject)
    if not isinstance(doc, dict):
        raise ValueError("stdout is not a JSON object")
    if not text.endswith("}\n"):
        raise ValueError("stdout is not a single newline-terminated object")
    return doc


def _num(value) -> float:
    return math.inf if value == "inf" else float(value)


def _close(a: float, b: float, tol: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# --- closed forms ------------------------------------------------------------

def _gammas():
    g0 = 1j * np.diag([1, 1, -1, -1]).astype(complex)
    pauli = (np.array([[0, 1], [1, 0]], complex), np.array([[0, -1j], [1j, 0]], complex),
             np.array([[1, 0], [0, -1]], complex))
    off = np.array([[0, 1], [1, 0]], complex)
    g = (g0,) + tuple(np.kron(off, s) for s in pauli)
    return g, 1j * g[0] @ g[1] @ g[2] @ g[3], 1j * g0


GAMMA, GAMMA5, JSYM = _gammas()


def two_sheet_worst_at(doc: dict, point) -> float:
    """Largest eigenvalue of the two-sheet cone matrix at one event."""
    k0, k1 = np.asarray(doc["k0"], float), np.asarray(doc["k1"], float)
    m = complex(*doc["m"])
    s = float(k1 @ point + doc["c1"]) - float(k0 @ point + doc["c0"])
    slope = sum(-1j * np.kron(GAMMA[mu], np.diag([k0[mu], k1[mu]])) for mu in range(4))
    internal = s * np.array([[0.0, m], [-np.conj(m), 0.0]])
    mat = np.kron(JSYM, np.eye(2)) @ (slope + np.kron(GAMMA5, internal))
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))[-1])


def box_corner_worst(doc: dict) -> float:
    """Worst eigenvalue over the 16 box corners; it bounds the whole box
    because the matrix is affine in a0 - a1 and lambda_max is convex."""
    box = doc["box"]
    corners = np.array(np.meshgrid(*(box[a] for a in "txyz"), indexing="ij")).reshape(4, -1).T
    return max(two_sheet_worst_at(doc, c) for c in corners)


def causal_expected(doc: dict) -> dict:
    a, b = doc["event_a"], doc["event_b"]
    dt = b["t"] - a["t"]
    dx = np.subtract(b["x"], a["x"])
    l2 = float(-dt * dt + dx @ dx)
    precedes = dt >= 0 and l2 <= 0.0
    m = complex(*doc["m"])
    tau = math.sqrt(max(0.0, -l2)) if precedes else None
    if "sheets" in doc:
        i, j = doc["sheets"]
        l2m = (4.0 / math.pi ** 2) * l2
        if i != j:
            l2m = math.inf if m == 0 else l2m + 1.0 / abs(m) ** 2
        related = precedes and l2m <= TOL
        threshold = 0.0 if i == j else (math.inf if m == 0 else math.pi / (2 * abs(m)))
    else:
        xi, eta = doc["xis"]
        l2m = None
        if m == 0:
            threshold = 0.0 if xi == eta else math.inf
            related = precedes and abs(xi - eta) <= TOL
        else:
            threshold = abs(math.asin(math.sqrt(eta)) - math.asin(math.sqrt(xi))) / abs(m)
            related = precedes and tau >= threshold - TOL
    return {"related": related, "L2m": l2m, "proper_time": tau, "threshold": threshold}


def scan_expected(doc: dict):
    """(t, r, allowed) columns of lightcone-scan from the closed form L2_m."""
    t = np.linspace(doc["t_min"], doc["t_max"], doc["t_steps"])
    r = np.linspace(doc["r_min"], doc["r_max"], doc["r_steps"])
    tt, rr = np.meshgrid(t, r, indexing="ij")
    l2 = -tt * tt + rr * rr
    m = complex(*doc["m"])
    precedes = (tt >= 0.0) & (l2 <= 0.0)
    if m == 0:
        allowed = np.zeros_like(precedes)
    else:
        allowed = precedes & ((4.0 / math.pi ** 2) * l2 + 1.0 / abs(m) ** 2 <= TOL)
    return tt.ravel(), rr.ravel(), allowed.ravel().astype(int)


# --- per-command checks ------------------------------------------------------

def _check_distance(doc, exp):
    value = _num(doc["value"])
    if exp["inf"]:
        if doc["value"] != "inf" or doc["maximizer"] is not None:
            return f"expected an infinite distance, got {doc['value']!r}"
        return None
    if math.isinf(value):
        return "infinite distance where a finite one is expected"
    d_f = exp["d_f"]
    a = np.array([[complex(*z) for z in row] for row in doc["maximizer"]])
    if a.shape != d_f.shape:
        return f"maximizer has shape {a.shape}"
    comm = d_f @ a - a @ d_f
    norm = float(np.linalg.svd(comm, compute_uv=False)[0])
    if norm > 1.0 + 1e-9:
        return f"maximizer infeasible: ||[D_F, a]|| = {norm!r}"
    attained = abs(float(np.real(np.subtract(exp["a"], exp["b"]) @ np.diag(a))))
    if not _close(attained, value, 1e-9):
        return f"maximizer attains {attained!r}, reported {value!r}"
    if "analytic" in exp and abs(value - exp["analytic"]) > 1e-6:
        return f"two-point distance {value!r} != |xi-eta|/|m| = {exp['analytic']!r}"
    if "lower_bound" in exp and value < exp["lower_bound"] - 1e-9:
        return f"value {value!r} below the grid-oracle bound {exp['lower_bound']!r}"
    if exp["oracle_step"] is not None:
        gap = doc["gap"]
        if gap is None or not 0.0 <= gap <= value + 1e-12:
            return f"oracle gap {gap!r} outside [0, value]"
        if d_f.shape[0] == 2 and gap > 2 * exp["oracle_step"]:
            return f"two-point oracle gap {gap!r} above twice the step"
    elif doc["gap"] is not None:
        return "gap reported without an oracle step"
    return None


def _check_causal(doc, exp):
    want = causal_expected(exp["doc"])
    if doc["related"] != want["related"]:
        return f"related {doc['related']} != closed form {want['related']}"
    for key in ("L2m", "proper_time", "threshold"):
        got, ref = doc[key], want[key]
        if (got is None) != (ref is None):
            return f"{key} {got!r}, expected {ref!r}"
        if ref is not None and not _close(_num(got), ref, 1e-12):
            return f"{key} {got!r} != closed form {ref!r}"
    return None


def _check_cone(doc, exp):
    spec = exp["doc"]
    if "k" in spec:
        k = spec["k"]
        want = math.sqrt(k[1] ** 2 + k[2] ** 2 + k[3] ** 2) - k[0]
    else:
        want = box_corner_worst(spec)
    if not _close(doc["worst_eigenvalue"], want, 1e-9):
        return f"worst eigenvalue {doc['worst_eigenvalue']!r} != {want!r}"
    if doc["causal"] != (doc["worst_eigenvalue"] <= TOL):
        return "causal flag disagrees with the worst eigenvalue"
    return None


def _check_validate(doc, exp):
    names = tuple(c["name"] for c in doc["checks"])
    if names != exp["names"]:
        return f"checks {names} != {exp['names']}"
    if doc["all_passed"] != exp["all_passed"]:
        return f"all_passed {doc['all_passed']} != {exp['all_passed']}"
    return None


def _check_classify(doc, exp):
    spec = exp["doc"]
    p2 = sum(v * v for v in spec["p"])
    ratio = spec["E"] ** 2 - p2 - exp["mass"] ** 2
    if not _close(doc["ratio"], ratio, 1e-9):
        return f"ratio {doc['ratio']!r} != E^2 - p^2 - m^2 = {ratio!r}"
    if not _close(doc["on_shell_E"], math.sqrt(p2 + exp["mass"] ** 2), 1e-12):
        return f"on_shell_E {doc['on_shell_E']!r}"
    want = {"on": "Harmonic", "above": "Causal", "below": "NonCausal"}[exp["shell"]]
    if doc["class"] != want:
        return f"class {doc['class']} != {want}"
    return None


def _doublet(spec):
    if "v" in spec:
        return (spec["v"] + spec["h"]) ** 2
    h1 = complex(*spec["h1"])
    return abs(h1 + 1.0) ** 2 + abs(complex(*spec["h2"])) ** 2


def _check_fluctuate(doc, exp):
    spec = exp["doc"]
    want = 2.0 * abs(complex(*spec["m_e"])) ** 2 * _doublet(spec)
    for key in ("trace_phi_sq", "closed_form"):
        if not _close(doc[key], want, 1e-12):
            return f"{key} {doc[key]!r} != 2|m_e|^2 |H|^2 = {want!r}"
    if np.shape(doc["phi"]) != (4, 4, 2) or np.shape(doc["Phi"]) != (8, 8, 2):
        return "phi/Phi have the wrong shape"
    if doc["max_abs_diff"] > 1e-12 * max(1.0, want):
        return f"inner fluctuation differs from the closed form by {doc['max_abs_diff']!r}"
    return None


def _check_ew_dispersion(doc, exp):
    spec = exp["doc"]
    mass_sq = 0.0 if "nu" in spec["state"] else (
        abs(complex(*spec["m_e"])) ** 2 * _doublet(spec))
    energy = math.sqrt(sum(v * v for v in spec["p"]) + mass_sq)
    if not _close(doc["E_on_shell"], energy, 1e-12):
        return f"E_on_shell {doc['E_on_shell']!r} != {energy!r}"
    if abs(doc["residual"]) > 1e-9 * max(1.0, energy ** 2):
        return f"dispersion residual {doc['residual']!r}"
    return None


def _check_scan(text, exp):
    lines = text.split("\n")
    if lines[0] != "t,r,sheet_crossing_allowed" or lines[-1] != "":
        return "scan CSV header or terminator malformed"
    rows = np.array([line.split(",") for line in lines[1:-1]], dtype=float)
    t, r, allowed = scan_expected(exp["doc"])
    if rows.shape != (t.size, 3):
        return f"scan has {rows.shape[0]} rows, expected {t.size}"
    if not (np.array_equal(rows[:, 0], t) and np.array_equal(rows[:, 1], r)):
        return "scan grid coordinates differ from linspace"
    bad = int(np.count_nonzero(rows[:, 2] != allowed))
    if bad:
        return f"{bad} scan flags disagree with the closed form"
    return None


def _check_curve_oracle(value, exp):
    a, b = exp["event_a"], exp["event_b"]
    dt = b["t"] - a["t"]
    dx = np.subtract(b["x"], a["x"])
    tau = math.sqrt(dt * dt - float(dx @ dx))
    if abs(value - tau) > 1e-9:
        return f"curve oracle {value!r} != proper time {tau!r}"
    return None


_CHECKS = {
    "distance": _check_distance,
    "causal": _check_causal,
    "cone": _check_cone,
    "validate": _check_validate,
    "classify": _check_classify,
    "fluctuate": _check_fluctuate,
    "ew-dispersion": _check_ew_dispersion,
}


class Checker:
    """Checks outputs against the published output schemas and closed forms."""

    def __init__(self, output_schemas: dict):
        self._validators = {}
        for name, schema in output_schemas.items():
            cls = jsonschema.validators.validator_for(schema)
            self._validators[name] = cls(schema)
        self._error_validator = jsonschema.Draft7Validator({
            "type": "object", "required": ["error", "message"], "additionalProperties": False,
            "properties": {"error": {"type": "string"}, "message": {"type": "string"}}})

    def check(self, req, code, out) -> str | None:
        """None when the outcome of req (exit code, stdout or value) is correct."""
        try:
            return self._check(req, code, out)
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            return f"unparseable output: {type(exc).__name__}: {exc}"

    def _check(self, req, code, out):
        if req.command == "curve-oracle":
            return _check_curve_oracle(out, req.expect) if code == 0 else f"raised {out}"
        codes = req.expect.get("error_codes")
        if codes is not None:
            if code not in codes:
                return f"exit code {code}, expected one of {codes}"
            doc = _strict_json(out)
            errors = list(self._error_validator.iter_errors(doc))
            return f"error object: {errors[0].message}" if errors else None
        if code != 0:
            return f"exit code {code}: {out[:200]!r}"
        if req.command == "lightcone-scan":
            return _check_scan(out, req.expect)
        doc = _strict_json(out)
        errors = list(self._validators[req.command].iter_errors(doc))
        if errors:
            return f"schema: {errors[0].message}"
        return _CHECKS[req.command](doc, req.expect)
