"""Finite (internal) spectral triples: constructors, axiom checks, JSON I/O.

A finite triple bundles the represented internal algebra, the internal Dirac
matrix D_F and, when present, the real structure J_F and the grading gamma_F.
The real structure is antiunitary: it is stored as a plain matrix S with the
convention that applying J_F means "conjugate entries, then multiply by S".
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, StateError, require_finite

TWO_POINT_LABELS = ("sheet0", "sheet1")
ELECTROWEAK_LABELS = (
    "nu_R", "e_R", "nu_L", "e_L",
    "anti_nu_R", "anti_e_R", "anti_nu_L", "anti_e_L",
)


@dataclass(frozen=True, eq=False)
class FiniteTriple:
    """A finite spectral triple (algebra generators, D_F, optional J_F, gamma_F)."""

    dim_H: int
    algebra_generators: tuple
    D_F: np.ndarray
    J_F: np.ndarray | None = None
    gamma_F: np.ndarray | None = None
    labels: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "algebra_generators",
                           tuple(np.asarray(g, dtype=complex) for g in self.algebra_generators))
        object.__setattr__(self, "D_F", np.asarray(self.D_F, dtype=complex))
        for name in ("J_F", "gamma_F"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, np.asarray(val, dtype=complex))
        object.__setattr__(self, "labels", tuple(self.labels))
        n = self.dim_H
        for mat in (self.D_F, self.J_F, self.gamma_F, *self.algebra_generators):
            if mat is not None and mat.shape != (n, n):
                raise DomainError(f"matrix of shape {mat.shape} does not act on C^{n}")
        if self.labels and len(self.labels) != n:
            raise DomainError(f"{len(self.labels)} labels for dim_H = {n}")

    @property
    def is_degenerate(self) -> bool:
        """True when D_F vanishes identically (infinite internal separation)."""
        return bool(np.max(np.abs(self.D_F), initial=0.0) == 0.0)

    def apply_real_structure(self, psi):
        """J_F psi = S conj(psi)."""
        if self.J_F is None:
            raise DomainError("triple has no real structure")
        return self.J_F @ np.asarray(psi, dtype=complex).conj()

    def conjugate_by_real_structure(self, mat):
        """J_F M J_F^{-1} as a matrix: S conj(M) S^{-1}."""
        if self.J_F is None:
            raise DomainError("triple has no real structure")
        return self.J_F @ np.asarray(mat, dtype=complex).conj() @ np.linalg.inv(self.J_F)

    def label_index(self, label: str) -> int:
        """Index of the named basis state; StateError for a label the triple lacks."""
        if label not in self.labels:
            raise StateError(f"unknown internal state label {label!r}")
        return self.labels.index(label)


def two_point_triple(m: complex) -> FiniteTriple:
    """Internal space of the two-sheet geometry: C + C on C^2.

    D_F = [[0, m], [conj(m), 0]], so D_F^2 = |m|^2 * 1.  m = 0 is allowed but
    the resulting triple is degenerate (is_degenerate is set); downstream
    code maps the internal separation 1/|m| to +inf in that case.
    """
    m = complex(m)
    require_finite("mass", m)
    gens = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    d = np.array([[0.0, m], [np.conj(m), 0.0]], dtype=complex)
    return FiniteTriple(dim_H=2, algebra_generators=gens, D_F=d, labels=TWO_POINT_LABELS)


def quaternion(alpha: complex, beta: complex) -> np.ndarray:
    """A quaternion as the 2x2 complex matrix [[alpha, beta], [-conj(beta), conj(alpha)]]."""
    return np.array([[alpha, beta], [-np.conj(beta), np.conj(alpha)]], dtype=complex)


def represent_ew(lam: complex, q: np.ndarray) -> np.ndarray:
    """Action of (lambda, q) in C + H on the lepton space C^8.

    lambda acts as diag(lambda, conj(lambda)) on the right-handed doublet,
    the quaternion q on the left-handed doublet, and lambda scalarly on the
    antiparticle sector.
    """
    r = np.zeros((8, 8), dtype=complex)
    r[0, 0] = lam
    r[1, 1] = np.conj(lam)
    r[2:4, 2:4] = np.asarray(q, dtype=complex)
    r[4:8, 4:8] = lam * np.eye(4)
    return r


def electroweak_triple(m_e: complex) -> FiniteTriple:
    """Internal space of the electroweak model with one massless neutrino.

    Basis order: nu_R, e_R, nu_L, e_L, then the conjugate (antiparticle)
    states.  The only Yukawa coupling is the electron mass m_e; neutrinos
    are annihilated by D_F exactly.
    """
    m_e = complex(m_e)
    require_finite("electron mass", m_e)
    y = np.array([[0.0, 0.0], [0.0, m_e]], dtype=complex)
    d = np.zeros((8, 8), dtype=complex)
    d[0:2, 2:4] = y.conj().T
    d[2:4, 0:2] = y
    d[4:6, 6:8] = y.T
    d[6:8, 4:6] = y.conj()

    swap = np.zeros((8, 8), dtype=complex)
    swap[0:4, 4:8] = np.eye(4)
    swap[4:8, 0:4] = np.eye(4)

    grading = np.diag([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0]).astype(complex)

    gens = (
        represent_ew(1.0, np.zeros((2, 2))),
        represent_ew(1.0j, np.zeros((2, 2))),
        represent_ew(0.0, quaternion(1.0, 0.0)),
        represent_ew(0.0, quaternion(1.0j, 0.0)),
        represent_ew(0.0, quaternion(0.0, 1.0)),
        represent_ew(0.0, quaternion(0.0, 1.0j)),
    )
    return FiniteTriple(dim_H=8, algebra_generators=gens, D_F=d, J_F=swap,
                        gamma_F=grading, labels=ELECTROWEAK_LABELS)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def passed(self, name: str) -> bool:
        for c in self.checks:
            if c.name == name:
                return c.passed
        raise KeyError(name)


def _max_abs(m) -> float:
    return float(np.max(np.abs(m), initial=0.0))


def _span_residual(products, generators) -> float:
    """Worst residual of real-linear least-squares fits of products onto the
    span of the generators."""
    cols = np.stack([np.concatenate([g.real.ravel(), g.imag.ravel()])
                     for g in generators], axis=1)
    worst = 0.0
    for p in products:
        rhs = np.concatenate([p.real.ravel(), p.imag.ravel()])
        coef, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
        worst = max(worst, _max_abs(cols @ coef - rhs))
    return worst


def validate_axioms(triple: FiniteTriple, tol: float = 1e-10) -> ValidationReport:
    """Check the finite-triple axioms; failures become report entries.

    Checks: (a) D_F Hermitian, (b) generator products stay in the real span
    of the generators, (c) order zero [a, J b* J^-1] = 0, (d) first order
    [[D_F, a], J b* J^-1] = 0, (e) grading relations.  (c)-(e) run only when
    J_F / gamma_F are present.
    """
    checks = []
    d = triple.D_F
    gens = triple.algebra_generators

    herm = _max_abs(d - d.conj().T)
    checks.append(AxiomCheck("dirac_hermitian", herm <= tol,
                             f"max |D_F - D_F^dag| = {herm:.3e}"))

    if gens:
        products = [gi @ gj for gi in gens for gj in gens]
        res = _span_residual(products, gens)
        checks.append(AxiomCheck("algebra_closure", res <= tol,
                                 f"worst span residual = {res:.3e}"))
    else:
        checks.append(AxiomCheck("algebra_closure", False, "no generators"))

    if triple.J_F is not None:
        worst0 = worst1 = 0.0
        for a in gens:
            da = d @ a - a @ d
            for b in gens:
                bo = triple.conjugate_by_real_structure(b.conj().T)
                worst0 = max(worst0, _max_abs(a @ bo - bo @ a))
                worst1 = max(worst1, _max_abs(da @ bo - bo @ da))
        checks.append(AxiomCheck("order_zero", worst0 <= tol,
                                 f"max |[a, J b* J^-1]| = {worst0:.3e}"))
        checks.append(AxiomCheck("first_order", worst1 <= tol,
                                 f"max |[[D_F, a], J b* J^-1]| = {worst1:.3e}"))

    if triple.gamma_F is not None:
        g = triple.gamma_F
        sq = _max_abs(g @ g - np.eye(triple.dim_H))
        comm = max((_max_abs(a @ g - g @ a) for a in gens), default=0.0)
        anti = _max_abs(d @ g + g @ d)
        worst = max(sq, comm, anti)
        checks.append(AxiomCheck(
            "grading", worst <= tol,
            f"|gamma^2 - 1| = {sq:.3e}, |[a, gamma]| = {comm:.3e}, "
            f"|{{D_F, gamma}}| = {anti:.3e}"))

    return ValidationReport(tuple(checks))


# --- JSON serialization ----------------------------------------------------
# Complex numbers are encoded as [re, im]; matrices as row-major nested lists.

def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def decode_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise DomainError(f"expected [re, im], got {pair!r}")
    return complex(float(pair[0]), float(pair[1]))


def encode_matrix(m) -> list:
    return [[encode_complex(x) for x in row] for row in np.asarray(m, dtype=complex)]


def decode_matrix(rows) -> np.ndarray:
    return np.array([[decode_complex(x) for x in row] for row in rows], dtype=complex)


def triple_to_dict(triple: FiniteTriple) -> dict:
    return {
        "dim_H": triple.dim_H,
        "generators": [encode_matrix(g) for g in triple.algebra_generators],
        "D_F": encode_matrix(triple.D_F),
        "J_F": None if triple.J_F is None else encode_matrix(triple.J_F),
        "gamma_F": None if triple.gamma_F is None else encode_matrix(triple.gamma_F),
        "labels": list(triple.labels),
    }


def triple_from_dict(doc: dict) -> FiniteTriple:
    try:
        return FiniteTriple(
            dim_H=int(doc["dim_H"]),
            algebra_generators=tuple(decode_matrix(g) for g in doc["generators"]),
            D_F=decode_matrix(doc["D_F"]),
            J_F=None if doc.get("J_F") is None else decode_matrix(doc["J_F"]),
            gamma_F=None if doc.get("gamma_F") is None else decode_matrix(doc["gamma_F"]),
            labels=tuple(doc.get("labels") or ()),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed triple document: {exc}") from exc


def save_triple(triple: FiniteTriple, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(triple_to_dict(triple), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_triple(path) -> FiniteTriple:
    with open(path, encoding="utf-8") as fh:
        return triple_from_dict(json.load(fh))
