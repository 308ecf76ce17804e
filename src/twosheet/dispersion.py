"""Momentum-space Dirac operator and the causal/harmonic spinor classification.

A plane wave xi_p exp(i(-E t + p.x)) tensored with an internal state e_i
turns the Dirac operator of the product geometry into the matrix

    D(E, p) = gamma^mu k_mu (x) 1  +  gamma5 (x) D_F,      k = (-E, p),

and the classification quotient (D Psi, D Psi) / (Psi, Psi) of Krein
products evaluates, for e_i an eigenvector of D_F^2 with eigenvalue m_i^2,
to E^2 - |p|^2 - m_i^2.  The quotient is computed here purely by matrix
algebra; the closed form is only ever used to test it.
"""

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .clifford import GammaBasis, krein_product, slash
from .errors import DomainError, InternalError, KreinNullError, require_finite
from .finite_triple import FiniteTriple

KREIN_NULL_TOL = 1e-10

#: Default constant spinor: Krein norm +1 under J = i gamma^0.
DEFAULT_SPINOR = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
DEFAULT_SPINOR.setflags(write=False)


@dataclass(frozen=True, eq=False)
class PlaneWaveMode:
    """Energy, momentum, constant spinor, and internal basis index."""

    E: float
    p: np.ndarray
    spinor: np.ndarray = field(default_factory=lambda: DEFAULT_SPINOR.copy())
    internal: int = 0

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float).reshape(-1)
        spinor = np.asarray(self.spinor, dtype=complex).reshape(-1)
        if p.shape != (3,):
            raise DomainError(f"momentum must be a 3-vector, got shape {p.shape}")
        if spinor.shape != (4,):
            raise DomainError(f"spinor must have 4 components, got shape {spinor.shape}")
        if not np.any(np.abs(spinor) > 0):
            raise DomainError("spinor must be nonzero")
        object.__setattr__(self, "E", float(self.E))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "spinor", spinor)
        require_finite("energy and momentum", self.E, p)


class SpinorKind(Enum):
    CAUSAL = "Causal"
    HARMONIC = "Harmonic"
    NON_CAUSAL = "NonCausal"


@dataclass(frozen=True)
class SpinorClass:
    kind: SpinorKind
    ratio: float
    tolerance: float


def _internal_vector(triple: FiniteTriple, index: int) -> np.ndarray:
    if not 0 <= index < triple.dim_H:
        raise DomainError(f"internal index {index} out of range for dim_H = {triple.dim_H}")
    e = np.zeros(triple.dim_H, dtype=complex)
    e[index] = 1.0
    return e


def momentum_covector_matrix(E: float, p, basis: GammaBasis) -> np.ndarray:
    """gamma^mu k_mu for the plane-wave phase (-E t + p.x), i.e. k = (-E, p)."""
    p = np.asarray(p, dtype=float).reshape(-1)
    return slash(np.concatenate(([-float(E)], p)), basis)


def dirac_momentum(triple: FiniteTriple, mode: PlaneWaveMode, basis: GammaBasis) -> np.ndarray:
    """The (4 dim_H)-dimensional matrix D(E, p) acting on spinor (x) internal."""
    gk = momentum_covector_matrix(mode.E, mode.p, basis)
    return (np.kron(gk, np.eye(triple.dim_H)) +
            np.kron(basis.gamma5, triple.D_F))


def krein_ratio_matrix(dirac: np.ndarray, psi: np.ndarray, basis: GammaBasis,
                       null_tol: float = KREIN_NULL_TOL) -> float:
    """(D psi, D psi) / (psi, psi) for an explicit Dirac matrix and spinor."""
    denom = krein_product(psi, psi, basis)
    if abs(denom) < null_tol:
        raise KreinNullError(f"|(psi, psi)| = {abs(denom):.3e} below {null_tol}")
    num = krein_product(dirac @ psi, dirac @ psi, basis)
    ratio = num / denom
    if abs(ratio.imag) > 1e-10 * max(1.0, abs(ratio)):
        raise InternalError(f"classification quotient is not real: {ratio}")
    return float(ratio.real)


def krein_ratio(triple: FiniteTriple, mode: PlaneWaveMode, basis: GammaBasis,
                null_tol: float = KREIN_NULL_TOL) -> float:
    """Classification quotient of the plane-wave mode, by matrix algebra only."""
    psi = np.kron(mode.spinor, _internal_vector(triple, mode.internal))
    return krein_ratio_matrix(dirac_momentum(triple, mode, basis), psi, basis,
                              null_tol=null_tol)


def classify_spinor(triple: FiniteTriple, mode: PlaneWaveMode, basis: GammaBasis,
                    tol: float = 1e-9) -> SpinorClass:
    """Causal / Harmonic / NonCausal according to the sign of the quotient."""
    ratio = krein_ratio(triple, mode, basis)
    if abs(ratio) <= tol:
        kind = SpinorKind.HARMONIC
    elif ratio > tol:
        kind = SpinorKind.CAUSAL
    else:
        kind = SpinorKind.NON_CAUSAL
    return SpinorClass(kind=kind, ratio=ratio, tolerance=tol)


def on_shell_energy(p, m: float) -> float:
    """sqrt(|p|^2 + m^2): the energy that makes the mode harmonic."""
    p = np.asarray(p, dtype=float).reshape(-1)
    require_finite("momentum and mass", p, m)
    if m < 0:
        raise DomainError(f"mass must be nonnegative, got {m}")
    return math.sqrt(float(p @ p) + float(m) ** 2)


def internal_mass(triple: FiniteTriple, index: int) -> float:
    """sqrt(<e_i, D_F^2 e_i>): the mass of internal basis state i."""
    e = _internal_vector(triple, index)
    return float(np.linalg.norm(triple.D_F @ e))
