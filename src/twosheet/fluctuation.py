"""Scalar inner fluctuations of the electroweak model.

The fluctuated internal Dirac operator is

    Phi = D_F + a [D_F, b] + J_F a [D_F, b] J_F*

for algebra elements a, b of C + H.  The one-form a [D_F, b] lives in the
particle sector and its J_F conjugate fills the antiparticle sector, so Phi
is block diagonal, diag(phi, conj(phi)), with phi parameterized by a Higgs
doublet (h1 + 1, h2).  Phi is Hermitian exactly when the one-form is
self-adjoint; pair_for_higgs constructs, for any target doublet, a single
(a, b) pair that is admissible in this sense and reproduces phi.

Only the scalar sector is generated here: gauge-vector one-forms are out of
scope by construction.
"""

from dataclasses import dataclass, replace

import numpy as np

from .clifford import GammaBasis
from .dispersion import PlaneWaveMode, dirac_momentum, krein_ratio
from .errors import (DomainError, InternalError, NonHermitianError, UnsupportedTriple,
                     require_finite)
from .finite_triple import FiniteTriple, electroweak_triple, quaternion, represent_ew


@dataclass(frozen=True, eq=False)
class EWAlgebraElement:
    """An element (lambda, q) of C + H, with q in the 2x2 complex embedding."""

    scalar: complex
    quaternion: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.quaternion, dtype=complex)
        if q.shape != (2, 2):
            raise DomainError(f"quaternion part must be 2x2, got {q.shape}")
        if (abs(q[1, 0] + np.conj(q[0, 1])) > 1e-12
                or abs(q[1, 1] - np.conj(q[0, 0])) > 1e-12):
            raise DomainError("quaternion part must have the form [[a, b], [-conj(b), conj(a)]]")
        object.__setattr__(self, "scalar", complex(self.scalar))
        object.__setattr__(self, "quaternion", q)

    @classmethod
    def from_parts(cls, scalar: complex, alpha: complex, beta: complex) -> "EWAlgebraElement":
        return cls(scalar=scalar, quaternion=quaternion(alpha, beta))

    @classmethod
    def identity(cls) -> "EWAlgebraElement":
        return cls.from_parts(1.0, 1.0, 0.0)

    def represented(self) -> np.ndarray:
        return represent_ew(self.scalar, self.quaternion)


@dataclass(frozen=True)
class HiggsField:
    """Pointwise values of the Higgs doublet (h1 + 1, h2).

    After symmetry breaking the doublet is (v + h, 0) with v the vacuum
    expectation value and h the fluctuation; use broken() for that form.
    """

    h1: complex
    h2: complex
    v: float | None = None
    h: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "h1", complex(self.h1))
        object.__setattr__(self, "h2", complex(self.h2))
        require_finite("Higgs doublet", self.h1, self.h2)

    @classmethod
    def broken(cls, v: float, h: float) -> "HiggsField":
        return cls(h1=complex(v + h - 1.0), h2=0.0, v=float(v), h=float(h))

    @property
    def doublet(self) -> tuple:
        return (self.h1 + 1.0, self.h2)

    @property
    def doublet_norm_sq(self) -> float:
        return abs(self.h1 + 1.0) ** 2 + abs(self.h2) ** 2


def _require_electroweak(triple: FiniteTriple):
    if triple.dim_H != 8 or triple.J_F is None:
        raise UnsupportedTriple("operation needs the 8-dimensional electroweak triple "
                                "with a real structure")


def inner_fluctuation(triple: FiniteTriple, a: EWAlgebraElement,
                      b: EWAlgebraElement) -> np.ndarray:
    """Phi = D_F + a [D_F, b] + J_F a [D_F, b] J_F*, assembled literally.

    Defined for every pair; the result is Hermitian exactly when the
    one-form a [D_F, b] is self-adjoint (an admissible pair).
    """
    _require_electroweak(triple)
    rep_a = a.represented()
    rep_b = b.represented()
    one_form = rep_a @ (triple.D_F @ rep_b - rep_b @ triple.D_F)
    return triple.D_F + one_form + triple.conjugate_by_real_structure(one_form)


def higgs_phi(m_e: complex, field: HiggsField) -> np.ndarray:
    """The explicit 4x4 particle-sector block phi of the fluctuated operator."""
    m_e = complex(m_e)
    phi = np.zeros((4, 4), dtype=complex)
    phi[1, 2] = -np.conj(m_e) * field.h2
    phi[1, 3] = np.conj(m_e) * (field.h1 + 1.0)
    phi[2, 1] = -m_e * np.conj(field.h2)
    phi[3, 1] = m_e * (np.conj(field.h1) + 1.0)
    return phi


def higgs_phi_completion(m_e: complex, field: HiggsField) -> np.ndarray:
    """The 8x8 completion Phi = diag(phi, conj(phi))."""
    phi = higgs_phi(m_e, field)
    full = np.zeros((8, 8), dtype=complex)
    full[:4, :4] = phi
    full[4:, 4:] = phi.conj()
    return full


def fluctuated_triple(m_e: complex, field: HiggsField) -> FiniteTriple:
    """The electroweak triple with D_F replaced by the fluctuated operator Phi."""
    return replace(electroweak_triple(m_e), D_F=higgs_phi_completion(m_e, field))


def pair_for_higgs(h1: complex, h2: complex) -> tuple:
    """An admissible (a, b) pair whose inner fluctuation realizes (h1, h2).

    Solving the self-adjointness conditions of the one-form for a single
    pair gives, with a = (1, [[alpha, beta], [-conj(beta), conj(alpha)]]) and
    b = (0, [[conj(h1), conj(h2)], ...]):

        alpha = (|h2|^2 - h1^2) / (|h1|^2 + |h2|^2),
        beta  = (1 - alpha) conj(h2) / h1,

    with the h1 -> 0 limit a = identity.  inner_fluctuation of the returned
    pair equals higgs_phi_completion(m_e, HiggsField(h1, h2)) for every m_e.
    """
    h1 = complex(h1)
    h2 = complex(h2)
    if abs(h1) < 1e-12 and abs(h2) < 1e-12:
        return EWAlgebraElement.identity(), EWAlgebraElement.identity()
    if abs(h1) < 1e-12:
        a = EWAlgebraElement.identity()
        b = EWAlgebraElement.from_parts(0.0, 0.0, np.conj(h2))
        return a, b
    norm_sq = abs(h1) ** 2 + abs(h2) ** 2
    alpha = (abs(h2) ** 2 - h1 ** 2) / norm_sq
    beta = (1.0 - alpha) * np.conj(h2) / h1
    a = EWAlgebraElement.from_parts(1.0, alpha, beta)
    b = EWAlgebraElement.from_parts(0.0, np.conj(h1), np.conj(h2))
    return a, b


def trace_phi_sq(phi: np.ndarray) -> float:
    """Numeric trace of phi^2; the imaginary residue must be negligible."""
    phi = np.asarray(phi, dtype=complex)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {phi.shape}")
    tr = complex(np.trace(phi @ phi))
    if abs(tr.imag) > 1e-10:
        raise NonHermitianError(f"trace of the square has imaginary part {tr.imag:.3e}")
    return tr.real


def trace_phi_sq_closed_form(m_e: complex, field: HiggsField) -> float:
    """2 |m_e|^2 (|h1 + 1|^2 + |h2|^2), the closed form for the 4x4 sector."""
    return 2.0 * abs(complex(m_e)) ** 2 * field.doublet_norm_sq


def fluctuated_dispersion(triple: FiniteTriple, m_e: complex, field: HiggsField,
                          E: float, p, state_label: str, basis: GammaBasis,
                          *, block_tol: float = 1e-12) -> float:
    """Classification quotient of a plane wave under the fluctuated operator.

    Replaces D_F by Phi in the triple, checks the cross-term cancellation
    D_Phi^2 = (|p|^2 - E^2) (x) 1 + 1 (x) Phi^2 on its dirac_momentum, and
    returns the Krein quotient for the plane wave on the named internal
    state.  A zero return is the fluctuated dispersion relation.
    """
    _require_electroweak(triple)
    mode = PlaneWaveMode(E, p, internal=triple.label_index(state_label))
    fluctuated = replace(triple, D_F=higgs_phi_completion(m_e, field))
    dirac = dirac_momentum(fluctuated, mode, basis)

    expected = ((float(mode.p @ mode.p) - mode.E ** 2) * np.eye(32)
                + np.kron(np.eye(4), fluctuated.D_F @ fluctuated.D_F))
    dev = float(np.max(np.abs(dirac @ dirac - expected)))
    scale = max(1.0, float(np.max(np.abs(expected))))
    if dev > block_tol * scale:
        raise InternalError(f"cross-term cancellation violated: residue {dev:.3e}")
    return krein_ratio(fluctuated, mode, basis)
