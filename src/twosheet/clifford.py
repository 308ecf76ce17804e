"""Gamma matrices, Krein product and Krein adjoint in signature (-,+,+,+).

Conventions used throughout the package:

    gamma^0 = i*diag(1, 1, -1, -1)              anti-Hermitian, squares to -1
    gamma^k = [[0, sigma_k], [sigma_k, 0]]      Hermitian, square to +1
    gamma5  = i*gamma^0 gamma^1 gamma^2 gamma^3 Hermitian, squares to +1
    J       = i*gamma^0 = diag(-1, -1, 1, 1)    fundamental symmetry

The indefinite (Krein) product of two spinors is (phi, psi) = phi^dag J psi,
so that the associated product (phi, J psi) is the plain positive-definite
Euclidean one.  On a tensor product C^4 (x) C^n the symmetry acts as
J (x) 1_n.  The sign of J is fixed by requiring the global time function t
to be a causal function, i.e. J*[D, t] = J*(-i gamma^0) negative definite.

All matrices here have exact entries in {0, +-1, +-i}; the construction is
closed form and the algebraic identities hold without floating-point error.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True, eq=False)
class GammaBasis:
    """The four gamma matrices plus gamma5, metric and fundamental symmetry."""

    gamma: tuple
    gamma5: np.ndarray
    metric: np.ndarray
    fundamental_symmetry: np.ndarray


def _freeze(a):
    a.setflags(write=False)
    return a


def build_gamma_basis() -> GammaBasis:
    """Construct the fixed gamma representation described in the module docstring."""
    g0 = 1j * np.diag([1, 1, -1, -1]).astype(complex)
    off = np.array([[0, 1], [1, 0]], dtype=complex)
    gammas = (g0,) + tuple(np.kron(off, sk) for sk in PAULI)
    gamma5 = 1j * gammas[0] @ gammas[1] @ gammas[2] @ gammas[3]
    metric = np.diag([-1.0, 1.0, 1.0, 1.0])
    symmetry = 1j * g0
    return GammaBasis(
        gamma=tuple(_freeze(g) for g in gammas),
        gamma5=_freeze(gamma5),
        metric=_freeze(metric),
        fundamental_symmetry=_freeze(symmetry),
    )


def matrices_close(a, b, tol: float = 1e-12) -> bool:
    """Tolerance-based matrix equality (the only equality used on operators)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b), initial=0.0) <= tol)


def slash(k, basis: GammaBasis) -> np.ndarray:
    """gamma^mu k_mu for a covector k = (k_0, k_1, k_2, k_3)."""
    return sum(k[mu] * basis.gamma[mu] for mu in range(4))


def extended_symmetry(basis: GammaBasis, dim: int) -> np.ndarray:
    """J (x) 1_n acting on a spinor space of total dimension dim = 4*n."""
    if dim <= 0 or dim % 4:
        raise DimensionError(f"spinor dimension {dim} is not a positive multiple of 4")
    return np.kron(basis.fundamental_symmetry, np.eye(dim // 4))


def krein_product(phi, psi, basis: GammaBasis) -> complex:
    """Indefinite product (phi, psi) = phi^dag (J (x) 1_n) psi.

    Conjugate-linear in the first argument, so (phi, psi) = conj((psi, phi)).
    """
    phi = np.asarray(phi, dtype=complex).ravel()
    psi = np.asarray(psi, dtype=complex).ravel()
    if phi.shape != psi.shape:
        raise DimensionError(f"spinor dimensions differ: {phi.shape} vs {psi.shape}")
    j = extended_symmetry(basis, phi.size)
    return complex(np.vdot(phi, j @ psi))


def krein_adjoint(a, basis: GammaBasis) -> np.ndarray:
    """Krein adjoint A+ = (J (x) 1_n) A^dag (J (x) 1_n); involutive."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    j = extended_symmetry(basis, a.shape[0])
    return j @ a.conj().T @ j
