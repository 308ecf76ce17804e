"""Connes spectral distance on finite triples, with a grid oracle.

The distance between states w, w' of a commutative internal algebra is

    d(w, w') = sup { |w(a) - w'(a)| : a = a*, ||[D_F, a]|| <= 1 },

with ||.|| the spectral norm.  For diagonal generators g_k it is the convex
problem max d.c subject to ||sum_k c_k [D_F, g_k]|| <= 1 over real c, with
d_k = w_k - w'_k, which a log-det barrier method solves.  A dual matrix,
whose nuclear norm (the dual of the spectral norm) bounds the distance from
above, certifies the answer; the grid oracle bounds it from below.  The
oracle visits grid points in decreasing |c.d| and stops at the first feasible
one, which returns the maximum over the whole grid.  Tests spot-check that
complex c, i.e. a not self-adjoint, never do better.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, OracleIntractable, StateError, UnsupportedAlgebra,
                     UnsupportedTriple)
from .finite_triple import FiniteTriple

_KERNEL_RTOL = 1e-12
_GAP_RTOL = 1e-9
_NEWTON_BUDGET = 200
_T_GROWTH = 32.0
_CENTERED = 2e-3  # squared Newton decrement that ends a centering round
_RCOND = 1e-10  # fits ignore near-null directions, such as both weights of a +-pair


@dataclass(frozen=True, eq=False)
class AlgebraState:
    """Convex weights over the diagonal-generator decomposition.

    The state evaluates a = sum_k c_k g_k to sum_k w_k c_k; vertices of the
    simplex are the pure states.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float).reshape(-1)
        object.__setattr__(self, "weights", w)
        if w.size == 0:
            raise StateError("state needs at least one weight")
        if not np.all(w >= -1e-12):  # also refuses NaN; +inf fails the sum
            raise StateError(f"negative or NaN weight in {w.tolist()}")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise StateError(f"weights sum to {float(w.sum())!r}, expected 1")

    @classmethod
    def pure(cls, index: int, n: int) -> "AlgebraState":
        if not 0 <= index < n:
            raise StateError(f"pure-state index {index} out of range for {n} generators")
        return cls(np.eye(n)[index])

    @classmethod
    def two_point_mixed(cls, xi: float) -> "AlgebraState":
        """The interpolating state with weights (xi, 1 - xi)."""
        return cls(np.array([xi, 1.0 - xi]))


@dataclass(frozen=True, eq=False)
class DistanceResult:
    """Distance value (may be +inf), the maximizing element, and oracle gap.

    A finite value has the certified upper bound ||dual||_*, where the dual
    matrix satisfies Re tr([D_F, g_k]^* dual) = d_k for every generator."""

    value: float
    maximizer: np.ndarray | None = None
    gap: float | None = None
    bound: float | None = None
    dual: np.ndarray | None = None

    @property
    def is_infinite(self) -> bool:
        return math.isinf(self.value)


@dataclass(frozen=True)
class GridSpec:
    """Grid parameters for the grid oracle.

    step is the coefficient spacing; radius overrides the per-axis box
    half-width (default 1.05 / ||[D_F, g_k]||, exact for the two-point
    family).  feasibility_slack admits boundary points that round just
    outside the constraint.  max_points caps the grid: with k axes a point
    holds 8k bytes of coordinates (16k while the grid is built), and the
    search adds 16 bytes per point for |c.d| and the visiting order, 8 more
    while sorting; the SVDs run on chunks of at most 65536 points.
    """

    step: float = 1e-3
    radius: float | None = None
    feasibility_slack: float = 1e-9
    max_points: int = 2_000_000


def _generators_and_difference(triple: FiniteTriple, state_a, state_b):
    """The diagonal generators g_k and the weight difference d = w_a - w_b."""
    gens = triple.algebra_generators
    if not gens:
        raise UnsupportedAlgebra("triple has no algebra generators")
    for g in gens:
        off = g - np.diag(np.diag(g))
        if np.max(np.abs(off), initial=0.0) > 1e-14:
            raise UnsupportedAlgebra(
                "distance is implemented for diagonally represented "
                "(commutative) internal algebras only")
    for state in (state_a, state_b):
        if not isinstance(state, AlgebraState):
            raise StateError(f"expected AlgebraState, got {type(state).__name__}")
        if state.weights.size != len(gens):
            raise StateError(f"{state.weights.size} weights for {len(gens)} generators")
    return gens, state_a.weights - state_b.weights


def _commutators(d_f: np.ndarray, gens) -> np.ndarray:
    return np.stack([d_f @ g - g @ d_f for g in gens])


def _real_rows(basis: np.ndarray) -> np.ndarray:
    """Row k is [Re B_k, Im B_k] flattened, so <B_k, X> = row_k . [Re X, Im X]."""
    return np.concatenate([basis.real, basis.imag], axis=1).reshape(basis.shape[0], -1)


def _row_space(comms: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the effective coefficient space (the row space)."""
    _, s, vt = np.linalg.svd(_real_rows(comms).T, full_matrices=False)
    cutoff = max(float(s[0]) * _KERNEL_RTOL, 1e-14) if s.size else 0.0
    return vt[:int(np.sum(s > cutoff))].T


def _fit(basis: np.ndarray, e: np.ndarray, y: np.ndarray) -> np.ndarray:
    """y plus the least-norm Hermitian correction that makes <B_k, y> = e_k exact."""
    r = e - np.real(np.einsum("kij,ji->k", basis, y))
    x = np.linalg.lstsq(_real_rows(basis), r, rcond=_RCOND)[0].reshape(2, *basis.shape[1:])
    x = x[0] + 1j * x[1]
    return y + (x + x.conj().T) / 2


def _active_parts(basis, e, lam, vecs, t):
    """A step moving the eigenvalues within 10||H||/sqrt(t) of +-||H|| onto +-||H||
    to first order, and a dual fitting their KKT weights in the active blocks
    (one per sign, by complementary slackness), then in the whole space."""
    top = np.abs(lam).max()
    act = np.abs(lam) >= (1.0 - 10 * t ** -0.5) * top
    u, lam = vecs[:, act], lam[act]
    inner = (u.conj().T @ basis @ u) * (np.sign(lam)[:, None] == np.sign(lam)[None, :])
    target = np.diag(np.sign(lam) * top - lam)
    step = np.linalg.lstsq(_real_rows(inner).T, _real_rows(target[None])[0], rcond=_RCOND)[0]
    y = u @ _fit(inner, e, np.diag((1 / (1 - lam) - 1 / (1 + lam)) / t)) @ u.conj().T
    return step, _fit(basis, e, y)


def _barrier_solve(basis: np.ndarray, e: np.ndarray, unit: float):
    """max e.z subject to -I <= H(z) = sum_k z_k B_k <= I, for Hermitian B_k.

    Newton steps on -t e.z - logdet(I - H) - logdet(I + H), each trial kept
    strictly inside, with t raised between rounds.  Each round offers points
    scaled to ||H|| = 1 and duals Y with <B_k, Y> = e_k, so e.z <= ||Y||_*:
    its iterate, the active-set step, and Richardson extrapolations that
    cancel the O(1/t) term of the central path.  unit * value is a distance."""
    def barrier(z, t):  # eigh, as in the step, so that accepted points keep |lam| < 1
        lam = np.linalg.eigh(np.tensordot(z, basis, 1))[0]
        if lam[0] <= -1.0 or lam[-1] >= 1.0:
            return math.inf
        return -t * float(e @ z) - float(np.log1p(-lam).sum() + np.log1p(lam).sum())

    z, t, steps, stalled, prev = np.zeros(len(e)), 1.0, 0, False, None
    value, point, bound, dual = 0.0, z, math.inf, None
    while True:
        while steps < _NEWTON_BUDGET and not stalled:
            steps += 1
            lam, vecs = np.linalg.eigh(np.tensordot(z, basis, 1))
            rot = vecs.conj().T @ basis @ vecs
            a, b = 1 / (1 - lam), 1 / (1 + lam)
            grad = np.real(np.diagonal(rot, axis1=1, axis2=2)) @ (a - b) - t * e
            hess = np.real(np.einsum("kij,lji,ij->kl", rot, rot,
                                     np.outer(a, a) + np.outer(b, b)))
            dz = -np.linalg.lstsq(hess, grad, rcond=None)[0]
            decrement, f0, s = -float(grad @ dz), barrier(z, t), 1.0
            while s >= 1e-12 and barrier(z + s * dz, t) > f0 - 0.25 * s * decrement:
                s /= 2
            if not (stalled := s < 1e-12):
                z = z + s * dz
            if decrement <= _CENTERED:
                break
        step, y = _active_parts(basis, e, *np.linalg.eigh(np.tensordot(z, basis, 1)), t)
        z0, y0 = prev or (z, y)
        prev = z, y
        for p in (z, z + step, (_T_GROWTH * z - z0) / (_T_GROWTH - 1)):
            p = p / np.abs(np.linalg.eigvalsh(np.tensordot(p, basis, 1))).max()
            if float(e @ p) > value:
                value, point = float(e @ p), p
        for y in (y, (_T_GROWTH * y - y0) / (_T_GROWTH - 1)):
            if (norm := float(np.abs(np.linalg.eigvalsh(y)).sum())) < bound:
                bound, dual = norm, y
        if (stalled or steps >= _NEWTON_BUDGET
                or unit * (bound - value) <= _GAP_RTOL * max(1.0, unit * value)):
            return value, point, bound, dual
        t *= _T_GROWTH


def connes_distance(triple: FiniteTriple, state_a: AlgebraState, state_b: AlgebraState,
                    *, oracle_step: float | None = None, tol: float = 1e-12) -> DistanceResult:
    """Spectral distance between two states of a diagonal internal algebra.

    Deterministic; bound - value <= 1e-9 max(1, value) unless the solver
    stops first (Newton budget, or a line search that rounding defeats).
    Pass oracle_step to also record |value - grid oracle| in the gap field."""
    gens, d = _generators_and_difference(triple, state_a, state_b)
    value, maximizer, bound, dual = 0.0, np.zeros_like(triple.D_F), 0.0, np.zeros_like(triple.D_F)
    if float(np.max(np.abs(d), initial=0.0)) > tol:
        # d(lambda D) = d(D) / lambda: solve at unit scale so that no SVD overflows
        re, im = triple.D_F.real, triple.D_F.imag
        scale = max(float(np.abs(re).max()), float(np.abs(im).max())) or 1.0
        comms = _commutators(re / scale + 1j * (im / scale), gens)
        row = _row_space(comms)
        # d not vanishing on the null space of the commutator map: a feasible ray
        if np.linalg.norm(d - row @ (row.T @ d)) > 1e-12 * np.linalg.norm(d):
            return DistanceResult(math.inf, None, None)
        # K(c) is anti-Hermitian, so H(z) = i K(row z) is Hermitian and affine in z
        basis = 1j * np.tensordot(row.T, comms, axes=1)
        if np.abs(basis - basis.conj().transpose(0, 2, 1)).max() > 1e-12 * np.abs(basis).max():
            raise UnsupportedTriple("distance needs a self-adjoint D_F and generators")
        size = float(np.linalg.norm(row.T @ d))  # solved with e / |e| and D_F / scale
        value, z, bound, dual = _barrier_solve(basis, row.T @ d / size, size / scale)
        value, bound, dual = (x * size / scale for x in (value, bound, -1j * dual))
        maximizer = np.tensordot(row @ z / scale, np.stack(gens), axes=1)
    gap = None if oracle_step is None else abs(value - connes_distance_oracle(
        triple, state_a, state_b, GridSpec(step=oracle_step)))
    return DistanceResult(value, maximizer, gap, bound, dual)


def _oracle_grid(triple: FiniteTriple, state_a: AlgebraState, state_b: AlgebraState,
                 grid: GridSpec):
    """The oracle's grid points, their axes' commutators and objective weights.

    None when the bound is 0 without a search: equal states, or no axis left."""
    gens, d = _generators_and_difference(triple, state_a, state_b)
    if not (math.isfinite(grid.step) and grid.step > 0):
        raise DomainError(f"grid step must be positive and finite, got {grid.step!r}")
    if grid.radius is not None and not (math.isfinite(grid.radius) and grid.radius > 0):
        raise DomainError(f"grid radius must be positive and finite, got {grid.radius!r}")
    if not (math.isfinite(grid.feasibility_slack) and grid.feasibility_slack >= 0):
        raise DomainError("feasibility slack must be nonnegative and finite, "
                          f"got {grid.feasibility_slack!r}")
    if float(np.max(np.abs(d), initial=0.0)) == 0.0:
        return None

    comms = _commutators(triple.D_F, gens)
    total = np.sum(np.stack([np.diag(g) for g in gens]), axis=0)
    partitions = bool(np.max(np.abs(total - 1.0)) <= 1e-12)
    active = range(len(gens) - 1 if partitions else len(gens))

    radii, kept = [], []
    for k in active:
        nu_k = float(np.linalg.svd(comms[k], compute_uv=False)[0])
        if nu_k <= 1e-13:
            if abs(d[k]) > 1e-12:
                raise OracleIntractable(
                    "a null coefficient direction carries objective weight; "
                    "the supremum is not finite")
            continue
        radii.append(grid.radius if grid.radius is not None else 1.05 / nu_k)
        kept.append(k)

    if not kept:
        return None
    if len(kept) > 4:
        raise OracleIntractable(f"{len(kept)} grid dimensions exceed the supported 4")
    sizes = [(r + 0.5 * grid.step + r) / grid.step for r in radii]  # np.arange's, before it runs
    if max(sizes) > grid.max_points or math.prod(map(math.ceil, sizes)) > grid.max_points:
        raise OracleIntractable(f"grid of {math.prod(sizes):.4g} points exceeds {grid.max_points}")
    axes = [np.arange(-r, r + 0.5 * grid.step, grid.step) for r in radii]

    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return points, comms[kept], d[kept]


def connes_distance_oracle(triple: FiniteTriple, state_a: AlgebraState,
                           state_b: AlgebraState, grid: GridSpec = GridSpec()) -> float:
    """Largest |c.d| over the feasible grid points; a certified lower bound.

    Visits grid points in decreasing |c.d| and stops at the first feasible
    one, which returns the maximum over the whole grid: chunks of 256 points,
    doubling up to 65536, are tested in turn, and no point after the first
    chunk holding a feasible one scores more than any point in it.

    When the generators partition the identity, the identity direction is
    gauge-fixed away (it changes neither objective nor constraint), which
    drops one grid dimension.  Axes whose commutator vanishes contribute
    nothing to the objective of a finite instance and are dropped; if such an
    axis carries objective weight the supremum is infinite and no finite grid
    applies.
    """
    problem = _oracle_grid(triple, state_a, state_b, grid)
    if problem is None:
        return 0.0
    points, m_active, d_active = problem
    objective = np.abs(points @ d_active)
    order = np.argsort(-objective, kind="stable")
    lo, size = 0, 256
    while lo < order.size:
        chunk = order[lo:lo + size]
        sigma = np.linalg.svd(np.tensordot(points[chunk], m_active, axes=(1, 0)),
                              compute_uv=False)[:, 0]
        feasible = sigma <= 1.0 + grid.feasibility_slack
        if feasible.any():
            return float(objective[chunk[feasible]].max())
        lo, size = lo + size, min(2 * size, 65536)
    return 0.0


def product_distance_sq(d_m: float, d_f: float) -> float:
    """Squared distance of the product geometry: d_M^2 + d_F^2."""
    if d_m < 0 or d_f < 0:
        raise DomainError(f"distances must be nonnegative, got ({d_m}, {d_f})")
    return float(d_m) ** 2 + float(d_f) ** 2
