"""Causal structure of flat spacetime and of the two-sheet space.

Events live in Minkowski space with signature (-,+,+,+) and c = 1; "future"
means increasing t.  The two-sheet space attaches a sheet index in {0, 1} to
each event; crossing the sheets costs proper time pi/(2|m|), which is what
the rescaled extremal length squared

    L2_m = (4/pi^2) L2(x, y) + (i != j) / |m|^2

encodes: two pure points are causally related iff x precedes y and
L2_m <= 0.  Interpolating states carry a weight xi in [0, 1] instead of a
sheet index; they are causally related iff x precedes y and the proper time
reaches |arcsin(sqrt(eta)) - arcsin(sqrt(xi))| / |m|.

All causal inequalities are non-strict: null separations and exact
thresholds count as related.  Because the threshold arithmetic rounds, the
comparisons include a small absolute slack (default 1e-12) so that exact
boundary cases land on the causal side.
"""

import math
from dataclasses import dataclass

import numpy as np

from .clifford import GammaBasis, extended_symmetry, slash
from .errors import CausalityError, DomainError, InternalError, StateError, require_finite
from .finite_triple import two_point_triple

BOUNDARY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Event:
    """A point of Minkowski space: time t and spatial 3-vector x."""

    t: float
    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).reshape(-1)
        if x.shape != (3,):
            raise DomainError(f"spatial part must be a 3-vector, got shape {x.shape}")
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", x)
        require_finite("event components", self.t, x)

    @property
    def four_vector(self) -> np.ndarray:
        return np.concatenate(([self.t], self.x))


@dataclass(frozen=True)
class SheetPoint:
    """An event together with the sheet it sits on."""

    event: Event
    sheet: int

    def __post_init__(self):
        if self.sheet not in (0, 1):
            raise DomainError(f"sheet must be 0 or 1, got {self.sheet}")


@dataclass(frozen=True)
class MixedState:
    """An event with an interpolation weight xi between the two sheets."""

    event: Event
    xi: float

    def __post_init__(self):
        object.__setattr__(self, "xi", float(self.xi))
        if not 0.0 <= self.xi <= 1.0:
            raise StateError(f"xi must lie in [0, 1], got {self.xi}")


@dataclass(frozen=True, eq=False)
class EmbeddingMetric:
    """diag(-1, 1, 1, 1, 1/|m|^2): the ambient 5d metric of the two sheets."""

    g: np.ndarray
    m: complex

    @property
    def infinite_fiber(self) -> bool:
        return bool(math.isinf(self.g[4, 4]))


def _interval_sq(dt, dx_sq):
    """-(dt)^2 + |dx|^2 from dt and |dx|^2; elementwise on arrays."""
    return -dt * dt + dx_sq


def _precedes(dt, l2):
    """Time gap dt >= 0 and squared separation l2 <= 0; elementwise on arrays."""
    return (dt >= 0.0) & (l2 <= 0.0)


def minkowski_precedes(x: Event, y: Event) -> bool:
    """x precedes y: y is in the (closed) causal future of x."""
    return bool(_precedes(y.t - x.t, extremal_length_sq(x, y)))


def extremal_length_sq(x: Event, y: Event) -> float:
    """Signed squared separation -(dt)^2 + |dx|^2; <= 0 iff causally relatable."""
    dx = y.x - x.x
    return float(_interval_sq(y.t - x.t, dx @ dx))


def proper_time(x: Event, y: Event) -> float:
    """Longest proper time along causal curves from x to y (the straight line)."""
    if not minkowski_precedes(x, y):
        raise CausalityError("events are not causally related in this order")
    return math.sqrt(max(0.0, -extremal_length_sq(x, y)))


def proper_time_curve_oracle(x: Event, y: Event, *, n_curves: int = 200,
                             n_segments: int = 8, seed: int = 0,
                             amplitude: float = 0.3) -> float:
    """Longest proper time found over random piecewise-linear causal curves.

    Perturbs the interior nodes of the straight line and shrinks each
    perturbation by 30 bisection steps until every segment is causal,
    accumulating segment lengths sqrt(dt^2 - |dx|^2); all curves are drawn
    and bisected together.  The unperturbed straight line is always
    included, so the returned value is a tight lower bound on the true
    supremum; it is independent of the closed form used by proper_time.
    """
    if not minkowski_precedes(x, y):
        raise CausalityError("events are not causally related in this order")
    rng = np.random.default_rng(seed)
    base = np.linspace(x.four_vector, y.four_vector, n_segments + 1)
    scale = amplitude * (abs(y.t - x.t) + np.linalg.norm(y.x - x.x) + 1.0) / n_segments

    def causal_lengths(nodes):
        seg = np.diff(nodes, axis=-2)
        dt, dr = seg[..., 0], np.linalg.norm(seg[..., 1:], axis=-1)
        return (~np.any(dt < dr, axis=-1),
                np.sum(np.sqrt(np.maximum(0.0, dt * dt - dr * dr)), axis=-1))

    delta = np.zeros((n_curves,) + base.shape)
    delta[:, 1:-1] = scale * rng.standard_normal((n_curves, n_segments - 1, 4))
    lo, hi = causal_lengths(base + delta)[0].astype(float), np.ones(n_curves)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        ok = causal_lengths(base + mid[:, None, None] * delta)[0]
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    ok, lengths = causal_lengths(base + lo[:, None, None] * delta)
    return float(np.max(lengths, where=ok, initial=causal_lengths(base)[1]))


def _sheet_length_sq(l2, crossing: bool, m: complex):
    """L2_m from the Minkowski l2 (a float or an array); +inf for an m = 0 crossing."""
    base = (4.0 / math.pi**2) * l2
    if not crossing:
        return base
    return math.inf if m == 0 else base + 1.0 / abs(m) ** 2


def _pure_relation(dt, l2, crossing: bool, m: complex, tol: float):
    """Precedence plus L2_m <= tol from dt and l2; elementwise on arrays."""
    return _precedes(dt, l2) & (_sheet_length_sq(l2, crossing, m) <= tol)


def extremal_length_sq_sheets(p: SheetPoint, q: SheetPoint, m: complex) -> float:
    """Extremal length squared on the two-sheet space (+inf for m = 0 crossings)."""
    return _sheet_length_sq(extremal_length_sq(p.event, q.event), p.sheet != q.sheet, m)


def causally_related_pure(p: SheetPoint, q: SheetPoint, m: complex,
                          tol: float = BOUNDARY_TOL) -> bool:
    """Causal structure on pure points: precedence plus L2_m <= 0."""
    return bool(_pure_relation(q.event.t - p.event.t, extremal_length_sq(p.event, q.event),
                               p.sheet != q.sheet, m, tol))


def sheet_crossing_grid(t, r, m: complex, tol: float = BOUNDARY_TOL) -> np.ndarray:
    """causally_related_pure from the origin on sheet 0 to each (t_i, r_j, 0, 0) on sheet 1."""
    t = np.asarray(t, dtype=float)[:, None]
    return _pure_relation(t, _interval_sq(t, np.square(r)), True, m, tol)


def interpolation_threshold(xi: float, eta: float, m: complex) -> float:
    """Proper time |arcsin(sqrt(eta)) - arcsin(sqrt(xi))| / |m| needed to move
    weight xi to eta; at m = 0, 0 for equal weights and +inf otherwise."""
    if m == 0:
        return 0.0 if xi == eta else math.inf
    return abs(math.asin(math.sqrt(eta)) - math.asin(math.sqrt(xi))) / abs(m)


def causally_related_mixed(a: MixedState, b: MixedState, m: complex,
                           tol: float = BOUNDARY_TOL) -> bool:
    """Causal relation between interpolating states via the arcsin threshold."""
    if not minkowski_precedes(a.event, b.event):
        return False
    if m == 0:
        return abs(a.xi - b.xi) <= tol
    return proper_time(a.event, b.event) >= interpolation_threshold(a.xi, b.xi, m) - tol


def crossing_threshold(m: complex) -> float:
    """Minimal proper time for a sheet crossing: pi/(2|m|), +inf at m = 0."""
    require_finite("mass", m)
    return interpolation_threshold(0.0, 1.0, m)


def _hermitian_or_die(mat, context: str) -> np.ndarray:
    dev = float(np.max(np.abs(mat - mat.conj().T), initial=0.0))
    if dev > 1e-12 * max(1.0, float(np.max(np.abs(mat), initial=0.0))):
        raise InternalError(f"{context}: assembled matrix is not Hermitian (dev {dev:.3e})")
    return 0.5 * (mat + mat.conj().T)


def _largest_eigenvalue(mat) -> float:
    """lambda_max of a Hermitian cone matrix; no convergence (entries overflowed) is a DomainError."""
    try:
        return float(np.max(np.linalg.eigvalsh(mat)))
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"cone matrix eigenvalues did not converge: {exc}") from exc


def _gradient(k) -> np.ndarray:
    k = np.asarray(k, dtype=float).reshape(-1)
    if k.shape != (4,):
        raise DomainError(f"gradient must be a real 4-vector, got shape {k.shape}")
    return k


def affine_cone_matrix(k, basis: GammaBasis) -> np.ndarray:
    """J * [D, f] = J * (-i gamma^mu k_mu) for an affine f with gradient k."""
    k = _gradient(k)
    commutator = -1j * slash(k, basis)
    return _hermitian_or_die(basis.fundamental_symmetry @ commutator,
                             "affine_cone_matrix")


def affine_worst_eigenvalue(k, basis: GammaBasis) -> float:
    """Largest eigenvalue of the affine cone matrix; <= 0 iff f is causal."""
    return _largest_eigenvalue(affine_cone_matrix(k, basis))


def is_causal_affine_function(k, basis: GammaBasis, tol: float = BOUNDARY_TOL) -> bool:
    """Whether the affine function with gradient covector k is causal.

    [D, f] = -i gamma^mu k_mu for affine f, so the causal-cone condition
    (psi, [D, f] psi) <= 0 for all psi is exactly negative semidefiniteness
    of the Hermitian matrix J * (-i gamma^mu k_mu).  Equivalent to k being a
    future-directed causal covector, k_0 >= |k_vec|.
    """
    return affine_worst_eigenvalue(k, basis) <= tol


def two_sheet_cone_matrix(k0, k1, c0: float, c1: float, m: complex,
                          event: Event, basis: GammaBasis) -> np.ndarray:
    """(J (x) 1_2) [D, a] at one event, for a = a0 (+) a1 affine per sheet.

    The commutator splits into a slope part -i gamma^mu (x) diag(d_mu a0,
    d_mu a1) and the internal part gamma5 (x) [D_F, diag(a0(x), a1(x))].
    """
    k0, k1 = _gradient(k0), _gradient(k1)
    d_f = two_point_triple(m).D_F
    j_ext = extended_symmetry(basis, 8)
    slope = sum(-1j * np.kron(basis.gamma[mu], np.diag([k0[mu], k1[mu]]).astype(complex))
                for mu in range(4))
    values = np.diag([k0 @ event.four_vector + c0,
                      k1 @ event.four_vector + c1]).astype(complex)
    comm = d_f @ values - values @ d_f
    return _hermitian_or_die(j_ext @ (slope + np.kron(basis.gamma5, comm)),
                             "two_sheet_cone_matrix")


def two_sheet_worst_eigenvalue(k0, k1, c0: float, c1: float, m: complex,
                               points, basis: GammaBasis) -> float:
    """Largest cone eigenvalue over the events in the rows (t, x, y, z) of points.

    [D_F, diag(a0, a1)] = s [[0, m], [-conj(m), 0]] with s = a1(x) - a0(x), so
    the cone matrix is A + s B; its largest eigenvalue is convex in s and
    peaks at the sample of smallest or of largest s: two eigen-solves.
    """
    k0, k1 = _gradient(k0), _gradient(k1)
    points = np.asarray(points, dtype=float).reshape(-1, 4)
    if not len(points):
        raise DomainError("sample event set is empty")
    s = points @ k1 + c1 - (points @ k0 + c0)
    return max(_largest_eigenvalue(two_sheet_cone_matrix(
        k0, k1, c0, c1, m, Event(points[i, 0], points[i, 1:]), basis))
        for i in {int(np.argmin(s)), int(np.argmax(s))})


def is_causal_element_two_sheet(k0, k1, c0: float, c1: float, m: complex,
                                sample_events, basis: GammaBasis,
                                tol: float = BOUNDARY_TOL) -> bool:
    """Causal-cone test for a two-sheet element a = a0 (+) a1.

    a_i(x) = k_i . (t, x) + c_i affine with real coefficients.  The cone
    matrix must be negative semidefinite at every sample event.  The answer is
    exact over the convex hull of the samples: the matrix is affine in
    s = a1(x) - a0(x), itself affine in the event, and its largest eigenvalue
    is convex in s, so it peaks at a sample of extreme s.
    """
    points = [ev.four_vector for ev in sample_events]
    return two_sheet_worst_eigenvalue(k0, k1, c0, c1, m, points, basis) <= tol


def embedding_metric(m: complex) -> EmbeddingMetric:
    """The 5d metric diag(-1, 1, 1, 1, 1/|m|^2); infinite fiber at m = 0."""
    require_finite("mass", m)
    fiber = math.inf if m == 0 else 1.0 / abs(m) ** 2
    g = np.diag([-1.0, 1.0, 1.0, 1.0, fiber])
    g.setflags(write=False)
    return EmbeddingMetric(g=g, m=complex(m))
