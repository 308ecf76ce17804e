"""Spectral distance: optimizer against analytic values and the grid oracle."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twosheet as ts
from twosheet import distance


def pure(i):
    return ts.AlgebraState.pure(i, 2)


def random_case(seed, n, complex_couplings):
    """A seeded n-point triple with every pair coupled, and two mixed states."""
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, 1)
    if complex_couplings:
        c = rng.standard_normal(iu[0].size) + 1j * rng.standard_normal(iu[0].size)
    else:
        c = rng.uniform(0.5, 1.5, size=iu[0].size)
    d = np.zeros((n, n), dtype=complex)
    d[iu] = c
    gens = tuple(np.diag(row).astype(complex) for row in np.eye(n))
    triple = ts.FiniteTriple(dim_H=n, algebra_generators=gens, D_F=d + d.conj().T)
    w = rng.dirichlet(np.ones(n), size=2)
    return triple, ts.AlgebraState(w[0]), ts.AlgebraState(w[1])


def three_point_triple(m1, m2):
    gens = tuple(np.diag(row).astype(complex) for row in np.eye(3))
    d = np.array([[0, m1, 0],
                  [np.conj(m1), 0, m2],
                  [0, np.conj(m2), 0]], dtype=complex)
    return ts.FiniteTriple(dim_H=3, algebra_generators=gens, D_F=d,
                           labels=("a", "b", "c"))


def exhaustive_oracle(triple, a, b, grid):
    """The oracle's grid with every point tested, in chunks of 65536.

    |c.d| is taken over the whole chunk before the feasible points are picked:
    numpy rounds a one-row product differently from the same row of a longer
    one, so picking first would make a point's score depend on its neighbours."""
    problem = distance._oracle_grid(triple, a, b, grid)
    if problem is None:
        return 0.0
    points, m_active, d_active = problem
    best = 0.0
    for lo in range(0, points.shape[0], 65536):
        chunk = points[lo:lo + 65536]
        sigma = np.linalg.svd(np.tensordot(chunk, m_active, axes=(1, 0)), compute_uv=False)[:, 0]
        feasible = sigma <= 1.0 + grid.feasibility_slack
        best = max(best, float(np.abs(chunk @ d_active)[feasible].max(initial=0.0)))
    return best


def oracle_case(seed):
    """A seeded 2- to 4-point triple, a pair of states and a grid of about 200 points."""
    rng = np.random.default_rng([seed, 23])
    n = int(rng.integers(2, 5))
    triple, a, b = random_case(seed, n, complex_couplings=bool(seed % 2))
    gens = triple.algebra_generators
    if seed % 3 == 0:  # not a partition of the identity: no axis is gauge-fixed
        gens = tuple(g * rng.uniform(0.5, 2.0) for g in gens)
        triple = ts.FiniteTriple(dim_H=n, algebra_generators=gens, D_F=triple.D_F)
    if seed % 4 == 0:
        i, j = rng.choice(n, size=2, replace=False)
        a, b = ts.AlgebraState.pure(int(i), n), ts.AlgebraState.pure(int(j), n)
    dims = n if seed % 3 == 0 else n - 1
    radius = float(rng.uniform(0.3, 3.0)) if seed % 5 == 0 else None
    width = 2 * radius if radius else 2.1 / float(np.abs(triple.D_F).max())
    step = width / {1: 200, 2: 12, 3: 6, 4: 4}[dims] * float(rng.uniform(0.8, 1.2))
    return triple, a, b, ts.GridSpec(step=step, radius=radius)


class TestTwoPointDistance:
    @pytest.mark.parametrize("m", [0.5, 1.0, 2.0, 10.0, 1 + 1j, 0.3 - 0.4j])
    def test_pure_states(self, m):
        result = ts.connes_distance(ts.two_point_triple(m), pure(0), pure(1))
        assert result.value == pytest.approx(1.0 / abs(m), abs=1e-9)

    def test_identical_states(self):
        result = ts.connes_distance(ts.two_point_triple(1.0), pure(0), pure(0))
        assert result.value == 0.0

    def test_mixed_states_match_analytic_and_oracle(self, rng):
        t = ts.two_point_triple(1.7)
        for _ in range(10):
            xi, eta = rng.uniform(0, 1, size=2)
            a = ts.AlgebraState.two_point_mixed(xi)
            b = ts.AlgebraState.two_point_mixed(eta)
            result = ts.connes_distance(t, a, b, oracle_step=1e-3)
            assert result.value == pytest.approx(abs(xi - eta) / 1.7, abs=1e-9)
            assert result.gap <= 2e-3

    def test_maximizer_achieves_value(self, basis):
        t = ts.two_point_triple(2.0)
        result = ts.connes_distance(t, pure(0), pure(1))
        a = result.maximizer
        # feasible and optimal: ||[D_F, a]|| = 1 and |w0(a) - w1(a)| = value
        comm = t.D_F @ a - a @ t.D_F
        assert np.linalg.svd(comm, compute_uv=False)[0] == pytest.approx(1.0, abs=1e-9)
        assert abs(a[0, 0] - a[1, 1]) == pytest.approx(result.value, abs=1e-9)

    def test_infinite_for_degenerate_mass(self):
        result = ts.connes_distance(ts.two_point_triple(0.0), pure(0), pure(1))
        assert result.is_infinite
        assert result.maximizer is None

    def test_zero_iff_equal_states(self, rng):
        t = ts.two_point_triple(1.0)
        for _ in range(20):
            xi, eta = rng.uniform(0, 1, size=2)
            d = ts.connes_distance(t, ts.AlgebraState.two_point_mixed(xi),
                                   ts.AlgebraState.two_point_mixed(eta)).value
            if xi == eta:
                assert d == 0.0
            else:
                assert d > 0.0
        same = ts.AlgebraState.two_point_mixed(0.37)
        assert ts.connes_distance(t, same, same).value == 0.0

    def test_symmetry(self, rng):
        t = ts.two_point_triple(0.8 + 0.6j)
        for _ in range(10):
            xi, eta = rng.uniform(0, 1, size=2)
            a = ts.AlgebraState.two_point_mixed(xi)
            b = ts.AlgebraState.two_point_mixed(eta)
            d_ab = ts.connes_distance(t, a, b).value
            d_ba = ts.connes_distance(t, b, a).value
            assert d_ab == pytest.approx(d_ba, abs=1e-9)

    def test_triangle_inequality(self, rng):
        t = ts.two_point_triple(1.3)
        for _ in range(100):
            s = [ts.AlgebraState.two_point_mixed(x) for x in rng.uniform(0, 1, size=3)]
            d01 = ts.connes_distance(t, s[0], s[1]).value
            d12 = ts.connes_distance(t, s[1], s[2]).value
            d02 = ts.connes_distance(t, s[0], s[2]).value
            assert d02 <= d01 + d12 + 1e-9

    def test_mass_scaling(self, rng):
        base = ts.connes_distance(ts.two_point_triple(1.0), pure(0), pure(1)).value
        for c in (2.0, 0.25, 3 + 4j):
            scaled = ts.connes_distance(ts.two_point_triple(c), pure(0), pure(1)).value
            assert scaled == pytest.approx(base / abs(c), abs=1e-9)

    def test_complex_coefficients_never_beat_self_adjoint(self, rng):
        # the sup over the full algebra is attained on self-adjoint elements
        t = ts.two_point_triple(1.3)
        best = ts.connes_distance(t, pure(0), pure(1)).value
        comms = [t.D_F @ g - g @ t.D_F for g in t.algebra_generators]
        d = pure(0).weights - pure(1).weights
        for _ in range(500):
            c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            k = c[0] * comms[0] + c[1] * comms[1]
            nu = float(np.linalg.svd(k, compute_uv=False)[0])
            if nu < 1e-12:
                continue
            assert abs(d @ c) / nu <= best + 1e-9


class TestOracle:
    def test_spec_instances(self):
        grid = ts.GridSpec(step=1e-3)
        val = ts.connes_distance_oracle(ts.two_point_triple(1.0), pure(0), pure(1), grid)
        assert val == pytest.approx(1.0, abs=1e-3)
        val = ts.connes_distance_oracle(ts.two_point_triple(2.0), pure(0), pure(1), grid)
        assert val == pytest.approx(0.5, abs=1e-3)
        assert ts.connes_distance_oracle(ts.two_point_triple(1.0), pure(0), pure(0)) == 0.0

    def test_never_exceeds_true_value(self, rng):
        for _ in range(5):
            m = complex(rng.standard_normal(), rng.standard_normal()) + 1.0
            xi, eta = rng.uniform(0, 1, size=2)
            a = ts.AlgebraState.two_point_mixed(xi)
            b = ts.AlgebraState.two_point_mixed(eta)
            oracle = ts.connes_distance_oracle(ts.two_point_triple(m), a, b,
                                               ts.GridSpec(step=1e-3))
            assert oracle <= abs(xi - eta) / abs(m) + 1e-9

    def test_three_point_optimizer_vs_oracle(self):
        t = three_point_triple(1.0, 0.6)
        a = ts.AlgebraState.pure(0, 3)
        b = ts.AlgebraState.pure(2, 3)
        step = 0.01
        radius = 1.1 * (1.0 + 1.0 / 0.6)
        oracle = ts.connes_distance_oracle(t, a, b, ts.GridSpec(step=step, radius=radius))
        result = ts.connes_distance(t, a, b)
        assert abs(result.value - oracle) <= 2 * step

    @pytest.mark.parametrize("seeds", [range(0, 100), range(100, 200)])
    def test_matches_exhaustive_search(self, seeds):
        for seed in seeds:
            case = oracle_case(seed)
            assert repr(ts.connes_distance_oracle(*case)) == repr(exhaustive_oracle(*case)), seed

    @pytest.mark.parametrize("i, j", [(0, 2), (0, 1), (1, 2)])
    def test_matches_exhaustive_search_on_ties(self, i, j):
        # for (0, 2) the objective is |c_0|, constant along the whole c_1 axis
        t = three_point_triple(1.0, 0.6)
        a, b = ts.AlgebraState.pure(i, 3), ts.AlgebraState.pure(j, 3)
        grid = ts.GridSpec(step=0.05)
        assert repr(ts.connes_distance_oracle(t, a, b, grid)) == repr(
            exhaustive_oracle(t, a, b, grid))

    def test_nothing_but_the_origin_feasible(self):
        t = ts.two_point_triple(1.0)
        # the axis {-2, 0, 2}: only c = 0 is feasible
        assert ts.connes_distance_oracle(t, pure(0), pure(1),
                                         ts.GridSpec(step=2.0, radius=2.0)) == 0.0
        # the axis {-1.5, 1.5} misses the origin: no point is feasible
        assert ts.connes_distance_oracle(t, pure(0), pure(1),
                                         ts.GridSpec(step=3.0, radius=1.5)) == 0.0
        same = ts.AlgebraState.two_point_mixed(0.3)
        assert ts.connes_distance_oracle(t, same, same) == 0.0

    def test_first_feasible_point_after_the_first_chunk(self):
        t = ts.two_point_triple(1.0)
        a, b = ts.AlgebraState.two_point_mixed(0.9), ts.AlgebraState.two_point_mixed(0.2)
        grid = ts.GridSpec(step=1e-3, radius=3.0)
        value = ts.connes_distance_oracle(t, a, b, grid)
        assert repr(value) == repr(exhaustive_oracle(t, a, b, grid))
        assert value == pytest.approx(0.7, abs=1e-3)
        # so many points score above the feasible maximum that neither of the
        # first two chunks (256 and 512 points) holds a feasible one
        points, _, d_active = distance._oracle_grid(t, a, b, grid)
        assert np.sum(np.abs(points @ d_active) > value) > 1000

    def test_peak_memory_at_step_001(self):
        # 346k points; the search adds 16 B per point (|c.d| and the visiting order)
        t = three_point_triple(1.0, 0.6)
        grid = ts.GridSpec(step=0.01, radius=1.1 * (1.0 + 1.0 / 0.6))
        tracemalloc.start()
        try:
            ts.connes_distance_oracle(t, ts.AlgebraState.pure(0, 3), ts.AlgebraState.pure(2, 3),
                                      grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2 ** 20

    def test_dimension_guard(self):
        gens = tuple(np.diag(row).astype(complex) for row in np.eye(6))
        d = np.zeros((6, 6), dtype=complex)
        for i in range(5):
            d[i, i + 1] = 1.0
            d[i + 1, i] = 1.0
        t = ts.FiniteTriple(dim_H=6, algebra_generators=gens, D_F=d)
        with pytest.raises(ts.OracleIntractable):
            ts.connes_distance_oracle(t, ts.AlgebraState.pure(0, 6),
                                      ts.AlgebraState.pure(5, 6))


class TestCertificate:
    @pytest.mark.parametrize("complex_couplings", [False, True])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_dual_bound(self, n, complex_couplings):
        for seed in range(3):
            triple, a, b = random_case(100 * n + seed, n, complex_couplings)
            result = ts.connes_distance(triple, a, b)
            comms = np.stack([triple.D_F @ g - g @ triple.D_F for g in triple.algebra_generators])
            pairing = np.real(np.einsum("kij,ij->k", comms.conj(), result.dual))
            assert np.max(np.abs(pairing - (a.weights - b.weights))) <= 1e-12
            nuclear = np.linalg.svd(result.dual, compute_uv=False).sum()
            assert nuclear == pytest.approx(result.bound, rel=1e-12)
            assert result.value <= result.bound * (1 + 1e-14)
            assert result.bound - result.value <= 1e-9
            a_max = result.maximizer
            comm = triple.D_F @ a_max - a_max @ triple.D_F
            assert np.linalg.svd(comm, compute_uv=False)[0] <= 1.0 + 1e-12
            assert (a.weights - b.weights) @ np.real(np.diag(a_max)) == pytest.approx(
                result.value, rel=1e-12)

    @pytest.mark.parametrize("complex_couplings", [False, True])
    def test_three_point_between_oracle_and_bound(self, complex_couplings):
        triple, a, b = random_case(7, 3, complex_couplings)
        result = ts.connes_distance(triple, a, b)
        oracle = ts.connes_distance_oracle(triple, a, b, ts.GridSpec(step=5e-3))
        assert 0.0 < oracle <= result.value * (1 + 1e-9)
        assert result.value <= result.bound * (1 + 1e-14)

    @pytest.mark.parametrize("case, ascent_value", [
        ((0, 3, False), 0.12170739256457866),
        ((1, 3, True), 0.33821998312485985),
        ((2, 5, False), 0.172653747230322),
        ((3, 5, True), 0.12848959976068275),
        ((4, 8, True), 0.1231707853974251),
    ])
    def test_never_below_multi_start_ascent(self, case, ascent_value):
        # values of the 16-start projected ascent that the barrier solver replaced
        assert ts.connes_distance(*random_case(*case)).value >= ascent_value - 1e-12

    def test_peak_memory_at_n16(self):
        # only the m x m right factor of the commutator SVD is kept, never its
        # 2n^2 x 2n^2 left factor (2 MB at n = 16)
        triple, a, b = random_case(1, 16, False)
        tracemalloc.start()
        try:
            ts.connes_distance(triple, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_scale_of_the_coupling(self):
        for m in (1e308, -1e308j, 1e-300):
            result = ts.connes_distance(ts.two_point_triple(m), pure(0), pure(1))
            assert result.value == pytest.approx(1.0 / abs(m), rel=1e-12)
            assert result.bound == pytest.approx(1.0 / abs(m), rel=1e-12)

    def test_non_self_adjoint_dirac_rejected(self):
        t = ts.two_point_triple(1.0)
        bad = ts.FiniteTriple(2, t.algebra_generators, np.array([[0, 1], [2, 0]], dtype=complex))
        with pytest.raises(ts.UnsupportedTriple):
            ts.connes_distance(bad, pure(0), pure(1))


class TestInputValidation:
    def test_noncommutative_algebra_rejected(self):
        with pytest.raises(ts.UnsupportedAlgebra):
            ts.connes_distance(ts.electroweak_triple(1.0),
                               ts.AlgebraState.pure(0, 6), ts.AlgebraState.pure(1, 6))

    def test_bad_states(self):
        t = ts.two_point_triple(1.0)
        with pytest.raises(ts.StateError):
            ts.AlgebraState(np.array([0.5, 0.6]))
        with pytest.raises(ts.StateError):
            ts.AlgebraState(np.array([-0.1, 1.1]))
        with pytest.raises(ts.StateError):
            ts.connes_distance(t, ts.AlgebraState(np.array([1.0])), pure(1))

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [math.inf, 0.0], [0.5, -math.inf]])
    def test_non_finite_weights(self, weights):
        with pytest.raises(ts.StateError):
            ts.AlgebraState(np.array(weights))

    @pytest.mark.parametrize("step", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_grid_step(self, step):
        with pytest.raises(ts.DomainError):
            ts.connes_distance_oracle(ts.two_point_triple(1.0), pure(0), pure(1),
                                      ts.GridSpec(step=step))

    @pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, math.inf, -math.inf])
    def test_bad_grid_radius(self, radius):
        for b in (pure(1), pure(0)):
            with pytest.raises(ts.DomainError):
                ts.connes_distance_oracle(ts.two_point_triple(1.0), pure(0), b,
                                          ts.GridSpec(radius=radius))

    @pytest.mark.parametrize("slack", [-1e-9, math.nan, math.inf])
    def test_bad_feasibility_slack(self, slack):
        with pytest.raises(ts.DomainError):
            ts.connes_distance_oracle(ts.two_point_triple(1.0), pure(0), pure(1),
                                      ts.GridSpec(feasibility_slack=slack))


class TestProductDistance:
    def test_examples(self):
        assert ts.product_distance_sq(3.0, 4.0) == 25.0
        assert ts.product_distance_sq(2.0, 0.0) == 4.0
        assert ts.product_distance_sq(0.0, 0.5) == 0.25

    def test_negative_rejected(self):
        with pytest.raises(ts.DomainError):
            ts.product_distance_sq(-1.0, 0.0)
        with pytest.raises(ts.DomainError):
            ts.product_distance_sq(0.0, -0.1)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(0, 1e3), b=st.floats(0, 1e3))
    def test_bounds(self, a, b):
        sq = ts.product_distance_sq(a, b)
        assert sq >= max(a, b) ** 2
        assert sq <= (a + b) ** 2 + 1e-6
