"""Minkowski precedence, two-sheet causal structure, and cone conditions."""

import math

import numpy as np
import pytest

import twosheet as ts


def ev(t, x=0.0, y=0.0, z=0.0):
    return ts.Event(t, np.array([x, y, z], dtype=float))


def random_event(rng, t_range=3.0, x_range=2.0):
    return ts.Event(rng.uniform(-t_range, t_range),
                    rng.uniform(-x_range, x_range, size=3))


class TestPrecedence:
    def test_examples(self):
        origin = ev(0.0)
        assert ts.minkowski_precedes(origin, ev(1.0))
        assert not ts.minkowski_precedes(origin, ev(0.0, 1.0))
        assert ts.minkowski_precedes(origin, ev(1.0, 1.0))  # null is causal

    def test_partial_order(self, rng):
        events = [random_event(rng, t_range=2.0, x_range=1.0) for _ in range(60)]
        for e in events[:20]:
            assert ts.minkowski_precedes(e, e)  # reflexive
        checked = 0
        for _ in range(10_000):
            a, b, c = (events[i] for i in rng.integers(0, len(events), size=3))
            if ts.minkowski_precedes(a, b) and ts.minkowski_precedes(b, a):
                assert a.t == b.t and np.array_equal(a.x, b.x)  # antisymmetric
            if ts.minkowski_precedes(a, b) and ts.minkowski_precedes(b, c):
                assert ts.minkowski_precedes(a, c)  # transitive
                checked += 1
        assert checked > 100  # the sample actually exercised transitivity


class TestExtremalLength:
    def test_examples(self):
        assert ts.extremal_length_sq(ev(0.0), ev(1.0)) == -1.0
        assert ts.extremal_length_sq(ev(0.0), ev(1.0, 1.0)) == 0.0
        assert ts.extremal_length_sq(ev(0.0), ev(0.0, 1.0)) == 1.0

    def test_symmetric(self, rng):
        for _ in range(20):
            a, b = random_event(rng), random_event(rng)
            assert ts.extremal_length_sq(a, b) == ts.extremal_length_sq(b, a)


class TestProperTime:
    def test_examples(self):
        assert ts.proper_time(ev(0.0), ev(2.0)) == 2.0
        assert ts.proper_time(ev(0.0), ev(1.0, 1.0)) == 0.0
        assert ts.proper_time(ev(0.0), ev(5.0, 3.0)) == pytest.approx(4.0)

    def test_requires_precedence(self):
        with pytest.raises(ts.CausalityError):
            ts.proper_time(ev(0.0), ev(-1.0))
        with pytest.raises(ts.CausalityError):
            ts.proper_time(ev(0.0), ev(0.5, 2.0))

    def test_against_curve_supremum(self, rng):
        # the straight line maximizes length over piecewise-linear causal
        # curves; 20 pairs x 500 random curves
        for _ in range(20):
            dt = rng.uniform(2.0, 4.0)
            dx = rng.uniform(-0.8, 0.8, size=3)
            a = random_event(rng, 1.0, 1.0)
            b = ts.Event(a.t + dt, a.x + dx)
            tau = ts.proper_time(a, b)
            oracle = ts.proper_time_curve_oracle(a, b, n_curves=500,
                                                 seed=int(rng.integers(1 << 30)))
            assert oracle <= tau + 1e-9
            assert oracle >= tau - 1e-9  # straight line is included

    def test_derived_case_against_oracle(self):
        a, b = ev(0.0), ev(5.0, 3.0)
        oracle = ts.proper_time_curve_oracle(a, b, n_curves=300, seed=5)
        assert oracle == pytest.approx(4.0, abs=1e-9)


class TestTwoSheetLength:
    def test_same_event_crossing(self):
        p = ts.SheetPoint(ev(0.0), 0)
        q = ts.SheetPoint(ev(0.0), 1)
        assert ts.extremal_length_sq_sheets(p, q, 1.0) == pytest.approx(1.0)

    def test_threshold_crossing_is_null(self):
        for m in (0.5, 1.0, 2.0, 1 + 2j):
            p = ts.SheetPoint(ev(0.0), 0)
            q = ts.SheetPoint(ev(math.pi / (2 * abs(m))), 1)
            assert ts.extremal_length_sq_sheets(p, q, m) == pytest.approx(0.0, abs=1e-12)

    def test_same_sheet_reduces_to_minkowski(self, rng):
        for _ in range(20):
            a, b = random_event(rng), random_event(rng)
            p, q = ts.SheetPoint(a, 1), ts.SheetPoint(b, 1)
            expected = 4.0 / math.pi**2 * ts.extremal_length_sq(a, b)
            assert ts.extremal_length_sq_sheets(p, q, 0.7) == pytest.approx(expected)

    def test_degenerate_mass_is_infinite(self):
        p = ts.SheetPoint(ev(0.0), 0)
        q = ts.SheetPoint(ev(100.0), 1)
        assert math.isinf(ts.extremal_length_sq_sheets(p, q, 0.0))

    def test_strictly_decreasing_in_mass(self):
        p = ts.SheetPoint(ev(0.0), 0)
        q = ts.SheetPoint(ev(1.0, 0.5), 1)
        values = [ts.extremal_length_sq_sheets(p, q, m)
                  for m in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestCausalRelations:
    def test_pure_examples(self):
        same_sheet = (ts.SheetPoint(ev(0.0), 0), ts.SheetPoint(ev(1.0), 0))
        assert ts.causally_related_pure(*same_sheet, m=0.01)
        boundary = (ts.SheetPoint(ev(0.0), 0), ts.SheetPoint(ev(math.pi / 2), 1))
        assert ts.causally_related_pure(*boundary, m=1.0)
        assert not ts.causally_related_pure(ts.SheetPoint(ev(0.0), 0),
                                            ts.SheetPoint(ev(100.0), 1), m=0.0)

    def test_mixed_examples(self):
        a = ts.MixedState(ev(0.0), 0.3)
        b = ts.MixedState(ev(1.0), 0.3)
        assert ts.causally_related_mixed(a, b, m=0.01)

        lo = ts.MixedState(ev(0.0), 0.0)
        hi = ts.MixedState(ev(math.pi / 2), 1.0)
        assert ts.causally_related_mixed(lo, hi, m=1.0)
        hi_early = ts.MixedState(ev(math.pi / 2 - 1e-6), 1.0)
        assert not ts.causally_related_mixed(lo, hi_early, m=1.0)

    def test_endpoint_threshold_is_crossing_threshold(self):
        for m in (0.0, 0.5, 1.0, 2.0, 1 + 2j):
            assert ts.interpolation_threshold(0.0, 1.0, m) == pytest.approx(
                ts.crossing_threshold(m))
            assert ts.interpolation_threshold(0.3, 0.3, m) == 0.0

    def test_crossing_grid_matches_pure_relation(self, rng):
        t = np.concatenate([rng.uniform(-1.0, 4.0, size=12), [0.0, math.pi / 2]])
        r = np.concatenate([rng.uniform(-1.0, 3.0, size=9), [0.0]])
        origin = ts.SheetPoint(ev(0.0), 0)
        for m in (0.0, 1.0, 0.3 - 0.7j):
            grid = ts.sheet_crossing_grid(t, r, m)
            assert grid.shape == (len(t), len(r))
            for i, tt in enumerate(t):
                for j, rr in enumerate(r):
                    assert grid[i, j] == ts.causally_related_pure(
                        origin, ts.SheetPoint(ev(tt, rr), 1), m)

    def test_mixed_degenerate_mass(self):
        a = ts.MixedState(ev(0.0), 0.4)
        assert ts.causally_related_mixed(a, ts.MixedState(ev(5.0), 0.4), m=0.0)
        assert not ts.causally_related_mixed(a, ts.MixedState(ev(5.0), 0.6), m=0.0)

    def test_event_order_matters(self):
        a = ts.MixedState(ev(1.0), 0.0)
        b = ts.MixedState(ev(0.0), 0.0)
        assert not ts.causally_related_mixed(a, b, m=1.0)

    def test_pure_mixed_equivalence(self, rng):
        # endpoint mixed states reproduce the pure-point criterion
        disagreements = 0
        for m in (0.5, 1.0, 2.0):
            for _ in range(400):
                a, b = random_event(rng), random_event(rng)
                for i in (0, 1):
                    for j in (0, 1):
                        pure = ts.causally_related_pure(
                            ts.SheetPoint(a, i), ts.SheetPoint(b, j), m)
                        mixed = ts.causally_related_mixed(
                            ts.MixedState(a, float(i)), ts.MixedState(b, float(j)), m)
                        disagreements += pure != mixed
        assert disagreements == 0

    def test_mixed_monotone_in_time_gap(self, rng):
        for _ in range(25):
            xi, eta = rng.uniform(0, 1, size=2)
            dx = rng.uniform(-1, 1, size=3)
            m = rng.uniform(0.3, 2.0)
            flags = []
            for dt in np.linspace(0.0, 8.0, 60):
                a = ts.MixedState(ev(0.0), xi)
                b = ts.MixedState(ts.Event(dt, dx), eta)
                flags.append(ts.causally_related_mixed(a, b, m))
            assert flags == sorted(flags)  # no True -> False as dt grows

    def test_state_validation(self):
        with pytest.raises(ts.StateError):
            ts.MixedState(ev(0.0), 1.2)
        with pytest.raises(ts.DomainError):
            ts.SheetPoint(ev(0.0), 2)


class TestCausalFunctions:
    def test_time_function(self, basis):
        assert ts.is_causal_affine_function([1.0, 0, 0, 0], basis)
        mat = ts.affine_cone_matrix([1.0, 0, 0, 0], basis)
        assert ts.matrices_close(mat, -np.eye(4))

    def test_space_function(self, basis):
        assert not ts.is_causal_affine_function([0.0, 1.0, 0, 0], basis)
        eig = np.sort(np.linalg.eigvalsh(ts.affine_cone_matrix([0.0, 1.0, 0, 0], basis)))
        assert eig == pytest.approx([-1, -1, 1, 1])

    def test_null_function(self, basis):
        assert ts.is_causal_affine_function([1.0, 1.0, 0, 0], basis)
        eig = np.sort(np.linalg.eigvalsh(ts.affine_cone_matrix([1.0, 1.0, 0, 0], basis)))
        assert eig == pytest.approx([-2, -2, 0, 0])

    def test_agrees_with_geometric_criterion(self, basis, rng):
        for _ in range(1000):
            k = rng.uniform(-2, 2, size=4)
            geometric = k[0] >= np.linalg.norm(k[1:])
            assert ts.is_causal_affine_function(k, basis) == geometric

    def test_bad_gradient(self, basis):
        with pytest.raises(ts.DomainError):
            ts.is_causal_affine_function([1.0, 0.0], basis)


class TestTwoSheetCone:
    def sample_box(self, rng, n=6):
        return [random_event(rng) for _ in range(n)]

    def test_shared_time_function(self, basis, rng):
        k = [1.0, 0, 0, 0]
        for m in (0.0, 1.0, 2j):
            assert ts.is_causal_element_two_sheet(k, k, 0.0, 0.0, m,
                                                  self.sample_box(rng), basis)

    def test_opposite_time_functions(self, basis, rng):
        assert not ts.is_causal_element_two_sheet([1.0, 0, 0, 0], [-1.0, 0, 0, 0],
                                                  0.0, 0.0, 1.0,
                                                  self.sample_box(rng), basis)

    def test_shared_space_function(self, basis, rng):
        k = [0.0, 1.0, 0, 0]
        assert not ts.is_causal_element_two_sheet(k, k, 0.0, 0.0, 1.0,
                                                  self.sample_box(rng), basis)

    def test_empty_sample_set(self, basis):
        with pytest.raises(ts.DomainError):
            ts.is_causal_element_two_sheet([1, 0, 0, 0], [1, 0, 0, 0], 0.0, 0.0,
                                           1.0, [], basis)

    def test_offset_breaks_cone_where_sheets_differ(self, basis):
        # equal slopes but different offsets: the internal commutator grows
        # with |a0 - a1| and eventually dominates the -1 from the slope
        k = [1.0, 0, 0, 0]
        near = [ev(0.0)]
        assert ts.is_causal_element_two_sheet(k, k, 0.0, 0.1, 1.0, near, basis)
        assert not ts.is_causal_element_two_sheet(k, k, 0.0, 5.0, 1.0, near, basis)

    def test_worst_eigenvalue_covers_convex_hull(self, basis, rng):
        # lambda_max is convex in s = a1 - a0, so no event inside the hull of
        # the samples beats the samples of extreme s
        for _ in range(20):
            k0, k1 = rng.normal(size=4), rng.normal(size=4)
            c0, c1 = rng.normal(size=2)
            m = complex(*rng.normal(size=2))
            samples = rng.uniform(-2, 2, size=(5, 4))
            worst = ts.two_sheet_worst_eigenvalue(k0, k1, c0, c1, m, samples, basis)
            at_samples = [np.max(np.linalg.eigvalsh(ts.two_sheet_cone_matrix(
                k0, k1, c0, c1, m, ts.Event(p[0], p[1:]), basis))) for p in samples]
            assert worst == max(at_samples)
            for w in rng.dirichlet(np.ones(5), size=30):
                p = w @ samples
                inside = np.max(np.linalg.eigvalsh(ts.two_sheet_cone_matrix(
                    k0, k1, c0, c1, m, ts.Event(p[0], p[1:]), basis)))
                assert inside <= worst + 1e-12


class TestEmbeddingMetric:
    def test_unit_mass(self):
        metric = ts.embedding_metric(1.0)
        assert np.array_equal(metric.g, np.diag([-1.0, 1, 1, 1, 1]))
        assert not metric.infinite_fiber

    def test_mass_two(self):
        assert ts.embedding_metric(2.0).g[4, 4] == 0.25

    def test_degenerate(self):
        metric = ts.embedding_metric(0.0)
        assert metric.infinite_fiber
        assert math.isinf(metric.g[4, 4])

    def test_underflowing_mass_is_degenerate(self):
        # |m|^2 underflows to 0.0 for 0 < |m| < ~1e-162
        assert ts.embedding_metric(1e-300).infinite_fiber
        assert ts.embedding_metric(1e-161).g[4, 4] == 1.0 / abs(1e-161) ** 2


def test_event_validation():
    with pytest.raises(ts.DomainError):
        ts.Event(math.nan, np.zeros(3))
    with pytest.raises(ts.DomainError):
        ts.Event(0.0, np.zeros(2))
    with pytest.raises(ts.DomainError):
        ts.Event(0.0, np.array([1.0, 2.0, math.inf]))
