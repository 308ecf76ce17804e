"""Scalar inner fluctuations of the electroweak internal space."""

import numpy as np
import pytest

import twosheet as ts


def random_doublet(rng):
    return (complex(rng.standard_normal(), rng.standard_normal()),
            complex(rng.standard_normal(), rng.standard_normal()))


def fluctuated_ratio(m_e, field, E, p, label, basis):
    """Krein quotient of the plane wave on the named state of the fluctuated triple."""
    triple = ts.fluctuated_triple(m_e, field)
    mode = ts.PlaneWaveMode(E, p, internal=triple.label_index(label))
    return ts.krein_ratio(triple, mode, basis)


class TestInnerFluctuation:
    def test_identity_pair_gives_dirac(self):
        t = ts.electroweak_triple(0.7 - 0.3j)
        ident = ts.EWAlgebraElement.identity()
        assert ts.matrices_close(ts.inner_fluctuation(t, ident, ident), t.D_F, tol=1e-14)

    def test_block_structure_generic_pair(self, rng):
        # any pair produces the block-diagonal particle/antiparticle shape
        # with the Yukawa coupling pattern of the Higgs sector
        t = ts.electroweak_triple(1.3)
        lam_a, alpha_a = random_doublet(rng)
        lam_b, alpha_b = random_doublet(rng)
        a = ts.EWAlgebraElement.from_parts(lam_a, alpha_a, 1.1)
        b = ts.EWAlgebraElement.from_parts(lam_b, alpha_b, 0.2j)
        phi = ts.inner_fluctuation(t, a, b)
        assert np.max(np.abs(phi[:4, 4:])) == 0
        assert np.max(np.abs(phi[4:, :4])) == 0
        # nonzero entries only where the vacuum operator couples e_R to the
        # left-handed doublet
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 2] = mask[1, 3] = mask[2, 1] = mask[3, 1] = True
        assert np.max(np.abs(phi[:4, :4][~mask])) < 1e-12

    def test_hermitian_and_block_diagonal_for_admissible_pairs(self, rng):
        t = ts.electroweak_triple(0.8 + 0.1j)
        for _ in range(100):
            h1, h2 = random_doublet(rng)
            a, b = ts.pair_for_higgs(h1, h2)
            phi = ts.inner_fluctuation(t, a, b)
            assert ts.matrices_close(phi, phi.conj().T, tol=1e-10)
            assert np.max(np.abs(phi[:4, 4:])) == 0
            assert np.max(np.abs(phi[4:, :4])) == 0

    def test_wrong_triple_rejected(self):
        with pytest.raises(ts.UnsupportedTriple):
            ts.inner_fluctuation(ts.two_point_triple(1.0),
                                 ts.EWAlgebraElement.identity(),
                                 ts.EWAlgebraElement.identity())


class TestHiggsPhi:
    def test_vacuum_equals_dirac_exactly(self):
        for m_e in (1.0, 0.3 + 0.4j, 2.0j):
            t = ts.electroweak_triple(m_e)
            full = ts.higgs_phi_completion(m_e, ts.HiggsField(0.0, 0.0))
            assert np.array_equal(full, t.D_F)

    def test_vacuum_entries(self):
        phi = ts.higgs_phi(1.0, ts.HiggsField(0.0, 0.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 3] = 1.0
        expected[3, 1] = 1.0
        assert np.array_equal(phi, expected)

    def test_vanishing_doublet(self):
        phi = ts.higgs_phi(2.0, ts.HiggsField(-1.0, 0.0))
        assert np.array_equal(phi, np.zeros((4, 4)))

    def test_matches_inner_fluctuation(self, rng):
        for _ in range(50):
            h1, h2 = random_doublet(rng)
            m_e = complex(rng.standard_normal(), rng.standard_normal())
            t = ts.electroweak_triple(m_e)
            rebuilt = ts.inner_fluctuation(t, *ts.pair_for_higgs(h1, h2))
            target = ts.higgs_phi_completion(m_e, ts.HiggsField(h1, h2))
            assert ts.matrices_close(rebuilt, target, tol=1e-10)

    def test_matches_inner_fluctuation_edge_doublets(self):
        m_e = 1.1 - 0.2j
        t = ts.electroweak_triple(m_e)
        for h1, h2 in [(0.0, 0.0), (0.0, 1 + 2j), (3.0, 0.0), (1e-13, 2j), (-1.0, 0.0)]:
            rebuilt = ts.inner_fluctuation(t, *ts.pair_for_higgs(h1, h2))
            target = ts.higgs_phi_completion(m_e, ts.HiggsField(h1, h2))
            assert ts.matrices_close(rebuilt, target, tol=1e-9)

    def test_broken_field(self):
        field = ts.HiggsField.broken(2.0, 0.1)
        assert field.doublet == (pytest.approx(2.1), 0.0)
        assert field.v == 2.0 and field.h == 0.1


class TestTracePhiSq:
    def test_vacuum_value(self):
        phi = ts.higgs_phi(1.0, ts.HiggsField(0.0, 0.0))
        assert ts.trace_phi_sq(phi) == pytest.approx(2.0)

    def test_vanishing_doublet(self):
        phi = ts.higgs_phi(1.0, ts.HiggsField(-1.0, 0.0))
        assert ts.trace_phi_sq(phi) == 0.0

    def test_broken_vev(self):
        field = ts.HiggsField.broken(3.0, 0.1)
        phi = ts.higgs_phi(2.0, field)
        expected = 2 * 4 * 3.1**2
        assert ts.trace_phi_sq(phi) == pytest.approx(expected, abs=1e-12 * expected)
        assert ts.trace_phi_sq_closed_form(2.0, field) == pytest.approx(expected)

    def test_numeric_equals_closed_form(self, rng):
        for _ in range(1000):
            h1, h2 = random_doublet(rng)
            m_e = complex(rng.standard_normal(), rng.standard_normal())
            field = ts.HiggsField(h1, h2)
            numeric = ts.trace_phi_sq(ts.higgs_phi(m_e, field))
            closed = ts.trace_phi_sq_closed_form(m_e, field)
            assert abs(numeric - closed) <= 1e-12 * max(1.0, closed)

    def test_imaginary_residue_rejected(self):
        with pytest.raises(ts.NonHermitianError):
            ts.trace_phi_sq(np.diag([1 + 1j, 0.0, 0.0, 0.0]))


class TestFluctuatedDispersion:
    def test_electron_branch(self, basis, rng):
        for _ in range(20):
            m_e = complex(rng.standard_normal(), rng.standard_normal()) * 0.8 + 0.5
            v, h = rng.uniform(0.5, 2.0), rng.uniform(-0.2, 0.2)
            p = rng.uniform(-2, 2, size=3)
            field = ts.HiggsField.broken(v, h)
            E = np.sqrt(p @ p + abs(m_e) ** 2 * (v + h) ** 2)
            res = fluctuated_ratio(m_e, field, E, p, "e_L", basis)
            assert abs(res) <= 1e-10

    def test_neutrino_branch(self, basis, rng):
        m_e = 1.2 - 0.4j
        field = ts.HiggsField.broken(1.5, 0.05)
        for _ in range(20):
            p = rng.uniform(-2, 2, size=3)
            E = np.sqrt(p @ p)
            res = fluctuated_ratio(m_e, field, E, p, "nu_L", basis)
            assert abs(res) <= 1e-10

    def test_zero_fluctuation_vev_only(self, basis):
        m_e, v = 0.9, 1.3
        field = ts.HiggsField.broken(v, 0.0)
        p = np.array([0.7, -0.1, 0.4])
        E = np.sqrt(p @ p + m_e**2 * v**2)
        assert abs(fluctuated_ratio(m_e, field, E, p, "e_L", basis)) <= 1e-10

    def test_right_handed_and_antiparticles_match(self, basis):
        # same dispersion on e_R and the conjugate sector
        m_e = 1.1
        field = ts.HiggsField.broken(2.0, 0.1)
        p = np.array([1.0, 0.0, 0.0])
        E = np.sqrt(p @ p + m_e**2 * 2.1**2)
        for label in ("e_R", "anti_e_L", "anti_e_R"):
            assert abs(fluctuated_ratio(m_e, field, E, p, label, basis)) <= 1e-10

    def test_off_shell_sign(self, basis):
        m_e, v = 1.0, 1.0
        field = ts.HiggsField.broken(v, 0.0)
        p = np.array([1.0, 0.0, 0.0])
        E = np.sqrt(p @ p + v**2)
        assert fluctuated_ratio(m_e, field, 1.5 * E, p, "e_L", basis) > 0
        assert fluctuated_ratio(m_e, field, 0.5 * E, p, "e_L", basis) < 0

    def test_block_identity_random_fields(self, basis, rng):
        # cross terms cancel: D_Phi^2 splits into momentum and Phi^2 parts
        for _ in range(100):
            h1, h2 = random_doublet(rng)
            m_e = complex(rng.standard_normal(), rng.standard_normal())
            E = rng.uniform(-3, 3)
            p = rng.uniform(-3, 3, size=3)
            phi_full = ts.higgs_phi_completion(m_e, ts.HiggsField(h1, h2))
            gk = ts.momentum_covector_matrix(E, p, basis)
            d = np.kron(gk, np.eye(8)) + np.kron(basis.gamma5, phi_full)
            expected = ((p @ p - E**2) * np.eye(32)
                        + np.kron(np.eye(4), phi_full @ phi_full))
            assert np.max(np.abs(d @ d - expected)) <= 1e-12


class TestFluctuatedTriple:
    def test_passes_every_axiom(self, rng):
        for h2_scale in (0.0, 1.0):
            for _ in range(4):
                h1, h2 = random_doublet(rng)
                m_e = complex(rng.standard_normal(), rng.standard_normal())
                triple = ts.fluctuated_triple(m_e, ts.HiggsField(h1, h2_scale * h2))
                report = ts.validate_axioms(triple)
                assert report.all_passed, report.checks


class TestEWAlgebraElement:
    def test_quaternion_form_enforced(self):
        with pytest.raises(ts.DomainError):
            ts.EWAlgebraElement(1.0, np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_from_parts(self):
        el = ts.EWAlgebraElement.from_parts(2.0, 1 + 1j, 0.5j)
        assert el.quaternion[1, 0] == -np.conj(el.quaternion[0, 1])
        assert el.quaternion[1, 1] == np.conj(el.quaternion[0, 0])
        rep = el.represented()
        assert rep[0, 0] == 2.0 and rep[1, 1] == 2.0
        assert np.array_equal(rep[4:, 4:], 2.0 * np.eye(4))
