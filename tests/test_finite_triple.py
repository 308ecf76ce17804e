"""Constructors, axiom validation, and JSON round trips for finite triples."""

import numpy as np
import pytest

import twosheet as ts


class TestTwoPoint:
    def test_structure(self):
        t = ts.two_point_triple(1.0)
        assert t.dim_H == 2
        assert np.array_equal(t.D_F, np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.array_equal(t.algebra_generators[0], np.diag([1.0, 0.0]))
        assert np.array_equal(t.algebra_generators[1], np.diag([0.0, 1.0]))
        assert t.labels == ("sheet0", "sheet1")
        assert not t.is_degenerate

    def test_dirac_squares_to_mass(self, rng):
        for _ in range(50):
            m = complex(rng.standard_normal(), rng.standard_normal())
            t = ts.two_point_triple(m)
            assert ts.matrices_close(t.D_F @ t.D_F, abs(m) ** 2 * np.eye(2), tol=1e-14)

    def test_complex_mass_eigenvalues(self):
        t = ts.two_point_triple(2j)
        assert ts.matrices_close(t.D_F, t.D_F.conj().T, tol=0)
        eig = np.sort(np.linalg.eigvalsh(t.D_F))
        assert eig == pytest.approx([-2.0, 2.0])

    def test_degenerate_flag(self):
        t = ts.two_point_triple(0.0)
        assert t.is_degenerate
        assert np.array_equal(t.D_F, np.zeros((2, 2)))


class TestElectroweak:
    def test_yukawa_action(self):
        t = ts.electroweak_triple(1.0)
        e = np.eye(8, dtype=complex)
        # D_F sends e_R into e_L (and nothing else in that column)
        out = t.D_F @ e[t.label_index("e_R")]
        expected = np.zeros(8, dtype=complex)
        expected[t.label_index("e_L")] = 1.0
        assert ts.matrices_close(out, expected, tol=0)

    def test_neutrinos_massless_exactly(self):
        t = ts.electroweak_triple(0.3 + 0.4j)
        for label in ("nu_R", "anti_nu_R"):
            out = t.D_F @ np.eye(8)[t.label_index(label)]
            assert np.array_equal(out, np.zeros(8))

    def test_hermitian(self):
        t = ts.electroweak_triple(0.3 + 0.4j)
        assert ts.matrices_close(t.D_F, t.D_F.conj().T, tol=0)

    def test_zero_mass(self):
        t = ts.electroweak_triple(0.0)
        assert np.array_equal(t.D_F, np.zeros((8, 8)))
        assert t.is_degenerate

    def test_unknown_label(self):
        with pytest.raises(ts.StateError, match="unknown internal state label 'mu_L'"):
            ts.electroweak_triple(1.0).label_index("mu_L")

    def test_real_structure_squares_to_one(self, rng):
        t = ts.electroweak_triple(1.5)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        twice = t.apply_real_structure(t.apply_real_structure(psi))
        assert ts.matrices_close(twice, psi)

    def test_grading(self):
        t = ts.electroweak_triple(2.0)
        g = t.gamma_F
        assert np.array_equal(g @ g, np.eye(8))
        assert np.array_equal(g @ t.D_F, -t.D_F @ g)


class TestValidateAxioms:
    def test_two_point_passes(self):
        report = ts.validate_axioms(ts.two_point_triple(1.0))
        assert report.all_passed
        assert {c.name for c in report.checks} == {"dirac_hermitian", "algebra_closure"}

    def test_electroweak_passes(self):
        report = ts.validate_axioms(ts.electroweak_triple(1.0))
        assert report.all_passed
        assert {c.name for c in report.checks} == {
            "dirac_hermitian", "algebra_closure", "order_zero", "first_order", "grading"}

    def test_tampered_dirac_fails_hermiticity(self):
        t = ts.two_point_triple(1.0)
        bad = ts.FiniteTriple(dim_H=2, algebra_generators=t.algebra_generators,
                              D_F=np.array([[0, 1], [2, 0]], dtype=complex))
        report = ts.validate_axioms(bad)
        assert not report.passed("dirac_hermitian")
        assert report.passed("algebra_closure")

    def test_non_closing_generators_fail(self):
        g = np.diag([1.0, 0.5]).astype(complex)
        t = ts.FiniteTriple(dim_H=2, algebra_generators=(g,),
                            D_F=np.zeros((2, 2)))
        assert not ts.validate_axioms(t).passed("algebra_closure")

    def test_broken_first_order(self):
        # identity "swap" makes J a pure conjugation; the first-order
        # condition then fails because [D_F, a] is off-diagonal
        t = ts.two_point_triple(1.0)
        bad = ts.FiniteTriple(dim_H=2, algebra_generators=t.algebra_generators,
                              D_F=t.D_F, J_F=np.eye(2))
        report = ts.validate_axioms(bad)
        assert report.passed("order_zero")
        assert not report.passed("first_order")

    def test_broken_grading(self):
        t = ts.two_point_triple(1.0)
        bad = ts.FiniteTriple(dim_H=2, algebra_generators=t.algebra_generators,
                              D_F=t.D_F, gamma_F=np.eye(2))
        assert not ts.validate_axioms(bad).passed("grading")


class TestSerialization:
    def test_round_trip_two_point(self, tmp_path):
        t = ts.two_point_triple(0.7 - 1.2j)
        path = tmp_path / "two_point.json"
        ts.save_triple(t, path)
        back = ts.load_triple(path)
        assert back.dim_H == t.dim_H
        assert back.labels == t.labels
        assert back.J_F is None and back.gamma_F is None
        assert ts.matrices_close(back.D_F, t.D_F, tol=1e-15)
        for g1, g2 in zip(back.algebra_generators, t.algebra_generators):
            assert ts.matrices_close(g1, g2, tol=1e-15)

    def test_round_trip_electroweak(self, tmp_path):
        t = ts.electroweak_triple(0.3 + 0.4j)
        path = tmp_path / "ew.json"
        ts.save_triple(t, path)
        back = ts.load_triple(path)
        assert ts.matrices_close(back.D_F, t.D_F, tol=1e-15)
        assert ts.matrices_close(back.J_F, t.J_F, tol=1e-15)
        assert ts.matrices_close(back.gamma_F, t.gamma_F, tol=1e-15)
        assert back.labels == t.labels

    def test_malformed_document(self):
        with pytest.raises(ts.DomainError):
            ts.triple_from_dict({"dim_H": 2})

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ts.DomainError):
            ts.FiniteTriple(dim_H=3, algebra_generators=(),
                            D_F=np.zeros((2, 2)))


NAN = float("nan")


@pytest.mark.parametrize("build", [
    lambda: ts.two_point_triple(NAN),
    lambda: ts.electroweak_triple(complex(1.0, NAN)),
    lambda: ts.PlaneWaveMode(NAN, np.zeros(3)),
    lambda: ts.PlaneWaveMode(1.0, [0.0, NAN, 0.0]),
    lambda: ts.HiggsField(NAN, 0.0),
    lambda: ts.HiggsField(0.0, complex(0.0, NAN)),
    lambda: ts.HiggsField.broken(NAN, 0.0),
    lambda: ts.HiggsField.broken(1.0, NAN),
    lambda: ts.crossing_threshold(NAN),
    lambda: ts.embedding_metric(complex(NAN, 1.0)),
    lambda: ts.on_shell_energy([0.0, 0.0, 0.0], NAN),
    lambda: ts.on_shell_energy([NAN, 0.0, 0.0], 1.0),
    lambda: ts.Event(NAN, np.zeros(3)),
], ids=["two_point", "electroweak", "mode_E", "mode_p", "higgs_h1", "higgs_h2",
        "broken_v", "broken_h", "crossing_threshold", "embedding_metric",
        "on_shell_mass", "on_shell_p", "event"])
def test_constructors_reject_nan(build):
    """One finiteness rule for every constructor that takes a number."""
    with pytest.raises(ts.DomainError, match="must be finite"):
        build()
