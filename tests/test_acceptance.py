"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on the terminal.
"""

import math
import time

import numpy as np
import pytest

import twosheet as ts

BASIS = ts.build_gamma_basis()


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {description} {detail}"


def test_criterion_01_two_point_pure_distance():
    start = time.perf_counter()
    worst_analytic = 0.0
    worst_gap = 0.0
    for m in (0.5, 1.0, 2.0, 10.0):
        triple = ts.two_point_triple(m)
        result = ts.connes_distance(triple, ts.AlgebraState.pure(0, 2),
                                    ts.AlgebraState.pure(1, 2), oracle_step=1e-3)
        worst_analytic = max(worst_analytic, abs(result.value - 1.0 / m))
        worst_gap = max(worst_gap, result.gap)
    elapsed = time.perf_counter() - start
    ok = worst_analytic <= 1e-6 and worst_gap <= 2e-3 and elapsed < 5.0
    report(1, "two-point distance equals 1/|m| and matches the oracle", ok,
           f"analytic err {worst_analytic:.2e}, oracle gap {worst_gap:.2e}, {elapsed:.2f}s")


def test_criterion_02_mixed_state_distance_grid():
    triple = ts.two_point_triple(1.0)
    worst_analytic = 0.0
    worst_gap = 0.0
    for xi in np.linspace(0.0, 1.0, 5):
        for eta in np.linspace(0.0, 1.0, 5):
            result = ts.connes_distance(triple, ts.AlgebraState.two_point_mixed(xi),
                                        ts.AlgebraState.two_point_mixed(eta),
                                        oracle_step=1e-3)
            worst_analytic = max(worst_analytic, abs(result.value - abs(xi - eta)))
            worst_gap = max(worst_gap, result.gap)
    ok = worst_analytic <= 1e-6 and worst_gap <= 2e-3
    report(2, "mixed-state distance equals |xi - eta|/|m| on a 5x5 grid", ok,
           f"analytic err {worst_analytic:.2e}, oracle gap {worst_gap:.2e}")


def test_criterion_03_causal_criterion_equivalence():
    rng = np.random.default_rng(42)
    disagreements = 0
    total = 0
    for m in (0.5, 1.0, 2.0):
        for _ in range(1000):
            a = ts.Event(rng.uniform(-3, 3), rng.uniform(-2, 2, size=3))
            b = ts.Event(rng.uniform(-3, 3), rng.uniform(-2, 2, size=3))
            for i in (0, 1):
                for j in (0, 1):
                    pure = ts.causally_related_pure(ts.SheetPoint(a, i),
                                                    ts.SheetPoint(b, j), m)
                    mixed = ts.causally_related_mixed(ts.MixedState(a, float(i)),
                                                      ts.MixedState(b, float(j)), m)
                    disagreements += int(pure != mixed)
                    total += 1
    ok = disagreements == 0
    report(3, "pure-point criterion equals the arcsin criterion at the endpoints",
           ok, f"{disagreements} disagreements out of {total}")


def test_criterion_04_cross_sheet_threshold():
    origin = ts.SheetPoint(ts.Event(0.0, np.zeros(3)), 0)
    at = ts.SheetPoint(ts.Event(math.pi / 2, np.zeros(3)), 1)
    below = ts.SheetPoint(ts.Event(math.pi / 2 - 1e-9, np.zeros(3)), 1)
    on_boundary = ts.causally_related_pure(origin, at, 1.0)
    under_boundary = ts.causally_related_pure(origin, below, 1.0)
    ok = on_boundary and not under_boundary
    report(4, "crossing boundary dt = pi/2 is causal, dt = pi/2 - 1e-9 is not",
           ok, f"boundary {on_boundary}, below {under_boundary}")


def test_criterion_05_dispersion_identity():
    rng = np.random.default_rng(7)
    ew = ts.electroweak_triple(1.7)
    branches = [(ew, ew.label_index("nu_R"), 0.0),
                (ew, ew.label_index("e_R"), 1.7)]
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        energy = rng.uniform(-5, 5)
        p = rng.uniform(-5, 5, size=3)
        for triple, internal, mass in branches:
            mode = ts.PlaneWaveMode(E=energy, p=p, internal=internal)
            ratio = ts.krein_ratio(triple, mode, BASIS)
            worst = max(worst, abs(ratio - (energy**2 - p @ p - mass**2)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-11 and elapsed < 2.0
    report(5, "matrix-algebra quotient equals E^2 - |p|^2 - m_i^2 on both branches",
           ok, f"worst dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_06_harmonic_classification():
    rng = np.random.default_rng(11)
    ok = True
    for _ in range(100):
        m = rng.uniform(0.5, 3.0)
        p = rng.uniform(-3, 3, size=3)
        triple = ts.two_point_triple(m)
        energy = ts.on_shell_energy(p, m)
        on = ts.classify_spinor(triple, ts.PlaneWaveMode(E=energy, p=p), BASIS)
        hot = ts.classify_spinor(triple, ts.PlaneWaveMode(E=1.1 * energy, p=p), BASIS)
        cold = ts.classify_spinor(triple, ts.PlaneWaveMode(E=0.9 * energy, p=p), BASIS)
        ok = ok and on.kind is ts.SpinorKind.HARMONIC
        ok = ok and hot.kind is ts.SpinorKind.CAUSAL and hot.ratio > 0
        ok = ok and cold.kind is ts.SpinorKind.NON_CAUSAL and cold.ratio < 0
    report(6, "on-shell modes are Harmonic; +-10% off-shell are Causal/NonCausal", ok)


def test_criterion_07_electroweak_trace_identity():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(1000):
        m_e = complex(rng.standard_normal(), rng.standard_normal())
        field = ts.HiggsField(complex(rng.standard_normal(), rng.standard_normal()),
                              complex(rng.standard_normal(), rng.standard_normal()))
        numeric = ts.trace_phi_sq(ts.higgs_phi(m_e, field))
        closed = ts.trace_phi_sq_closed_form(m_e, field)
        worst = max(worst, abs(numeric - closed) / max(1.0, abs(closed)))
    ok = worst <= 1e-12
    report(7, "numeric trace of phi^2 equals 2|m_e|^2 |doublet|^2", ok,
           f"worst rel dev {worst:.2e}")


def test_criterion_08_electroweak_dispersion():
    rng = np.random.default_rng(17)
    worst = 0.0
    for _ in range(100):
        m_e = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
        v = rng.uniform(0.5, 2.0)
        h = rng.uniform(-0.2, 0.2)
        p = rng.uniform(-2, 2, size=3)
        triple = ts.fluctuated_triple(m_e, ts.HiggsField.broken(v, h))
        e_electron = math.sqrt(p @ p + abs(m_e) ** 2 * (v + h) ** 2)
        e_neutrino = math.sqrt(p @ p)
        for E, label in ((e_electron, "e_L"), (e_neutrino, "nu_L")):
            mode = ts.PlaneWaveMode(E, p, internal=triple.label_index(label))
            worst = max(worst, abs(ts.krein_ratio(triple, mode, BASIS)))
    ok = worst <= 1e-10
    report(8, "fluctuated dispersion holds for e_L and nu_L", ok,
           f"worst residual {worst:.2e}")


def test_criterion_09_clifford_krein_suite():
    rng = np.random.default_rng(19)
    exact = True
    for mu in range(4):
        for nu in range(4):
            ac = BASIS.gamma[mu] @ BASIS.gamma[nu] + BASIS.gamma[nu] @ BASIS.gamma[mu]
            exact = exact and np.array_equal(ac, 2 * BASIS.metric[mu, nu] * np.eye(4))
    exact = exact and np.array_equal(BASIS.gamma[0].conj().T, -BASIS.gamma[0])
    exact = exact and np.array_equal(BASIS.gamma5 @ BASIS.gamma5, np.eye(4))
    exact = exact and np.array_equal(
        BASIS.fundamental_symmetry @ BASIS.fundamental_symmetry, np.eye(4))

    worst_adjoint = 0.0
    worst_block = 0.0
    for _ in range(100):
        m = complex(rng.standard_normal(), rng.standard_normal())
        triple = ts.two_point_triple(m)
        mode = ts.PlaneWaveMode(E=rng.uniform(-3, 3), p=rng.uniform(-3, 3, size=3))
        d = ts.dirac_momentum(triple, mode, BASIS)
        worst_adjoint = max(worst_adjoint, float(np.max(np.abs(
            ts.krein_adjoint(d, BASIS) + d))))
        expected = ((mode.p @ mode.p - mode.E**2) * np.eye(8)
                    + np.kron(np.eye(4), triple.D_F @ triple.D_F))
        worst_block = max(worst_block, float(np.max(np.abs(d @ d - expected))))
    ok = exact and worst_adjoint <= 1e-12 and worst_block <= 1e-12
    report(9, "gamma invariants exact; D(E,p) Krein anti-self-adjoint; D^2 splits",
           ok, f"adjoint dev {worst_adjoint:.2e}, block dev {worst_block:.2e}")


def test_criterion_10_causal_function_check():
    rng = np.random.default_rng(23)
    mismatches = 0
    for _ in range(1000):
        k = rng.uniform(-2, 2, size=4)
        geometric = k[0] >= np.linalg.norm(k[1:])
        mismatches += int(ts.is_causal_affine_function(k, BASIS) != geometric)
    t_causal = ts.is_causal_affine_function([1.0, 0, 0, 0], BASIS)
    x_causal = ts.is_causal_affine_function([0.0, 1.0, 0, 0], BASIS)
    ok = mismatches == 0 and t_causal and not x_causal
    report(10, "affine cone test agrees with the covector criterion", ok,
           f"{mismatches} mismatches; f=t {t_causal}, f=x1 {x_causal}")


def test_criterion_11_axiom_validation():
    two_point_ok = ts.validate_axioms(ts.two_point_triple(1.0)).all_passed
    ew_ok = ts.validate_axioms(ts.electroweak_triple(1.0)).all_passed
    good = ts.two_point_triple(1.0)
    corrupted = ts.FiniteTriple(2, good.algebra_generators,
                                np.array([[0, 1], [2, 0]], dtype=complex))
    corrupted_report = ts.validate_axioms(corrupted)
    corrupt_detected = (not corrupted_report.passed("dirac_hermitian")
                        and not corrupted_report.all_passed)
    ok = two_point_ok and ew_ok and corrupt_detected
    report(11, "constructors pass the axioms; corrupted D_F fails Hermiticity",
           ok, f"two-point {two_point_ok}, electroweak {ew_ok}, "
               f"corruption detected {corrupt_detected}")
