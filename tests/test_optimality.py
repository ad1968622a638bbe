"""Optimality measures, termination test, and the shrink identity."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from farsa.optimality import OptimalityPair, ista_step, optimality_measures
from problems import QuadraticObjective
from reference import (
    beta_scalar,
    phi_scalar,
    random_measure_triples,
    shrink_step_scalar,
)


def beta(x, g, lam):
    return optimality_measures(np.array(x), np.array(g), lam).beta


def phi(x, g, lam):
    return optimality_measures(np.array(x), np.array(g), lam).phi


class TestBeta:
    def test_negative_branch(self):
        assert beta([0.0], [-3.0], 1.0)[0] == -2.0

    def test_inactive_when_gradient_small(self):
        assert beta([0.0], [0.5], 1.0)[0] == 0.0
        assert beta([0.0], [-1.0], 1.0)[0] == 0.0  # boundary: g+lam == 0

    def test_zero_on_nonzero_variables(self):
        assert np.all(beta([2.0, -3.0], [10.0, -10.0], 1.0) == 0.0)

    def test_matches_scalar_transcription(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            x, g, lam = random_measure_triples(rng, 25)
            assert np.array_equal(beta(x, g, lam), beta_scalar(x, g, lam))


class TestPhi:
    def test_stationary_positive_variable(self):
        # x=2, g+lam = 0: the overlap case lands in the otherwise-branch
        assert phi([2.0], [-1.0], 1.0)[0] == 0.0

    def test_positive_branch_hand_value(self):
        # min{4, max{1, 2}} = 2
        assert phi([1.0], [3.0], 1.0)[0] == 2.0

    def test_otherwise_branch_hand_value(self):
        # x=-1, g-lam=2 >= 0: phi = g + lam*sgn(x) = 2
        assert phi([-1.0], [3.0], 1.0)[0] == 2.0

    def test_matches_scalar_transcription(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            x, g, lam = random_measure_triples(rng, 25)
            assert np.array_equal(phi(x, g, lam), phi_scalar(x, g, lam))


class TestIsOptimal:
    """The termination test max{||beta||, ||phi||} <= epsilon of both solvers."""

    def test_zero_measures_always_optimal(self):
        pair = OptimalityPair(np.zeros(3), np.zeros(3), 0.0, 0.0)
        assert pair.max_norm <= 1e-300

    def test_violation_detected(self):
        pair = OptimalityPair(np.array([2.0]), np.zeros(1), 2.0, 0.0)
        assert not pair.max_norm <= 1.0

    def test_boundary_is_inclusive(self):
        pair = OptimalityPair(np.array([1.0]), np.zeros(1), 1.0, 0.0)
        assert pair.max_norm <= 1.0


class TestShrinkStep:
    def test_origin_is_fixed_point(self):
        assert np.all(ista_step(np.zeros(3), np.zeros(3), 1.0) == 0.0)

    def test_third_branch_hand_value(self):
        # x=5, g=0, lam=1: u=5 > 1, step = -g-lam = -1
        assert ista_step(np.array([5.0]), np.array([0.0]), 1.0)[0] == -1.0

    def test_matches_scalar_transcription(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            x, g, lam = random_measure_triples(rng, 25)
            assert np.array_equal(ista_step(x, g, lam), shrink_step_scalar(x, g, lam))


class TestMeasureProperties:
    def test_shrink_identity_master_property(self):
        # s + beta + phi = 0, componentwise, for mixed-sign x with exact
        # zeros; the library builds beta and phi from s, so the identity is
        # checked on the independent case-table transcriptions
        rng = np.random.default_rng(15)
        worst = 0.0
        for _ in range(2000):
            x, g, lam = random_measure_triples(rng, 20)
            residual = (
                shrink_step_scalar(x, g, lam)
                + beta_scalar(x, g, lam)
                + phi_scalar(x, g, lam)
            )
            worst = max(worst, float(np.abs(residual).max()))
        assert worst <= 1e-14

    def test_disjoint_supports(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            x, g, lam = random_measure_triples(rng, 30)
            pair = optimality_measures(x, g, lam)
            assert np.all(pair.beta * pair.phi == 0.0)

    def test_exact_zero_measures_at_analytic_optimum(self):
        # diag powers of two and integer data keep x* and g exact in floats
        diag = np.array([1.0, 2.0, 4.0, 0.5])
        linear = np.array([-3.0, 1.0, 5.0, 0.25])
        lam = 1.0
        obj = QuadraticObjective(diag, linear)
        x_star = np.where(
            -linear > lam,
            (-linear - lam) / diag,
            np.where(-linear < -lam, (-linear + lam) / diag, 0.0),
        )
        pair = optimality_measures(x_star, obj.gradient(x_star), lam)
        assert pair.beta_norm == 0.0
        assert pair.phi_norm == 0.0

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            x, g, lam = random_measure_triples(rng, 15)
            t = float(rng.uniform(0.1, 10.0))
            assert_allclose(
                beta(t * x, t * g, t * lam),
                t * beta(x, g, lam),
                rtol=1e-13,
                atol=1e-13,
            )
            assert_allclose(
                phi(t * x, t * g, t * lam),
                t * phi(x, g, lam),
                rtol=1e-13,
                atol=1e-13,
            )

    def test_cached_norms_match_recomputation(self):
        rng = np.random.default_rng(18)
        x, g, lam = random_measure_triples(rng, 40)
        pair = optimality_measures(x, g, lam)
        assert pair.beta_norm == pytest.approx(np.linalg.norm(pair.beta), rel=1e-15)
        assert pair.phi_norm == pytest.approx(np.linalg.norm(pair.phi), rel=1e-15)
        assert np.all(pair.beta[x != 0.0] == 0.0)
        assert np.all(pair.phi[x == 0.0] == 0.0)

    def test_freeing_direction_identity(self):
        # on the support of beta: beta = g + lam*sgn(t*(-beta)) for any t > 0,
        # so the freeing step equals a reduced shrink step at every scale
        rng = np.random.default_rng(19)
        for _ in range(50):
            x, g, lam = random_measure_triples(rng, 20)
            b = beta(x, g, lam)
            support = np.flatnonzero(b)
            for t in (0.25, 1.0, 3.0):
                moved_sign = np.sign(-t * b[support])
                assert np.array_equal(b[support], g[support] + lam * moved_sign)
