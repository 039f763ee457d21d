import math

import numpy as np
import pytest

from seasonthresh.errors import ConvergenceError, InvalidInputError, StructureError
from seasonthresh.linalg import (
    is_irreducible,
    is_metzler,
    mat_exp,
    perron_pair,
    spectral_abscissa,
    spectral_radius,
)

from conftest import random_metzler


class TestMatExp:
    def test_zero_matrix(self):
        assert np.allclose(mat_exp(np.zeros((2, 2))), np.eye(2), atol=1e-15)

    def test_diagonal(self):
        result = mat_exp(np.diag([1.0, -2.0]))
        expected = np.diag([math.e, math.exp(-2.0)])
        assert np.allclose(result, expected, atol=1e-14)

    def test_nilpotent_series_terminates(self):
        result = mat_exp(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(result, np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_commuting_product(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a = rng.uniform(-1.0, 1.0, (3, 3))
            b = 0.3 * a @ a - 0.5 * a + 0.2 * np.eye(3)
            gap = np.abs(mat_exp(a + b) - mat_exp(a) @ mat_exp(b)).max()
            assert gap <= 1e-8

    def test_large_norm_scaling(self):
        a = np.array([[-40.0, 3.0], [5.0, -60.0]])
        expected = np.zeros((2, 2))
        # reference by eigen decomposition
        w, v = np.linalg.eig(a)
        expected = (v @ np.diag(np.exp(w)) @ np.linalg.inv(v)).real
        assert np.allclose(mat_exp(a), expected, atol=1e-12)

    def test_random_matrices_match_eigendecomposition(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            a = rng.uniform(-2.0, 2.0, (n, n))
            w, v = np.linalg.eig(a)
            reference = (v @ np.diag(np.exp(w)) @ np.linalg.inv(v)).real
            gap = np.abs(mat_exp(a) - reference).max()
            assert gap <= 1e-10 * max(1.0, np.abs(reference).max())

    def test_overflow_raises(self):
        with pytest.raises(InvalidInputError):
            mat_exp(np.full((2, 2), 500.0))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            mat_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))

    def test_rejects_bad_tol(self):
        with pytest.raises(InvalidInputError):
            mat_exp(np.eye(2), tol=1e-3)


class TestSpectra:
    def test_radius_diagonal(self):
        assert spectral_radius(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-12)

    def test_radius_symmetric(self):
        assert spectral_radius(np.array([[2.0, 1.0], [1.0, 2.0]])) == pytest.approx(3.0, abs=1e-12)

    def test_radius_2x2_quadratic(self):
        expected = (5.0 + math.sqrt(33.0)) / 2.0
        assert spectral_radius(np.array([[1.0, 2.0], [3.0, 4.0]])) == pytest.approx(
            expected, abs=1e-10
        )

    def test_abscissa_diagonal(self):
        assert spectral_abscissa(np.diag([-1.0, -2.0])) == pytest.approx(-1.0, abs=1e-12)

    def test_abscissa_swap(self):
        assert spectral_abscissa(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_abscissa_insect_jacobian(self):
        # [[-1.5, 1], [0.5, -1]]: quadratic formula on trace/det
        trace, det = -2.5, 1.5 * 1.0 - 0.5 * 1.0
        expected = (trace + math.sqrt(trace**2 - 4.0 * det)) / 2.0
        a = np.array([[-1.5, 1.0], [0.5, -1.0]])
        assert spectral_abscissa(a) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(-0.5, abs=1e-15)

    def test_metzler_exp_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            a = random_metzler(rng, n, scale=1.0)
            gap = abs(spectral_radius(mat_exp(a)) - math.exp(spectral_abscissa(a)))
            assert gap <= 1e-8


class TestPerronPair:
    def test_symmetric_example(self):
        pair = perron_pair(np.array([[2.0, 1.0], [1.0, 2.0]]))
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert pair.rho == pytest.approx(3.0, abs=1e-11)
        assert np.allclose(pair.v, [inv_sqrt2, inv_sqrt2], atol=1e-10)
        assert np.allclose(pair.v_star, [inv_sqrt2, inv_sqrt2], atol=1e-10)

    def test_symmetric_perturbation(self):
        pair = perron_pair(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert pair.rho == pytest.approx(1.5, abs=1e-11)
        assert np.allclose(pair.v, np.full(2, 1.0 / math.sqrt(2.0)), atol=1e-10)

    def test_nonsymmetric_left_vector_ratio(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected_rho = (5.0 + math.sqrt(33.0)) / 2.0
        pair = perron_pair(m)
        assert pair.rho == pytest.approx(expected_rho, abs=1e-10)
        assert pair.v_star[1] / pair.v_star[0] == pytest.approx(
            (expected_rho - 1.0) / 3.0, abs=1e-10
        )

    def test_invariants_random(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(1, 6))
            m = rng.uniform(0.1, 4.0, (n, n))
            pair = perron_pair(m, tol=1e-12)
            right, left = pair.residuals(m)
            assert right <= 1e-12 * max(1.0, pair.rho) * 10
            assert left <= 1e-12 * max(1.0, pair.rho) * 10
            assert np.all(pair.v > 0.0) and np.all(pair.v_star > 0.0)
            assert np.linalg.norm(pair.v) == pytest.approx(1.0, abs=1e-12)
            assert float(pair.v @ pair.v_star) == pytest.approx(1.0, abs=1e-12)

    def test_transpose_swaps_roles(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            m = rng.uniform(0.1, 3.0, (3, 3))
            p = perron_pair(m)
            pt = perron_pair(m.T)
            assert abs(p.rho - pt.rho) <= 1e-10 * max(1.0, p.rho)
            # directions swap: v of M^T is collinear with v_star of M
            cos = abs(pt.v @ p.v_star) / (np.linalg.norm(pt.v) * np.linalg.norm(p.v_star))
            assert cos == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        a = perron_pair(m)
        b = perron_pair(m)
        assert a.rho == b.rho
        assert np.array_equal(a.v, b.v) and np.array_equal(a.v_star, b.v_star)

    def test_negative_entries_rejected(self):
        with pytest.raises(StructureError):
            perron_pair(np.array([[1.0, -0.1], [1.0, 1.0]]))

    def test_reducible_rejected(self):
        with pytest.raises(StructureError):
            perron_pair(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_imprimitive_does_not_converge(self):
        # period-2 structure: +sqrt(2) and -sqrt(2) share the dominant modulus
        with pytest.raises(ConvergenceError) as excinfo:
            perron_pair(np.array([[0.0, 2.0], [1.0, 0.0]]))
        assert excinfo.value.residual is not None


class TestStructurePredicates:
    def test_metzler_examples(self):
        assert is_metzler(np.array([[-5.0, 2.0], [3.0, -1.0]]))
        assert not is_metzler(np.array([[1.0, -0.1], [0.0, 1.0]]))

    def test_insect_jacobian_is_metzler(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            b, h, dj, cj, da = rng.uniform(0.0, 5.0, 5)
            j = np.array([[-h - dj, b], [h, -da]])
            assert is_metzler(j)

    def test_irreducible_examples(self):
        assert is_irreducible(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert not is_irreducible(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_insect_jacobian_irreducible(self):
        j = np.array([[-1.5, 1.0], [0.5, -1.0]])
        assert is_irreducible(j)

    def test_single_node(self):
        assert is_irreducible(np.array([[0.0]]))
