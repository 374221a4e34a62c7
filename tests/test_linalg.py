import re
from pathlib import Path

import numpy as np
import pytest

import gkrr
from gkrr.kernel import kernel_matrix
from gkrr.linalg import FactorizationError, _check_info, _factor_solve, factor_spd, solve


def gaussian_elimination_solve(A, b):
    """Row-pivoted Gaussian elimination: independent of LAPACK."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for col in range(n):
        piv = col + int(np.argmax(np.abs(A[col:, col])))
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            m = A[row, col] / A[col, col]
            A[row, col:] -= m * A[col, col:]
            b[row] -= m * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1 :] @ x[row + 1 :]) / A[row, row]
    return x


def random_spd(rng, n):
    B = rng.normal(size=(n, n))
    M = B @ B.T + n * np.eye(n)
    return 0.5 * (M + M.T)


class TestFactorSpd:
    def test_identity(self):
        s = factor_spd(np.eye(3), 0.0)
        np.testing.assert_allclose(s, np.eye(3), atol=1e-15)

    def test_rank_one_fails_without_shift(self):
        K = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(FactorizationError) as exc:
            factor_spd(K, 0.0)
        assert exc.value.pivot == 2

    def test_rank_one_succeeds_with_shift(self):
        K = np.array([[1.0, 1.0], [1.0, 1.0]])
        l = 1e-3
        s = factor_spd(K, l)
        x = solve(s, np.array([1.0, 1.0]))
        # closed-form inverse of [[1+l, 1], [1, 1+l]] applied to (1, 1):
        # each entry is ((1+l) - 1) / ((1+l)^2 - 1) = 1 / (2 + l)
        np.testing.assert_allclose(x, np.full(2, 1.0 / (2.0 + l)), atol=1e-12)

    def test_factor_reconstructs(self):
        rng = np.random.default_rng(0)
        M = random_spd(rng, 12)
        s = factor_spd(M, 0.5)
        target = M + 0.5 * np.eye(12)
        err = np.linalg.norm(s @ s.T - target) / np.linalg.norm(target)
        assert err <= 1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            factor_spd(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.0)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            factor_spd(np.eye(2), -1.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match=re.escape("K must be square, got shape (2, 3)")):
            factor_spd(np.zeros((2, 3)), 0.0)

    def test_negative_info_is_a_bad_argument(self):
        # LAPACK's info < 0 names an argument, not a pivot: ValueError, not FactorizationError
        with pytest.raises(ValueError, match="^invalid argument 4 passed to dpotrf$"):
            _check_info(-4, 0.0, "dpotrf")


class TestSolve:
    def test_identity_system(self):
        s = factor_spd(np.eye(3), 0.0)
        np.testing.assert_array_equal(solve(s, np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])

    def test_scaled_identity(self):
        s = factor_spd(2 * np.eye(2), 0.0)
        np.testing.assert_allclose(solve(s, np.array([2.0, 4.0])), [1.0, 2.0], rtol=1e-15)

    def test_matches_gaussian_elimination_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            M = random_spd(rng, n)
            lam = float(rng.uniform(0, 1))
            b = rng.normal(size=n)
            x = solve(factor_spd(M, lam), b)
            x_ref = gaussian_elimination_solve(M + lam * np.eye(n), b)
            np.testing.assert_allclose(x, x_ref, atol=1e-10, rtol=1e-10)

    def test_residual_bound(self):
        rng = np.random.default_rng(2)
        M = random_spd(rng, 30)
        b = rng.normal(size=30)
        s = factor_spd(M, 0.0)
        x = solve(s, b)
        resid = np.linalg.norm(M @ x - b)
        assert resid <= 1e-9 * (np.linalg.norm(b) + 1)

    def test_length_mismatch(self):
        s = factor_spd(np.eye(3), 0.0)
        with pytest.raises(ValueError, match="length"):
            solve(s, np.zeros(4))


class TestFactorSolve:
    """The one dposv behind fit and CV against the public factor-then-solve."""

    @pytest.mark.parametrize("lam", [0.0, 1e-12, 1e-8, 1e-3])
    def test_same_bits_as_solve_of_factor_spd(self, lam):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(1, 60))
            X = rng.uniform(-5.0, 5.0, (n, int(rng.integers(1, 4))))
            K, b = kernel_matrix(X, None, float(rng.uniform(0.05, 3.0))), rng.normal(size=n)
            A = K + lam * np.eye(n)
            try:
                ref = solve(factor_spd(K, lam), b)
            except FactorizationError as exc:
                with pytest.raises(FactorizationError) as got:
                    _factor_solve(np.asfortranarray(A), b, lam)
                assert got.value.pivot == exc.pivot
            else:
                got = _factor_solve(np.asfortranarray(A), b, lam)
                np.testing.assert_array_equal(got.view(np.int64), ref.view(np.int64))

    def test_singular_matrix_reports_the_same_pivot(self):
        X = np.array([[0.0], [1.0], [1.0], [2.0]])  # rows 1 and 2 coincide
        K = kernel_matrix(X, None, 1.0)
        with pytest.raises(FactorizationError) as ref:
            factor_spd(K, 0.0)
        with pytest.raises(FactorizationError) as got:
            _factor_solve(np.asfortranarray(K), np.ones(4), 0.0)
        assert got.value.pivot == ref.value.pivot == 3
        assert str(got.value) == str(ref.value)


def test_only_linalg_calls_dposv():
    # fit and CV reach LAPACK through linalg._factor_solve, which reads dposv's info
    package = Path(gkrr.__file__).resolve().parent
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != "linalg.py" and re.search(r"\bdposv\(", path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_only_verify_calls_eigvalsh():
    # K's spectrum, for the bound checks, is taken in one place: verify._kernel_svals
    package = Path(gkrr.__file__).resolve().parent
    offenders = [path.name for path in sorted(package.glob("*.py"))
                 if path.name != "verify.py" and re.search(r"\beigvalsh\(", path.read_text(encoding="utf-8"))]
    assert offenders == []
