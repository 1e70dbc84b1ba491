from itertools import combinations
from math import comb

import numpy as np
import pytest

from khgraph import duality, geometry, symfun
from khgraph.errors import ConeViolationError
from khgraph.geometry import Jets
from khgraph.symfun import SpectrumRequest


def test_sigma_k_small_cases():
    assert symfun.sigma_k([1, 2, 3], 2) == pytest.approx(11.0, abs=0)
    for n in (2, 4, 7):
        for k in range(1, n + 1):
            assert symfun.sigma_k(np.ones(n), k) == pytest.approx(
                comb(n, k), rel=1e-14
            )


def test_sigma_k_brute_force_oracle():
    rng = np.random.default_rng(0)
    lam = rng.uniform(0.1, 2.0, 10)
    brute = sum(np.prod(lam[list(c)]) for c in combinations(range(10), 4))
    assert symfun.sigma_k(lam, 4) == pytest.approx(brute, rel=1e-12)


def test_sigma_k_order_out_of_range():
    with pytest.raises(ValueError):
        symfun.sigma_k([1.0, 2.0], 3)
    with pytest.raises(ValueError):
        symfun.sigma_k([1.0, 2.0], 0)


def _scalar_jacobi(a):
    """One-matrix cyclic Jacobi iteration: the LAPACK-independent eigen oracle."""
    a = np.asarray(a, dtype=float)
    a = 0.5 * (a + a.T)
    n = a.shape[0]
    v = np.eye(n)
    norm = max(np.linalg.norm(a), 1e-300)
    for _ in range(60):
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off <= 1e-13 * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = 0.5 * (a[q, q] - a[p, p]) / apq
                if theta == 0.0:
                    t = 1.0
                elif abs(theta) > 1e150:
                    t = 0.5 / theta
                else:
                    t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                rp, rq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rp - s * rq
                a[q, :] = s * rp + c * rq
                cp, cq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * cp - s * cq
                a[:, q] = s * cp + c * cq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    lam = np.diag(a).copy()
    order = np.argsort(lam)
    return lam[order], v[:, order]


def test_jacobi_matches_lapack():
    # the three eigen kernels against the oracle, special matrices included
    rng = np.random.default_rng(1)
    for n in range(1, 9):
        a = _batch_inputs(n, (8,), rng)
        jets = Jets(rng.uniform(-0.5, 0.5, (8, n)), np.zeros(8),
                    rng.uniform(-0.5, 0.5, (8, n)), a)
        lam = symfun.eval_operator(SpectrumRequest(a, 1, "primal")).eigenvalues
        pack = geometry.curvature_pack(jets)
        dual = duality.dual_chart_pack(jets)
        for got, mats in ((lam, a), (pack.kappa, pack.curvature_matrix),
                          (dual.radii, dual.dual_matrix)):
            for i in range(8):
                ref, vec = _scalar_jacobi(mats[i])
                scale = max(1.0, float(np.abs(mats[i]).max()))
                np.testing.assert_allclose(got[i], ref, rtol=0, atol=1e-12 * scale)
                np.testing.assert_allclose(vec @ vec.T, np.eye(n), rtol=0, atol=1e-13)
                np.testing.assert_allclose((vec * ref) @ vec.T, mats[i], rtol=0,
                                           atol=1e-12 * scale)


def test_nan_entry_gives_nan_eigenvalues():
    # LAPACK's eigenvalue-only route returns [0, -0] on this matrix; in the
    # two jet kernels the NaN spreads over the whole matrix through b H b
    a = np.array([[np.nan, 0.0], [0.0, 1.0]])
    lam = symfun.eval_operator(SpectrumRequest(a, 1, "primal")).eigenvalues
    jet = Jets(np.zeros(2), 0.0, np.zeros(2), a)
    for got in (lam, geometry.curvature_pack(jet).kappa, duality.dual_chart_pack(jet).radii):
        assert np.isnan(got).any()


def test_nan_matrix_gives_nan_row_only():
    # LAPACK's eigh raises for a whole batch holding one all-NaN matrix of
    # size 3 to 8; the guard gives that row NaN and leaves the other rows
    # the plain call's, in eigh and in the three kernels on top of it
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 3, 3))
    a = a @ a.swapaxes(-1, -2) + np.eye(3)
    nan_row, keep = 2, [0, 1, 3]
    a[nan_row] = np.nan
    lam, v = symfun.eigh(a)
    ref = np.linalg.eigh(a[keep])
    assert np.isnan(lam[nan_row]).all() and np.isnan(v[nan_row]).all()
    np.testing.assert_array_equal(lam[keep], ref.eigenvalues)
    np.testing.assert_array_equal(v[keep], ref.eigenvectors)

    op = symfun.eval_operator(SpectrumRequest(a, 2, "primal"))
    op_ref = symfun.eval_operator(SpectrumRequest(a[keep], 2, "primal"))
    assert np.isnan(op.value[nan_row])
    np.testing.assert_array_equal(op.value[keep], op_ref.value)
    np.testing.assert_array_equal(op.gradient[keep], op_ref.gradient)

    x = 0.1 * rng.normal(size=(4, 3))
    jet = Jets(x, np.zeros(4), 0.1 * x, a)
    jet_ref = Jets(x[keep], np.zeros(3), 0.1 * x[keep], a[keep])
    for kernel in (lambda j: geometry.curvature_pack(j).kappa,
                   lambda j: duality.dual_chart_pack(j).radii):
        got = kernel(jet)
        assert np.isnan(got[nan_row]).all()
        np.testing.assert_array_equal(got[keep], kernel(jet_ref))


def test_eval_operator_identity_matrix():
    op = symfun.eval_operator(SpectrumRequest(np.eye(3), 2, "primal"))
    assert op.value == pytest.approx(np.sqrt(3.0), rel=1e-14)


def test_eval_operator_dual_reciprocal_diag():
    op = symfun.eval_operator(
        SpectrumRequest(np.diag([1.0, 0.5, 1.0 / 3.0]), 2, "dual")
    )
    assert op.value == pytest.approx((1.0 / 11.0) ** 0.5, rel=1e-14)


@pytest.mark.parametrize("mode", ["primal", "dual"])
def test_gradient_matches_finite_differences(mode):
    rng = np.random.default_rng(2)
    b = rng.normal(size=(4, 4))
    a = b @ b.T + 3.0 * np.eye(4)
    op = symfun.eval_operator(SpectrumRequest(a, 2, mode))
    t = 1e-6
    for i in range(4):
        for j in range(4):
            e = np.zeros((4, 4))
            e[i, j] += t / 2
            e[j, i] += t / 2
            fp = symfun.eval_operator(SpectrumRequest(a + e, 2, mode)).value
            fm = symfun.eval_operator(SpectrumRequest(a - e, 2, mode)).value
            fd = (fp - fm) / (2 * t)
            assert fd == pytest.approx(op.gradient[i, j], rel=1e-6, abs=1e-9)


def test_gradient_near_degenerate_pair():
    # eigenvalue gap 1e-9 exercises the divided-difference (cluster) path
    a = np.diag([1.0, 1.0 + 1e-9, 2.0, 3.0])
    op = symfun.eval_operator(SpectrumRequest(a, 2, "primal"))
    t = 1e-6
    worst = 0.0
    for i in range(4):
        for j in range(4):
            e = np.zeros((4, 4))
            e[i, j] += t / 2
            e[j, i] += t / 2
            fp = symfun.eval_operator(SpectrumRequest(a + e, 2, "primal")).value
            fm = symfun.eval_operator(SpectrumRequest(a - e, 2, "primal")).value
            worst = max(worst, abs((fp - fm) / (2 * t) - op.gradient[i, j]))
    assert worst <= 1e-6 * np.abs(op.gradient).max()


def test_gradient_positive_definite_on_cone():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        b = rng.normal(size=(n, n))
        a = b @ b.T + 0.5 * np.eye(n)
        for mode in ("primal", "dual"):
            op = symfun.eval_operator(SpectrumRequest(a, k, mode))
            assert op.value > 0
            assert np.linalg.eigvalsh(op.gradient)[0] > 0


def test_newton_transform_matches_spectral_gradient():
    # independent route: d sigma_k / dA as a matrix polynomial
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        b = rng.normal(size=(n, n))
        a = b @ b.T + 0.5 * np.eye(n)
        lam, vec = _scalar_jacobi(a)
        # spectral route for sigma_k (not the 1/k power); slightly less
        # accurate than the matrix polynomial when the spectrum clusters
        drops = symfun.sigma_drop(lam)
        spectral = (vec * drops[:, k - 1]) @ vec.T
        scale = max(1.0, float(np.abs(spectral).max()))
        np.testing.assert_allclose(
            symfun.sigma_k_matrix_gradient(a, k), spectral, atol=1e-7 * scale
        )


def test_cone_violation_raised_and_recoverable():
    with pytest.raises(ConeViolationError) as err:
        symfun.eval_operator(SpectrumRequest(np.diag([1.0, -0.5]), 1, "primal"))
    assert err.value.eigenvalues[0] < 0


def test_duality_product_examples():
    assert symfun.duality_product([1.0, 2.0, 3.0], 2) == pytest.approx(1.0, abs=1e-14)
    for c in (0.1, 1.0, 7.3):
        for n in (2, 4):
            for k in range(1, n + 1):
                assert symfun.duality_product(np.full(n, c), k) == pytest.approx(
                    1.0, abs=1e-13
                )


def test_duality_product_sweep():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        kappa = rng.uniform(0.05, 5.0, n)
        worst = max(worst, abs(symfun.duality_product(kappa, k) - 1.0))
    assert worst <= 1e-12


def test_duality_product_rejects_nonpositive():
    with pytest.raises(ConeViolationError):
        symfun.duality_product([1.0, 0.0, 2.0], 1)


def test_newton_maclaurin_monotone():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        lam = rng.uniform(0.05, 3.0, n)
        vals = [
            (symfun.sigma_k(lam, k) / comb(n, k)) ** (1.0 / k)
            for k in range(1, n + 1)
        ]
        worst = max(worst, float(np.max(np.diff(vals))))
    assert worst <= 1e-12


@pytest.mark.parametrize("mode", ["primal", "dual"])
def test_operator_concavity(mode):
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        k = int(rng.integers(1, n + 1))
        b1 = rng.normal(size=(n, n))
        b2 = rng.normal(size=(n, n))
        a1 = b1 @ b1.T + 0.3 * np.eye(n)
        a2 = b2 @ b2.T + 0.3 * np.eye(n)
        t = rng.uniform()
        f_mid = symfun.eval_operator(
            SpectrumRequest(t * a1 + (1 - t) * a2, k, mode)
        ).value
        f1 = symfun.eval_operator(SpectrumRequest(a1, k, mode)).value
        f2 = symfun.eval_operator(SpectrumRequest(a2, k, mode)).value
        assert f_mid >= t * f1 + (1 - t) * f2 - 1e-12


def test_orthogonal_invariance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n + 1))
        b = rng.normal(size=(n, n))
        a = b @ b.T + 0.5 * np.eye(n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        f1 = symfun.eval_operator(SpectrumRequest(a, k, "primal")).value
        f2 = symfun.eval_operator(SpectrumRequest(q.T @ a @ q, k, "primal")).value
        assert f1 == pytest.approx(f2, abs=1e-12 * max(1, abs(f1)))


def test_asymmetric_input_rejected():
    bad = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        SpectrumRequest(bad, 1, "primal")


# --- batch contract ---------------------------------------------------------


def _batch_inputs(n, lead, rng):
    """SPD matrices of shape lead + (n, n), with a diagonal item (the Jacobi
    oracle skips every pair), a near-degenerate one (the cluster-merge
    branch), a conjugated near-degenerate one and a block-diagonal one (some
    pairs skipped)."""
    count = int(np.prod(lead))
    mats = []
    for _ in range(count):
        b = rng.normal(size=(n, n))
        mats.append(b @ b.T + 0.3 * np.eye(n))
    near = np.diag(1.0 + 1e-10 * np.arange(n))
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    block = np.eye(n)
    block[: n // 2 + 1, : n // 2 + 1] = mats[0][: n // 2 + 1, : n // 2 + 1]
    special = [np.diag(rng.uniform(0.5, 2.0, n)), near, q @ near @ q.T, block]
    mats[: len(special)] = special[: count]
    mats = np.array(mats)
    return (0.5 * (mats + np.swapaxes(mats, -1, -2))).reshape(lead + (n, n))


@pytest.mark.parametrize("lead", [(7,), (3, 4)], ids=["7", "3x4"])
@pytest.mark.parametrize("n", range(1, 7))
def test_batch_rows_equal_single_calls(n, lead):
    rng = np.random.default_rng(100 + n)
    a = _batch_inputs(n, lead, rng)
    kappa = rng.uniform(0.05, 4.0, lead + (n,))
    drops = symfun.sigma_drop(kappa)
    orders = sorted({1, (n + 1) // 2, n})  # the ends and the middle of the drop table
    ops = {
        (k, mode): symfun.eval_operator(SpectrumRequest(a, k, mode))
        for k in orders for mode in ("primal", "dual")
    }
    products = {k: symfun.duality_product(kappa, k) for k in orders}
    for idx in np.ndindex(*lead):
        assert np.array_equal(drops[idx], symfun.sigma_drop(kappa[idx]))
        for k in range(1, n + 1):
            assert symfun.sigma_k(kappa, k)[idx] == symfun.sigma_k(kappa[idx], k)
        for k in orders:
            assert products[k][idx] == symfun.duality_product(kappa[idx], k)
            for mode in ("primal", "dual"):
                one = symfun.eval_operator(SpectrumRequest(a[idx], k, mode))
                batch = ops[k, mode]
                assert batch.value[idx] == one.value
                assert np.array_equal(batch.gradient[idx], one.gradient)
                assert np.array_equal(batch.eigenvalues[idx], one.eigenvalues)


@pytest.mark.parametrize("mode", ["primal", "dual"])
def test_batch_cone_violation_names_first_failing_item(mode):
    a = np.stack([np.eye(3), np.diag([2.0, -0.5, 1.0]), np.diag([-1.0, 1.0, 1.0])])
    with pytest.raises(ConeViolationError) as err:
        symfun.eval_operator(SpectrumRequest(a, 2, mode))
    assert np.array_equal(err.value.eigenvalues, [-0.5, 1.0, 2.0])
    with pytest.raises(ConeViolationError) as err:
        symfun.duality_product(np.array([[1.0, 2.0], [3.0, 0.0], [-1.0, 1.0]]), 1)
    assert np.array_equal(err.value.eigenvalues, [0.0, 3.0])


def test_batch_asymmetric_item_rejected():
    a = np.stack([np.eye(2), np.array([[1.0, 0.5], [0.2, 1.0]])])
    with pytest.raises(ValueError):
        SpectrumRequest(a, 1, "primal")


@pytest.mark.parametrize("lead", [(40,), (8, 5)], ids=["40", "8x5"])
@pytest.mark.parametrize("n", range(2, 6))
def test_per_row_order_equals_int_order_calls(n, lead):
    # each row's k from 1..n, the dual's k = n branch (sigma_{-1} = 0) included
    rng = np.random.default_rng(800 + n)
    a = _batch_inputs(n, lead, rng)
    k = rng.integers(1, n + 1, lead)
    k.flat[:2] = (1, n)
    kappa = rng.uniform(0.05, 4.0, lead + (n,))
    products = symfun.duality_product(kappa, k)
    for mode in ("primal", "dual"):
        batch = symfun.eval_operator(SpectrumRequest(a, k, mode))
        for idx in np.ndindex(*lead):
            one = symfun.eval_operator(SpectrumRequest(a[idx], int(k[idx]), mode))
            assert batch.value[idx] == one.value
            assert np.array_equal(batch.gradient[idx], one.gradient)
    for idx in np.ndindex(*lead):
        assert products[idx] == symfun.duality_product(kappa[idx], int(k[idx]))


def test_per_row_order_broadcasts_over_leading_axes():
    rng = np.random.default_rng(9)
    a = _batch_inputs(3, (4, 2), rng)
    k = np.array([[1], [3], [2], [3]])
    batch = symfun.eval_operator(SpectrumRequest(a, k, "dual")).value
    for i, j in np.ndindex(4, 2):
        assert batch[i, j] == symfun.eval_operator(SpectrumRequest(a[i, j], int(k[i, 0]), "dual")).value


@pytest.mark.parametrize("bad", [0, 4, -1])
def test_per_row_order_out_of_range_rejected(bad):
    a = np.stack([np.eye(3)] * 3)
    with pytest.raises(ValueError, match="out of range"):
        SpectrumRequest(a, np.array([1, bad, 2]), "primal")


def test_per_row_order_must_be_integer_and_fit_the_batch():
    a = np.stack([np.eye(2)] * 3)
    with pytest.raises(ValueError):
        SpectrumRequest(a, np.array([1.0, 2.0, 1.0]), "primal")
    with pytest.raises(ValueError):
        SpectrumRequest(a, np.array([1, 2]), "primal")
