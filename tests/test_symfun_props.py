"""Property tests of the symfun identities on spectra drawn by hypothesis."""

from math import comb

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from khgraph import symfun  # noqa: E402
from khgraph.symfun import SpectrumRequest  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, max_examples=200, deadline=None)

# entries of a positive spectrum, spread over four decades
POSITIVE = st.floats(min_value=1e-2, max_value=1e2)
SIGNED = st.floats(min_value=-1e2, max_value=1e2)


def spectra(elements, max_size=6):
    return st.lists(elements, min_size=1, max_size=max_size).map(np.array)


@st.composite
def spectrum_and_order(draw, elements=POSITIVE):
    lam = draw(spectra(elements))
    return lam, draw(st.integers(min_value=1, max_value=lam.size))


@SETTINGS
@given(spectra(SIGNED))
def test_sigma_drop_rows_are_sigma_all_of_the_rest(lam):
    drops = symfun.sigma_drop(lam)
    full = symfun.sigma_all(lam)
    scale = symfun.sigma_all(np.abs(lam))
    for p in range(lam.size):
        rest = np.delete(lam, p)
        assert np.array_equal(drops[p], symfun.sigma_all(rest))
        # e_j(lam) = e_j(rest) + lam_p e_{j-1}(rest), an independent route
        rebuilt = np.append(drops[p], 0.0) + lam[p] * np.insert(drops[p], 0, 0.0)
        # plus the smallest normal float: products may fall to subnormals
        assert np.all(np.abs(rebuilt - full) <= 1e-12 * scale + np.finfo(float).tiny)


@SETTINGS
@given(spectra(POSITIVE))
def test_newton_maclaurin(lam):
    # normalised means S_j = e_j / binom(n, j) of a positive spectrum:
    # Newton S_{j-1} S_{j+1} <= S_j^2, Maclaurin S_j^(1/j) nonincreasing in j
    n = lam.size
    s = symfun.sigma_all(lam) / np.array([comb(n, j) for j in range(n + 1)])
    tol = 1e-12
    assert np.all(s[:-2] * s[2:] <= s[1:-1] ** 2 * (1.0 + tol))
    roots = s[1:] ** (1.0 / np.arange(1, n + 1))
    assert np.all(roots[1:] <= roots[:-1] * (1.0 + tol))


@SETTINGS
@given(spectrum_and_order())
def test_duality_product_is_one(lam_k):
    lam, k = lam_k
    assert abs(symfun.duality_product(lam, k) - 1.0) <= 1e-12


@st.composite
def conjugated(draw):
    lam, k = draw(spectrum_and_order())
    n = lam.size
    entries = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0),
                            min_size=2 * n * n, max_size=2 * n * n))
    # orthogonal factors of two drawn matrices, shifted to be nonsingular
    q1, _ = np.linalg.qr(np.reshape(entries[: n * n], (n, n)) + 3.0 * np.eye(n))
    r, _ = np.linalg.qr(np.reshape(entries[n * n:], (n, n)) + 3.0 * np.eye(n))
    a = q1 @ np.diag(lam) @ q1.T
    return 0.5 * (a + a.T), r, k, draw(st.sampled_from(["primal", "dual"]))


@SETTINGS
@given(conjugated())
def test_eval_operator_invariant_under_orthogonal_conjugation(case):
    # F(R A R^T) = F(A) and dF(R A R^T) = R dF(A) R^T
    a, r, k, mode = case
    b = r @ a @ r.T
    fa = symfun.eval_operator(SpectrumRequest(a, k, mode))
    fb = symfun.eval_operator(SpectrumRequest(0.5 * (b + b.T), k, mode))
    assert fb.value == pytest.approx(fa.value, rel=1e-12)
    scale = np.abs(fa.gradient).max()
    np.testing.assert_allclose(fb.gradient, r @ fa.gradient @ r.T,
                               rtol=0, atol=1e-10 * scale)
