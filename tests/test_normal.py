"""The in-package normal CDF and quantile against ``scipy.special``, bit for bit."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy import special

from itedist._normal import ndtr, ndtri

_SPECIAL = np.concatenate([
    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e-310, -1e-310,
     2.2250738585072014e-308, -2.2250738585072014e-308],
    # quiet NaNs with a payload, of either sign
    np.array([0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64).view(np.float64)])


def _around(points, ulps=40):
    """Each point and its ``ulps`` float neighbours on either side."""
    points = np.asarray(points, dtype=np.float64)
    out, lo, hi = [points], points, points
    for _ in range(ulps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return np.concatenate(out)


def _finite_bit_patterns(rng, size):
    """Doubles with uniformly random bit patterns: every exponent, both signs."""
    values = rng.integers(0, 2 ** 64, size, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


def _assert_bit_identical(ours, reference, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # the port must warn where scipy does not
        got = ours(x)
    want = reference(x)
    differ = got.view(np.int64) != want.view(np.int64)
    assert not differ.any(), (x[differ][:5], got[differ][:5], want[differ][:5])


def test_ndtr_bit_identical_to_scipy():
    rng = np.random.default_rng(20261019)
    root2, maxlog = np.sqrt(2.0), 7.09782712893383996843E2
    # Branch edges in a = x * sqrt(2): |x| = sqrt(1/2) (erf or erfc), 1 (erfc
    # through erf), 8 (second erfc table) and x^2 = MAXLOG (underflow).
    edges = [e * s for e in (1.0, root2, 8.0 * root2, np.sqrt(maxlog) * root2)
             for s in (1.0, -1.0)]
    x = np.concatenate([rng.standard_normal(600_000), rng.uniform(-45.0, 45.0, 400_000),
                        _finite_bit_patterns(rng, 200_000), _around(edges), _SPECIAL])
    _assert_bit_identical(ndtr, special.ndtr, x)


def test_ndtri_bit_identical_to_scipy():
    rng = np.random.default_rng(20261020)
    exp_m2 = 0.13533528323661269189
    # Branch edges: exp(-2) and 1 - exp(-2) (central or tail), exp(-32) and
    # its complement (x = 8 switches tail tables), the domain ends.
    edges = [0.0, 1.0, exp_m2, 1.0 - exp_m2, np.exp(-32.0), 1.0 - np.exp(-32.0), 0.5]
    y = np.concatenate([rng.uniform(0.0, 1.0, 600_000),
                        10.0 ** rng.uniform(-323.0, 0.0, 200_000),
                        1.0 - 10.0 ** rng.uniform(-17.0, 0.0, 200_000),
                        np.abs(_finite_bit_patterns(rng, 100_000)) % 1.0,
                        rng.uniform(-1.0, 2.0, 10_000), _around(edges), _SPECIAL])
    _assert_bit_identical(ndtri, special.ndtri, y)


def test_domain_ends_and_nan():
    assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf
    assert np.isnan(ndtri(-1e-300)) and np.isnan(ndtri(1.5)) and np.isnan(ndtri(np.inf))
    assert ndtr(-np.inf) == 0.0 and ndtr(np.inf) == 1.0 and np.isnan(ndtr(np.nan))


@pytest.mark.parametrize("fn, arg", [(ndtr, 0.3), (ndtri, 0.3), (ndtr, 2),
                                     (ndtri, np.float64(1.0))])
def test_scalar_in_scalar_out(fn, arg):
    assert type(fn(arg)) is np.float64


def test_shape_kept():
    x = np.linspace(0.05, 0.95, 6).reshape(2, 3)
    assert ndtri(x).shape == (2, 3) and ndtr(x).shape == (2, 3)
    assert ndtr(np.array([])).shape == (0,)
