"""Shared fixtures: the bound-state basis, expensive enough to build once,
the full recurrence matrix that recurrence tests check against, the
autocorrelation delay from an FFT of twice the series length, the
spectral kernel's level rule that phases every level of nonzero weight, and
its dense contraction as one product over the whole block."""

import numpy as np
import pytest

from qnldyn.morse import MORSE_PRESETS, build_eigenbasis
from qnldyn.tsa.embedding import MAX_DELAY_LAG


@pytest.fixture(scope="session")
def morse_basis():
    return build_eigenbasis(MORSE_PRESETS["default"])


def _dense(rec):
    """The full n x n bool recurrence matrix: pairs, mirrors and diagonal."""
    dense = np.zeros((rec.n_points, rec.n_points), dtype=bool)
    dense[rec.ii, rec.jj] = True
    dense |= dense.T
    np.fill_diagonal(dense, True)
    return dense


@pytest.fixture(scope="session")
def dense():
    """_dense, for recurrence tests that check against the full matrix."""
    return _dense


def _double_length_delay(series):
    """autocorr_delay with the acf from an FFT padded to the power of two >= 2n."""
    x = series.values - series.values.mean()
    n = x.size
    max_lag = min(n // 2, MAX_DELAY_LAG)
    if max_lag < 2:
        return 1
    size = int(2 ** np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(x, size)
    acf = np.fft.irfft(spec * np.conj(spec), size)[: max_lag + 1]
    if acf[0] <= 0:
        return 1
    acf = acf / acf[0]
    for k in range(1, max_lag):
        if acf[k] < acf[k - 1] and acf[k] <= acf[k + 1]:
            return k
    below = np.nonzero(acf[1:] <= 0.0)[0]
    return int(below[0]) + 1 if below.size else 1


@pytest.fixture(scope="session")
def double_length_delay():
    """_double_length_delay, the reference every delay is held to."""
    return _double_length_delay


def _exact_zero_levels(bounds, size):
    """spectral._resolvable under the earlier rule: every level of nonzero
    bound is phased, whatever its size.  A zero bound means a zero
    coefficient (or an all-zero row and column of the operator), whose
    terms are exact zeros."""
    return np.flatnonzero(bounds)


@pytest.fixture(scope="session")
def exact_zero_levels():
    """_exact_zero_levels, the oracle the resolvable-level rule is held to."""
    return _exact_zero_levels


def _single_product(form, block):
    """spectral._contract for a dense K as one product: the whole block's K V
    in a single GEMM, then the column-wise dot."""
    return np.einsum("ij,ij->j", block, form @ block)


@pytest.fixture(scope="session")
def single_product():
    """_single_product, the oracle the chunked dense contraction is held to."""
    return _single_product
