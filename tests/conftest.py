"""Shared fixtures: the bound-state basis, expensive enough to build once,
the full recurrence matrix that recurrence tests check against, the
autocorrelation delay from an FFT of twice the series length, the
spectral kernel's level rule that phases every level of nonzero weight,
its dense contraction as one product over the whole block, the bjj
series through one complex eigh of the whole Hamiltonian, and a series
that repeats one period exactly."""

import numpy as np
import pytest

from qnldyn import spectral
from qnldyn.morse import MORSE_PRESETS, build_eigenbasis
from qnldyn.series import TimeSeries
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
    """spectral._contract for a dense form as one product per row group: K V
    over the whole block, or A applied to its halves C and S, then the
    column-wise dot."""
    halves = block.reshape(-1, form.shape[0], block.shape[1])
    return np.einsum("ij,ij->j", block, (form @ halves).reshape(block.shape))


@pytest.fixture(scope="session")
def single_product():
    """_single_product, the oracle the chunked dense contraction is held to."""
    return _single_product


def _full_eigh_series(state, ops, plan, observable):
    """bjj.bloch_series values through one complex eigh of the whole H and a
    complex rotation, the path before the parity split: its vectors mix the
    sectors in near-degenerate doublets, so every level of a named state is
    phased."""
    energies, vectors = np.linalg.eigh(ops.hamiltonian.astype(complex))
    op = vectors.conj().T @ ops.operator(observable).astype(complex) @ vectors
    modes = vectors.conj().T @ state.amplitudes
    return spectral.sample(energies, modes, op, plan.times()) * (2.0 / ops.params.n_atoms)


@pytest.fixture(scope="session")
def full_eigh_series():
    """_full_eigh_series, the oracle the parity-sector series is held to."""
    return _full_eigh_series


@pytest.fixture(scope="session")
def tiled_period():
    """One 10-sample period repeated 300 times, exactly: a neighbor in the
    same phase shares its reference's future, so its gap is 0 at every
    offset.  Embedded at the autocorrelation delay (5) with m = 3, 4 or 5,
    the phases lie 0.020 to 0.026 apart on the normalized range."""
    k = np.arange(10)
    period = np.sin(2 * np.pi * k / 10) + 0.3 * np.cos(6 * np.pi * k / 10)
    return TimeSeries(np.tile(period, 300), 1.0)
