"""Exact spectral evolution, shared by every model.

A state with coefficients c_n over eigenstates of energy E_n evolves as
c_n e^{-i E_n t}, so a whole series of expectation values or survival
amplitudes is one phase-and-contract pass over a (levels, times) grid.
The grid is worked in blocks of a fixed number of level-samples, which
keeps memory flat however many samples are asked for.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalContractError

#: Complex entries per (levels, times) block: 1 MB per working array, so a
#: block and its temporaries stay in a typical L2 cache.
_BLOCK_ENTRIES = 1 << 16

#: Largest imaginary part tolerated in the expectation of a Hermitian operator.
IMAG_TOL = 1e-10


def _blocks(n_levels: int, n_times: int):
    """Slices of the time axis, each about _BLOCK_ENTRIES level-samples."""
    step = max(1, _BLOCK_ENTRIES // n_levels)
    for lo in range(0, n_times, step):
        yield slice(lo, lo + step)


def expectation_series(energies, coeffs, op, times) -> np.ndarray:
    """<psi(t)|op|psi(t)> at each time, psi(t) = sum_n c_n e^{-i E_n t} |n>.

    op acts on the eigenbasis through `@` on a (levels, times) block, so a
    dense array and a scipy.sparse matrix both work.  op must be Hermitian:
    an imaginary residue above IMAG_TOL raises NumericalContractError.
    """
    energies = np.asarray(energies, dtype=float)
    coeffs = np.asarray(coeffs, dtype=complex)
    times = np.asarray(times, dtype=float)
    vals = np.empty(times.size)
    worst_imag = 0.0
    for blk in _blocks(energies.size, times.size):
        block = coeffs[:, None] * np.exp(-1j * np.outer(energies, times[blk]))
        expect = np.sum(np.conj(block) * (op @ block), axis=0)
        worst_imag = max(worst_imag, float(np.max(np.abs(expect.imag))))
        vals[blk] = expect.real
    if worst_imag > IMAG_TOL:
        raise NumericalContractError(
            f"expectation series has imaginary residue {worst_imag:.3e} > {IMAG_TOL:g}"
        )
    return vals


def survival_amplitude(energies, populations, times) -> np.ndarray:
    """<psi(0)|psi(t)> = sum_n |c_n|^2 e^{-i E_n t} at each time."""
    energies = np.asarray(energies, dtype=float)
    populations = np.asarray(populations, dtype=float)
    times = np.asarray(times, dtype=float)
    out = np.empty(times.size, dtype=complex)
    for blk in _blocks(energies.size, times.size):
        out[blk] = np.exp(-1j * np.outer(times[blk], energies)) @ populations
    return out
