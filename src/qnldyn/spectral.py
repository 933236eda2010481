"""Exact spectral evolution, shared by every model.

A state with coefficients c_n over eigenstates of energy E_n evolves as
c_n e^{-i E_n t}, so a whole series of expectation values or survival
amplitudes is one phase-and-contract pass over a (levels, times) grid.
Only the occupied levels are phased: a level whose coefficient (or
population) is exactly zero adds exact zeros to every term, so it is
dropped before the pass.  An ell-component superposition, which is zero
off one residue class mod ell, therefore costs about 1/ell of its levels.
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


def _phase_blocks(energies, times):
    """Yield (time slice, e^{-i E_n t} block of shape (levels, slice)).

    Each block holds about _BLOCK_ENTRIES level-samples; no levels yield no
    blocks.  The phases are cos and -sin of the products E_n * t, written
    into one buffer that every block reuses, so a yielded block is valid
    only until the next one is asked for.
    """
    levels = energies.size
    if levels == 0:
        return
    step = max(1, _BLOCK_ENTRIES // levels)
    arg = np.empty(levels * min(step, times.size))
    buf = np.empty(arg.size, dtype=complex)
    for lo in range(0, times.size, step):
        blk = slice(lo, lo + step)
        n = levels * times[blk].size
        x = np.multiply.outer(energies, times[blk], out=arg[:n].reshape(levels, -1))
        phases = buf[:n].reshape(x.shape)
        np.cos(x, out=phases.real)
        np.sin(x, out=phases.imag)
        np.negative(phases.imag, out=phases.imag)
        yield blk, phases


def expectation_series(energies, coeffs, op, times) -> np.ndarray:
    """<psi(t)|op|psi(t)> at each time, psi(t) = sum_n c_n e^{-i E_n t} |n>.

    op acts on the eigenbasis through `@` on a (levels, times) block, so a
    dense array and a scipy.sparse matrix both work.  op must be Hermitian:
    an imaginary residue above IMAG_TOL raises NumericalContractError.
    Levels with c_n == 0 are dropped first; all-zero coeffs give zeros.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    keep = np.flatnonzero(coeffs)
    energies = np.asarray(energies, dtype=float)[keep]
    coeffs = coeffs[keep, None]
    op = op[keep][:, keep]
    times = np.asarray(times, dtype=float)
    vals = np.zeros(times.size)
    worst_imag = 0.0
    for blk, block in _phase_blocks(energies, times):
        np.multiply(coeffs, block, out=block)
        expect = op @ block
        np.multiply(np.conj(block, out=block), expect, out=expect)
        expect = np.sum(expect, axis=0)
        worst_imag = max(worst_imag, float(np.max(np.abs(expect.imag))))
        vals[blk] = expect.real
    if worst_imag > IMAG_TOL:
        raise NumericalContractError(
            f"expectation series has imaginary residue {worst_imag:.3e} > {IMAG_TOL:g}"
        )
    return vals


def survival_amplitude(energies, populations, times) -> np.ndarray:
    """<psi(0)|psi(t)> = sum_n |c_n|^2 e^{-i E_n t} at each time.

    Levels with zero population are dropped first; all-zero populations
    give zeros.
    """
    populations = np.asarray(populations, dtype=float)
    keep = np.flatnonzero(populations)
    energies = np.asarray(energies, dtype=float)[keep]
    populations = populations[keep]
    times = np.asarray(times, dtype=float)
    out = np.zeros(times.size, dtype=complex)
    for blk, block in _phase_blocks(energies, times):
        out[blk] = populations @ block
    return out
