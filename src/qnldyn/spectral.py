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

Each phase comes from one tangent of the half angle.  With x = E_n t and
u = tan(x/2),

    e^{-i x} = (1 - u^2)/(1 + u^2) - i 2u/(1 + u^2),

so a block costs one vectorized tan where cos and sin cost two library
calls.  The argument is the same double as in the direct e^{-i E_n t}
path: halving is exact in binary floating point, so (E_n/2) t is bit for
bit fl(E_n t)/2 unless it underflows to a subnormal, where the phase is 1
to within 1e-307.  The pair differs from cos and -sin of that argument by
about one rounding (at most 2.2e-16 absolute, measured over |x| <= 1e12
with numpy's SIMD tan and with its scalar fallback).  It stays finite at
odd multiples of pi, where u is large but never infinite, and x = 0 gives
exactly 1.
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
    blocks.  A block is filled from u = tan(x/2), x = E_n t, as
    (1 - u^2)/(1 + u^2) and -2u/(1 + u^2); x/2 is formed as (E_n/2) t,
    which equals fl(E_n t)/2 exactly, so the phase argument is unchanged.
    The phases go into one buffer that every block reuses, so a yielded
    block is valid only until the next one is asked for.
    """
    levels = energies.size
    if levels == 0:
        return
    step = max(1, _BLOCK_ENTRIES // levels)
    half = 0.5 * energies
    arg = np.empty(levels * min(step, times.size))
    denom = np.empty(arg.size)
    buf = np.empty(arg.size, dtype=complex)
    for lo in range(0, times.size, step):
        blk = slice(lo, lo + step)
        n = levels * times[blk].size
        u = np.multiply.outer(half, times[blk], out=arg[:n].reshape(levels, -1))
        phases = buf[:n].reshape(u.shape)
        u2 = denom[:n].reshape(u.shape)
        np.tan(u, out=u)
        np.multiply(u, u, out=u2)
        np.subtract(1.0, u2, out=phases.real)
        u2 += 1.0
        np.divide(phases.real, u2, out=phases.real)
        u *= -2.0
        np.divide(u, u2, out=phases.imag)
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
