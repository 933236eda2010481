"""Exact spectral evolution, shared by every model.

A state with coefficients c_n over eigenstates of energy E_n evolves as
c_n e^{-i E_n t}, so a whole series of expectation values or survival
amplitudes is one phase-and-contract pass over a (levels, times) grid.
The grid is worked in blocks of a fixed number of level-samples, which
keeps memory flat however many samples are asked for.  All arithmetic in
the pass is real.

Resolvable levels.  Only the levels that can move a value by more than
rounding are phased.  Each level j gets a bound r_j on the terms that
touch it: for an expectation the sum of |M_jk| + |M_kj| over k, with
M = diag(c*) O diag(c) (a diagonal entry counts twice); for the survival
amplitude |p_j|.  The levels with the smallest bounds are dropped for as
long as their bounds sum to at most 2^-53 sum |M| (sum |p|).  Dropping a
level removes every term that touches it, and |z_j* z_k| = 1, so every
value moves by at most that sum: the unit roundoff times sum |M|, less
than the rounding the pass makes anyway in summing the terms.  A level
with a zero coefficient has bound 0 and always goes, so an ell-component
superposition, zero off one residue class mod ell, costs about 1/ell of
its levels.  So does the far Poisson tail that a Fock cutoff keeps: at
|alpha|^2 = 25, x^2 phases 79 of the 103 occupied levels.

Phases.  Each phase comes from one tangent of the half angle.  With
x = E_n t, v = tan(x/2) and w = 2/(1 + v^2),

    cos x = w - 1,    -sin x = -v w,

so a block costs one vectorized tan and one division where cos and sin
cost two library calls.  The half angle u = (E_n/2) t is the same double
as in the direct e^{-i E_n t} path: halving is exact in binary floating
point, so u is bit for bit fl(E_n t)/2 unless it underflows to a
subnormal, where the phase is 1 to within 1e-307.  x = 0 gives exactly 1.

Reduction.  numpy's SIMD tan is fast only on moderate arguments (above
about 1e5 rad it falls back to a path three to four times slower), and
series at long times reach E_n t ~ 1e7 rad.  Since tan has period pi,
u is first reduced by the two-constant method of Cody and Waite
(Software Manual for the Elementary Functions, 1980):

    k = rint(u / pi),    r = (u - k P1) - k P2,

where P1 is pi rounded to 29 significant bits (its last two are zero,
so it has 27) and P2 is the next 53 bits, the double nearest pi - P1.  For
|k| <= 2^24 the product k P1 needs at most 27 + 24 bits and is exact, and
u - k P1 is exact by Sterbenz's lemma, since u and k P1 lie within a
factor of two of each other when k != 0.  What is left is the rounding of
k P2 and of the last subtraction, at most 2^-53 (|k P2| + |r|) < 1.8e-16,
and the tail |pi - P1 - P2| < 3.3e-26 times |k|, below 6e-19.  So r is
u - k pi to within 1.8e-16, and the phase e^{-2iu} moves by at most twice
that; measured over |x| <= 1e12, every phase is within 4.9e-16 of
np.exp(-1j x).  The quotient u/pi carries a relative rounding of about
1.5e-16, so |r| <= pi/2 + |k| 4.7e-16: within 1e-9 of pi/2 for
|E_n t| <= 1e7 rad, and within 1e-8 at the limit.  A level whose
|E_n/2| max|t| / pi reaches 2^24 takes k = 0 at every time, and np.tan
does its own reduction for it.  The limit is a property of the input,
not a setting.

Contraction.  With z_n = e^{-i x_n} = C_n + i S_n and M = diag(c*) O
diag(c), the expectation is z^H M z.  Split M = H + N into Hermitian and
anti-Hermitian parts.  z^H H z is real and z^H N z is imaginary, so

    <O>(t) = z^H H z = V^T K V,   V = [C; S],   K = [[A, -B], [B, A]],

with H = A + iB: A real symmetric, B real antisymmetric, so K is real
symmetric.  Expanding, V^T K V = C^T A C + S^T A S + S^T B C - C^T B S;
the cross terms of the imaginary part, C^T A S - S^T A C and C^T B C +
S^T B S, vanish by the same symmetries.  K is built once per series.  For
a dense operator a block is then one real product K V and one column-wise
dot.  When B is exactly zero (a real M: a real operator and real
coefficients, as for bjj's L_x on its named states) the form is A alone,
applied to both halves: the product is [A C; A S], L^2 multiply-adds per
half and 2 L^2 per sample instead of 4 L^2.  This is the dense twin of the
banded path's skipped all-zero parts; a B that is nonzero anywhere, even at
rounding level, keeps K: morse's coefficients carry imaginary parts of up
to 6e-16, so its x keeps K.  The product is cut into column chunks of
c = 2^18 // (2L)^2 columns, so each is a GEMM of at most 2^18
multiply-adds (2^16 for A).  OpenBLAS (0.3.31,
interface/gemm.c) runs a GEMM with m n k <= 65536 x 4, its
GEMM_MULTITHREAD_THRESHOLD, on the calling thread and threads a larger
one, whose idle workers then spin on the other cores for about 0.12 s of
CPU after it returns.  Measured on a 2-CPU host: 118-130 ms of CPU after
a 22x22x5957 or a 72x72x1820 product, 0.1 ms after a 72x72x50 chunk.  The
chunks are one stacked product over a (row groups, chunks, rows, c) view
of the block, one row group of 2L rows for K and two of L (C and S) for A,
and one more product takes the remainder.  A form with c below 32 columns
(2L > 90) keeps one threaded product, since threads pay off there: on
that host, 2e5 columns at 2L = 100 took 52-66 ms threaded against 95-149
ms in 26-column chunks.  Up to 2L = 90 a chunked bjj series of 2e4
samples took a median 16-20 ms against 16-19 ms threaded (2L = 74-90),
and the threaded product stalled at some sizes (2L = 72 and 86: 210-270
ms).

A banded operator, given as {d: np.diagonal(O, d)}, is restricted to the
kept levels with its entries regrouped by their new offsets, and works
per diagonal pair +-d.  With h_d = A_d + i B_d the Hermitian part's
diagonal d >= 0, the symmetries give

    V^T K V = sum_d w_d sum_i [A_d,i (C_i C_i+d + S_i S_i+d)
                               + B_d,i (S_i C_i+d - C_i S_i+d)],

w_0 = 1 and w_d = 2 otherwise (B_0 = 0).  The d = 0 part is
sum_i A_0,i (C_i^2 + S_i^2) = sum_i A_0,i, which does not depend on t:
it is summed once, and every block starts from it.  On the halves of V
stacked as (2, levels, times) each part with d > 0 is one slice product,
of V[:, :L-d] (or its halves swapped, for B) with V[:, d:], and one dot
with the weights 2 [A_d, A_d] or 2 [B_d, -B_d]; an all-zero part is
skipped, so the real x^k of a real state never forms a B product.  The
survival amplitude sum_n p_n z_n is p C + i p S: two real products.

Hermiticity.  Since |z_n| = 1, |z^H N z| <= sum |N_jk| = sum |M - M^H|/2
at every t.  That bound is checked once, on the operator, against
IMAG_TOL max(1, sum |M|): relative to the size of the terms, because an
absolute gate falls below one rounding of <O> once <O> is large.  For a
banded operator both sums run per diagonal pair: M - M^H has the diagonals
m_d - conj(m_-d) and their conjugates at -d.  The residue is summed over
the kept levels only; the dropped entries shift it by at most
2^-53 sum |M|, far below the gate, so its verdicts are those on the
whole operator.
"""

from __future__ import annotations

import numpy as np

from .errors import NormalizationError, NumericalContractError

#: Level-samples per (levels, times) block: two real rows per level-sample,
#: 1 MB per working array, so a block and its temporaries stay in a
#: typical L2 cache.
_BLOCK_ENTRIES = 1 << 16

#: Multiply-adds m n k up to which OpenBLAS runs a GEMM on the calling
#: thread: a dense product is cut into column chunks this small (module
#: docstring, Contraction).
_GEMM_SERIAL = 1 << 18

#: Narrowest column chunk worth cutting; a larger form keeps one threaded
#: product.
_MIN_CHUNK = 32

#: Largest imaginary part tolerated in the expectation of a Hermitian
#: operator, relative to max(1, sum |M|) (module docstring).
IMAG_TOL = 1e-10

#: Tolerance on |<c|c> - 1| for coefficients that claim to be normalized.
NORM_TOL = 1e-10

#: pi rounded to 29 significant bits, and the double nearest pi minus it.
_PI_1 = float.fromhex("0x1.921fb54p+1")
_PI_2 = float.fromhex("0x1.10b4611a62633p-29")

#: Largest reduction multiple |k| for which k * _PI_1 is exact.
_K_LIMIT = 2.0**24


def _phase_blocks(energies, times):
    """Yield (time slice, real phase rows V of shape (2 levels, slice)).

    V[:L] holds cos(E_n t) and V[L:] holds -sin(E_n t), L = levels, built
    from the reduced half-angle tangent (module docstring).  Each block
    holds about _BLOCK_ENTRIES level-samples; no levels yield no blocks.
    The rows live in one buffer that every block reuses, so a yielded
    block is valid only until the next one is asked for.
    """
    levels = energies.size
    if levels == 0:
        return
    step = max(1, _BLOCK_ENTRIES // levels)
    half = 0.5 * energies
    t_max = float(np.max(np.abs(times), initial=0.0))
    # Dividing by inf gives k = 0: such a level is handed to tan unreduced.
    divisor = np.where(np.abs(half) * t_max < _K_LIMIT * np.pi, np.pi, np.inf)[:, None]
    size = levels * min(step, times.size)
    arg = np.empty(size)
    mult = np.empty(size)
    rows = np.empty(2 * size)
    for lo in range(0, times.size, step):
        blk = slice(lo, lo + step)
        n = levels * times[blk].size
        u = np.multiply.outer(half, times[blk], out=arg[:n].reshape(levels, -1))
        k = mult[:n].reshape(u.shape)
        block = rows[: 2 * n].reshape(2 * levels, -1)
        cos, sin = block[:levels], block[levels:]
        np.divide(u, divisor, out=k)
        np.rint(k, out=k)
        np.multiply(k, _PI_1, out=sin)
        u -= sin
        k *= _PI_2
        u -= k
        v = np.tan(u, out=u)
        np.multiply(v, v, out=k)
        k += 1.0
        w = np.divide(-2.0, k, out=k)  # -w
        np.subtract(-1.0, w, out=cos)
        np.multiply(v, w, out=sin)
        yield blk, block


def _resolvable(bounds, size):
    """Indices, ascending, of the levels left once the smallest bounds summing
    to at most 2^-53 size are dropped (module docstring, Resolvable levels)."""
    order = np.argsort(bounds, kind="stable")
    dropped = np.searchsorted(np.cumsum(bounds[order]), 2.0**-53 * size, side="right")
    return np.sort(order[dropped:])


def _weighted_bands(bands, coeffs):
    """(m, r) for M = diag(c*) op diag(c), op given by its {offset: diagonal} bands.

    m holds the diagonals m_d of M, and r_j = sum_k |M_jk| + |M_kj|.
    ValueError when a diagonal does not have the levels - |offset| entries
    of np.diagonal(op, offset).
    """
    levels = coeffs.size
    m, bounds = {}, np.zeros(levels)
    for d, band in bands.items():
        band = np.asarray(band, dtype=complex)
        size = max(0, levels - abs(d))
        if band.shape != (size,):
            raise ValueError(f"diagonal {d} of a {levels}-level operator needs "
                             f"{size} entries, not shape {band.shape}")
        lo = max(0, -d)
        m[d] = np.conj(coeffs[lo: lo + size]) * band * coeffs[lo + d: lo + d + size]
        mag = np.abs(m[d])
        bounds[lo: lo + size] += mag
        bounds[lo + d: lo + d + size] += mag
    return m, bounds


def _real_form(m):
    """(form, anti-Hermitian bound) for a dense M with Hermitian part A + iB:
    A alone when B is exactly zero, else K = [[A, -B], [B, A]]."""
    adjoint = m.conj().T
    bound = 0.5 * float(abs(m - adjoint).sum())
    herm = 0.5 * (m + adjoint)
    if not np.any(herm.imag):
        return herm.real, bound
    return np.block([[herm.real, -herm.imag], [herm.imag, herm.real]]), bound


def _restrict(bands, keep, levels):
    """The bands of op[keep][:, keep], op given by its {offset: diagonal} bands.

    Entries between two kept levels are regrouped by their new offset, and
    a diagonal left with no entry is dropped: on an ell-sublattice state the
    offsets that are not multiples of ell go.
    """
    pos = np.full(levels, -1)
    pos[keep] = np.arange(keep.size)
    out = {}
    for offset, band in bands.items():
        if band.size == 0:
            continue
        rows = pos[max(0, -offset): levels - max(0, offset)]
        cols = pos[max(0, offset): levels - max(0, -offset)]
        both = (rows >= 0) & (cols >= 0)
        rows, cols, band = rows[both], cols[both], band[both]
        for new in np.unique(cols - rows).tolist():
            at = cols - rows == new
            diagonal = out.setdefault(new, np.zeros(keep.size - abs(new), dtype=complex))
            diagonal[np.minimum(rows[at], cols[at])] = band[at]
    return out


def _banded_form(m, levels):
    """((constant, terms), anti-Hermitian bound) for M given by its diagonals m_d.

    The Hermitian part h_d = (m_d + conj(m_-d))/2 = A_d + i B_d on d >= 0
    stands for the offsets d and -d.  The d = 0 band gives the constant
    sum A_0; each term (d, weights, swap) of d > 0 holds 2 [A_d, A_d], or
    2 [B_d, -B_d] with swap set; all-zero weights are left out (module
    docstring, Contraction).
    """
    bound = constant = 0.0
    terms = []
    for d in sorted({abs(d) for d in m}):
        zero = np.zeros(levels - d, dtype=complex)
        upper, lower = m.get(d, zero), m.get(-d, zero)
        share = 1.0 if d == 0 else 2.0
        bound += 0.5 * share * float(np.abs(upper - np.conj(lower)).sum())
        herm = 0.5 * share * (upper + np.conj(lower))
        if d == 0:
            constant = float(herm.real.sum())
            continue
        if np.any(herm.real):
            terms.append((d, np.concatenate([herm.real, herm.real]), False))
        if np.any(herm.imag):
            terms.append((d, np.concatenate([herm.imag, -herm.imag]), True))
    return (constant, terms), bound


def _contract(form, block):
    """V^T K V for each column V of block, K dense or as (constant, banded terms).

    A dense form is K, or A alone, applied to the halves C and S of V.  The
    product is formed in the column chunks of K, each of at most
    _GEMM_SERIAL multiply-adds, unless a chunk would be narrower than
    _MIN_CHUNK (module docstring, Contraction).
    """
    if isinstance(form, np.ndarray):
        rows, cols = block.shape
        size = form.shape[0]
        groups = rows // size
        width = _GEMM_SERIAL // rows**2
        chunks = cols // width if width >= _MIN_CHUNK else 0
        split = chunks * width
        prod = np.empty_like(block)

        def stacked(a):  # (row groups, chunks, size, width)
            return a[:, :split].reshape(groups, size, chunks, width).transpose(0, 2, 1, 3)

        np.matmul(form, stacked(block), out=stacked(prod))
        rest = (groups, size, cols - split)
        np.matmul(form, block[:, split:].reshape(rest), out=prod[:, split:].reshape(rest))
        return np.einsum("ij,ij->j", block, prod)
    constant, terms = form
    halves = block.reshape(2, -1, block.shape[1])  # C and S
    levels = halves.shape[1]
    out = np.full(block.shape[1], constant)
    for d, weights, swap in terms:
        first = halves[::-1, : levels - d] if swap else halves[:, : levels - d]
        out += weights @ (first * halves[:, d:]).reshape(2 * (levels - d), -1)
    return out


def expectation_series(energies, coeffs, op, times) -> np.ndarray:
    """<psi(t)|op|psi(t)> at each time, psi(t) = sum_n c_n e^{-i E_n t} |n>.

    op is a dense array on the eigenbasis, or a banded operator given as
    {offset: np.diagonal(op, offset)} for its nonzero diagonals.  Only the
    resolvable levels are phased: with M = diag(c*) op diag(c), the levels
    whose row and column sums of |M| add up to at most 2^-53 sum |M| are
    dropped first, which moves every value by at most that much; levels
    with c_n == 0 always go, and all-zero coeffs give zeros.  op must be
    Hermitian: when the bound sum |M - M^H|/2 on the imaginary residue of
    the kept levels exceeds IMAG_TOL max(1, sum |M|),
    NumericalContractError is raised.  Dropping shifts that bound by at
    most 2^-53 sum |M|, far below the gate.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    levels = coeffs.size
    if isinstance(op, dict):
        m, bounds = _weighted_bands(op, coeffs)
    else:
        m = np.conj(coeffs)[:, None] * np.asarray(op) * coeffs
        mag = np.abs(m)
        bounds = mag.sum(axis=0) + mag.sum(axis=1)
    size = 0.5 * float(bounds.sum())
    keep = _resolvable(bounds, size)
    energies = np.asarray(energies, dtype=float)[keep]
    times = np.asarray(times, dtype=float)
    vals = np.zeros(times.size)
    if keep.size == 0:
        return vals
    if isinstance(op, dict):
        form, bound = _banded_form(_restrict(m, keep, levels), keep.size)
    else:
        form, bound = _real_form(m[np.ix_(keep, keep)])
    if bound > IMAG_TOL * max(1.0, size):
        raise NumericalContractError(
            f"expectation series has imaginary residue up to {bound:.3e} "
            f"> {IMAG_TOL:g} x max(1, sum|M|), sum|M| = {size:.3e}"
        )
    for blk, block in _phase_blocks(energies, times):
        vals[blk] = _contract(form, block)
    return vals


def survival_amplitude(energies, populations, times) -> np.ndarray:
    """<psi(0)|psi(t)> = sum_n |c_n|^2 e^{-i E_n t} at each time.

    Only the resolvable levels are phased: the smallest populations that
    sum to at most 2^-53 sum |p_n| are dropped first, which moves every
    value by at most that much; zero populations always go, and all-zero
    populations give zeros.
    """
    populations = np.asarray(populations, dtype=float)
    weight = np.abs(populations)
    keep = _resolvable(weight, float(weight.sum()))
    energies = np.asarray(energies, dtype=float)[keep]
    populations = populations[keep]
    levels = keep.size
    times = np.asarray(times, dtype=float)
    out = np.zeros(times.size, dtype=complex)
    for blk, block in _phase_blocks(energies, times):
        out.real[blk] = populations @ block[:levels]
        out.imag[blk] = populations @ block[levels:]
    return out


def check_normalized(coeffs, caller: str = "series") -> np.ndarray:
    """coeffs as a complex array; NormalizationError if |<c|c> - 1| > NORM_TOL."""
    coeffs = np.asarray(coeffs, dtype=complex)
    defect = abs(np.vdot(coeffs, coeffs).real - 1.0)
    if not defect <= NORM_TOL:
        raise NormalizationError(
            f"{caller} requires a normalized state: |<c|c> - 1| = {defect:.3e} > {NORM_TOL:g}"
        )
    return coeffs


def sample(energies, coeffs, op, times) -> np.ndarray:
    """`expectation_series` of normalized coeffs (`check_normalized`) at each time.

    op = None stands for the projector on psi(0), whose expectation is the
    survival probability |<psi(0)|psi(t)>|^2 = |sum_n |c_n|^2 e^{-i E_n t}|^2.
    """
    coeffs = check_normalized(coeffs)
    if op is None:
        return np.abs(survival_amplitude(energies, np.abs(coeffs) ** 2, times)) ** 2
    return expectation_series(energies, coeffs, op, times)
