"""Two-site bosonic Josephson junction in the collective-spin picture.

N atoms on two sites map to a spin l = N/2; hopping enters as -J L_x and
on-site interaction as U L_z^2.  The (N+1)-dimensional Hamiltonian is
diagonalized once, after which evolution at any time is an exact phase
rotation in the eigenbasis.

Parity.  Exchanging the two modes is the mirror P: |l, m> <-> |l, -m>, or
index i <-> N - i.  P L_x P = L_x and P L_z P = -L_z, so H = -J L_x + U L_z^2
commutes with P (Milburn, Corney, Wright & Walls, PRA 55, 4318 (1997)).
L_x, L_z and H are real, and H is diagonalized one sector at a time, on the
orthonormal vectors (e_i +- e_{N-i})/sqrt(2), i < N/2, plus e_{N/2} in the
even sector when N is even: N = 40 gives sectors of 21 and 20 levels.  In
that basis the sector blocks of H are h_ab +- h_a,N-b, with the centre's
row and column scaled by sqrt(2); folding a tridiagonal H adds at most one
nonzero pair per entry.  Each eigenvector is real and of exact parity,
v_{N-i} = +-v_i bit for bit, where one full eigh mixes the near-degenerate
self-trapping doublets across sectors.  A state of one parity (the `even`
and `pi` states are mirror-symmetric up to the rounding of their
amplitudes) then has only rounding-level coefficients in the other sector,
and `spectral.sample` drops them: the bench's state (N = 40, u = 50) phases
21 levels, not 36.  Up to N = 49 each sector has at most 25 levels, the
largest size LAPACK's eigh solves without divide and conquer, and the
rotations into the eigenbasis are real products under OpenBLAS's serial
limit: no call wakes OpenBLAS's threads, whose idle workers spin for about
0.12 s of CPU after a threaded call returns (`spectral` module docstring,
Contraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from warnings import warn

import numpy as np

from .fock import log_gamma
from .series import SamplingPlan, TimeSeries
from .spectral import check_normalized, sample


def _check_n_atoms(n_atoms: int) -> None:
    if n_atoms < 2:
        raise ValueError("n_atoms must be >= 2")


@dataclass(frozen=True)
class BJJParams:
    """Atom number, hopping J, on-site interaction U.

    The control parameter u = N U / J decides the dynamical regime; the
    Josephson window is 1 < u < N^2, and leaving it triggers a warning
    rather than an error.
    """

    n_atoms: int
    J: float = 1.0
    U: float = 0.0

    def __post_init__(self):
        _check_n_atoms(self.n_atoms)
        if not self.J > 0:
            raise ValueError("J must be positive")
        if self.U < 0:
            raise ValueError("U must be >= 0")
        u = self.u
        if not 1.0 < u < self.n_atoms**2:
            warn(
                f"u = {u:g} outside the Josephson window (1, N^2); "
                "regime labels in the analysis may not apply",
                stacklevel=2,
            )

    @classmethod
    def from_u(cls, n_atoms: int, u: float, J: float = 1.0) -> "BJJParams":
        """Build from the dimensionless coupling: U = u J / N."""
        _check_n_atoms(n_atoms)  # before U divides by it
        return cls(n_atoms=n_atoms, J=J, U=u * J / n_atoms)

    @property
    def u(self) -> float:
        return self.n_atoms * self.U / self.J

    @property
    def spin(self) -> float:
        return self.n_atoms / 2.0

    @property
    def dim(self) -> int:
        return self.n_atoms + 1


@dataclass(frozen=True)
class SpinState:
    """Amplitudes over |l, m>, m = -l .. l (index 0 is m = -l)."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 2:
            raise ValueError("amplitudes must be 1-d with >= 2 entries")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def _parity_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ascending energies, real orthonormal vectors) of a real symmetric h
    that commutes with the mirror i <-> n - 1 - i, by one eigh per parity
    sector (module docstring, Parity)."""
    dim = h.shape[0]
    half = dim // 2
    top = h[:half]
    energies, vectors = [], []
    for sign in (1.0, -1.0):
        block = top[:, :half] + sign * top[:, ::-1][:, :half]
        centre = sign > 0 and dim % 2 == 1
        if centre:
            edge = np.sqrt(2.0) * h[:half, half: half + 1]
            block = np.block([[block, edge], [edge.T, h[half:half + 1, half:half + 1]]])
        e, w = np.linalg.eigh(block)
        v = np.zeros((dim, e.size))
        v[:half] = w[:half] * np.sqrt(0.5)
        v[dim - half:] = sign * v[:half][::-1]
        if centre:
            v[half] = w[half]
        energies.append(e)
        vectors.append(v)
    energies, vectors = np.concatenate(energies), np.hstack(vectors)
    order = np.argsort(energies, kind="stable")
    return energies[order], vectors[:, order]


class BJJOperatorSet:
    """Spin operators and Hamiltonian for one parameter set.

    L_x, L_z and H are real and L_y imaginary (complex).  The
    eigendecomposition of H is computed lazily and cached, so long
    observable series reuse a single diagonalization.
    """

    def __init__(self, params: BJJParams):
        self.params = params
        l = params.spin
        m = np.arange(-l, l + 1.0)
        ladder = np.sqrt(l * (l + 1.0) - m[:-1] * (m[:-1] + 1.0))
        lp = np.diag(ladder, k=-1)  # L+ raises m (row index)
        self.lx = 0.5 * (lp + lp.T)
        self.ly = (lp - lp.T) / 2j
        self.lz = np.diag(m)
        self.hamiltonian = -params.J * self.lx + params.U * self.lz @ self.lz
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    def operator(self, name: str) -> np.ndarray:
        """Lx, Ly or Lz by name; case and surrounding blanks are ignored."""
        try:
            return {"lx": self.lx, "ly": self.ly, "lz": self.lz}[name.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown operator {name!r}") from None

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """(energies, vectors): ascending energies and real orthonormal
        eigenvectors of H, each of exact parity (module docstring, Parity)."""
        if self._eig is None:
            self._eig = _parity_eigh(self.hamiltonian)
        return self._eig


def build_bjj(params: BJJParams) -> BJJOperatorSet:
    return BJJOperatorSet(params)


def su2_coherent(theta: float, phi: float, n_atoms: int) -> SpinState:
    """Spin coherent state at polar angle theta, azimuth phi.

    Amplitudes are proportional to [tan(theta/2) e^{-i phi}]^{l+m} times
    sqrt(C(2l, l+m)); the prefactor is fixed by numerical normalization,
    and the poles theta = 0, pi are taken as their limits (single basis
    states); so is a theta whose half underflows to 0.
    """
    if not 0.0 <= theta <= np.pi:
        raise ValueError("theta must lie in [0, pi]")
    dim = n_atoms + 1
    amps = np.zeros(dim, dtype=complex)
    ratio = np.tan(theta / 2.0)
    if ratio == 0.0:
        amps[0] = 1.0  # m = -l
        return SpinState(amps)
    if theta == np.pi:
        amps[-1] = 1.0
        return SpinState(amps)
    k = np.arange(dim, dtype=float)  # k = l + m
    # sqrt(C(N, k)) without the N!, which the normalization absorbs
    log_mag = k * np.log(ratio) - 0.5 * (
        log_gamma(k + 1.0) + log_gamma(n_atoms - k + 1.0)
    )
    log_mag -= log_mag.max()
    if phi == 0.0:
        phase = np.ones(dim)
    elif phi == np.pi:
        phase = np.where(k.astype(int) % 2 == 0, 1.0, -1.0)  # exact half turns
    else:
        phase = np.exp(-1j * k * phi)
    amps = np.exp(log_mag) * phase
    return SpinState(amps / np.linalg.norm(amps))


def make_initial(kind: str, n_atoms: int) -> SpinState:
    """Named starting states on the equator of the Bloch sphere.

    'pi' is the phase state at (theta, phi) = (pi/2, pi); 'even' is the
    balanced sum of the phi = 0 and phi = pi equatorial states, which are
    exactly orthogonal, so the 1/sqrt(2) prefactor normalizes it without
    numerical correction.
    """
    if n_atoms % 2 != 0:
        raise ValueError("these named states need an even atom number")
    if kind == "pi":
        return su2_coherent(np.pi / 2.0, np.pi, n_atoms)
    if kind == "even":
        a = su2_coherent(np.pi / 2.0, 0.0, n_atoms)
        b = su2_coherent(np.pi / 2.0, np.pi, n_atoms)
        return SpinState((a.amplitudes + b.amplitudes) / np.sqrt(2.0))
    raise ValueError(f"unknown initial state {kind!r}")


def evolve_bjj(state: SpinState, ops: BJJOperatorSet, t: float) -> SpinState:
    """Evolve through the cached eigendecomposition."""
    if state.dim != ops.params.dim:
        raise ValueError("state dimension does not match the operator set")
    check_normalized(state.amplitudes, "evolve_bjj")
    energies, vectors = ops.eigensystem()
    modes = vectors.T @ state.amplitudes
    return SpinState(vectors @ (modes * np.exp(-1j * energies * t)))


def bloch_series(
    state: SpinState,
    ops: BJJOperatorSet,
    plan: SamplingPlan,
    observable: str = "lx",
) -> TimeSeries:
    """Sample the normalized Bloch component 2 <L_axis> / N along a grid.

    Work happens in the eigenbasis: the spectral kernel phases the modes
    and contracts them with the rotated operator, so 1e6 samples stay cheap.
    The rotation V^T O V is real: one product for L_x and L_z, two for the
    imaginary L_y.
    """
    if state.dim != ops.params.dim:
        raise ValueError("state dimension does not match the operator set")
    params = ops.params
    energies, vectors = ops.eigensystem()
    op = ops.operator(observable)
    op_eig = vectors.T @ op.real @ vectors
    if np.iscomplexobj(op):  # L_y: its imaginary part, also a real product
        op_eig = op_eig + 1j * (vectors.T @ op.imag @ vectors)
    modes = vectors.T @ state.amplitudes
    vals = sample(energies, modes, op_eig, plan.times())
    vals *= 2.0 / params.n_atoms
    model = {
        "n_atoms": str(params.n_atoms),
        "J": repr(params.J),
        "U": repr(params.U),
        "u": repr(params.u),
    }
    return plan.series(vals, "bjj", observable, model)
