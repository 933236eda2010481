"""Two-site bosonic Josephson junction in the collective-spin picture.

N atoms on two sites map to a spin l = N/2; hopping enters as -J L_x and
on-site interaction as U L_z^2.  The (N+1)-dimensional Hamiltonian is
diagonalized once, after which evolution at any time is an exact phase
rotation in the eigenbasis.
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


class BJJOperatorSet:
    """Spin operators and Hamiltonian for one parameter set.

    The eigendecomposition of H is computed lazily and cached, so long
    observable series reuse a single diagonalization.
    """

    def __init__(self, params: BJJParams):
        self.params = params
        l = params.spin
        m = np.arange(-l, l + 1.0)
        ladder = np.sqrt(l * (l + 1.0) - m[:-1] * (m[:-1] + 1.0))
        lp = np.diag(ladder, k=-1).astype(complex)  # L+ raises m (row index)
        lm = np.diag(ladder, k=1).astype(complex)
        self.lx = 0.5 * (lp + lm)
        self.ly = (lp - lm) / 2j
        self.lz = np.diag(m).astype(complex)
        self.hamiltonian = -params.J * self.lx + params.U * self.lz @ self.lz
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    def operator(self, name: str) -> np.ndarray:
        """Lx, Ly or Lz by name; case and surrounding blanks are ignored."""
        try:
            return {"lx": self.lx, "ly": self.ly, "lz": self.lz}[name.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown operator {name!r}") from None

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            self._eig = np.linalg.eigh(self.hamiltonian)
        return self._eig


def build_bjj(params: BJJParams) -> BJJOperatorSet:
    return BJJOperatorSet(params)


def su2_coherent(theta: float, phi: float, n_atoms: int) -> SpinState:
    """Spin coherent state at polar angle theta, azimuth phi.

    Amplitudes are proportional to [tan(theta/2) e^{-i phi}]^{l+m} times
    sqrt(C(2l, l+m)); the prefactor is fixed by numerical normalization,
    and the poles theta = 0, pi are taken as their limits (single basis
    states).
    """
    if not 0.0 <= theta <= np.pi:
        raise ValueError("theta must lie in [0, pi]")
    dim = n_atoms + 1
    amps = np.zeros(dim, dtype=complex)
    if theta == 0.0:
        amps[0] = 1.0  # m = -l
        return SpinState(amps)
    if theta == np.pi:
        amps[-1] = 1.0
        return SpinState(amps)
    k = np.arange(dim, dtype=float)  # k = l + m
    # sqrt(C(N, k)) without the N!, which the normalization absorbs
    log_mag = k * np.log(np.tan(theta / 2.0)) - 0.5 * (
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
    modes = vectors.conj().T @ state.amplitudes
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
    """
    if state.dim != ops.params.dim:
        raise ValueError("state dimension does not match the operator set")
    params = ops.params
    energies, vectors = ops.eigensystem()
    op_eig = vectors.conj().T @ ops.operator(observable) @ vectors
    modes = vectors.conj().T @ state.amplitudes
    vals = sample(energies, modes, op_eig, plan.times())
    vals *= 2.0 / params.n_atoms
    model = {
        "n_atoms": str(params.n_atoms),
        "J": repr(params.J),
        "U": repr(params.U),
        "u": repr(params.u),
    }
    return plan.series(vals, "bjj", observable, model)
