"""Shared fixtures: the bound-state basis, expensive enough to build once,
and the full recurrence matrix that recurrence tests check against."""

import numpy as np
import pytest

from qnldyn.morse import MORSE_PRESETS, build_eigenbasis


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
