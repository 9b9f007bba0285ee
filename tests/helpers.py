"""Shared builders for the test suite."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import randual
from randual import KrausChannel, UnitaryChannel, haar_unitary

# directory holding the imported package: src/ for a checkout, site-packages
# for an install; a relative PYTHONPATH would not survive a changed cwd
_PACKAGE_ROOT = str(Path(randual.__file__).resolve().parent.parent)


def run_cli(args, cwd, env=None):
    """Run `python -m randual *args` in cwd against the package under test.

    env, if given, overrides entries of the inherited environment.
    """
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "randual", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def random_hermitian(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return m + m.conj().T


def random_unitary_channel(d_a, d_b, seed):
    return UnitaryChannel(haar_unitary(d_a, seed), d_b=d_b)


def depolarizing(p):
    """Qubit depolarizing channel with Pauli error weight p."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    ops = np.array(
        [
            np.sqrt(1 - p) * np.eye(2, dtype=complex),
            np.sqrt(p / 3) * sx,
            np.sqrt(p / 3) * sy,
            np.sqrt(p / 3) * sz,
        ]
    )
    return KrausChannel(ops)


def amplitude_damping(gamma):
    ops = np.array(
        [
            [[1, 0], [0, np.sqrt(1 - gamma)]],
            [[0, np.sqrt(gamma)], [0, 0]],
        ],
        dtype=complex,
    )
    return KrausChannel(ops)


def random_kraus_channel(rng, d_a, d_b, r):
    """Random CPTP map: r Kraus operators sliced from a Haar isometry."""
    z = rng.normal(size=(d_b * r, d_a)) + 1j * rng.normal(size=(d_b * r, d_a))
    q = np.linalg.qr(z)[0]
    return KrausChannel(q.reshape(r, d_b, d_a))


def random_density_matrix(rng, d):
    m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = m @ m.conj().T
    return rho / np.trace(rho)
