"""Dense Hermitian linear algebra and the product kernel.

All operators and states are plain numpy arrays in a fixed global basis.
Composite systems of n letters with per-letter dimension d use one index
convention everywhere: letter 1 occupies the most significant digit of the
base-d composite index, which is exactly the ordering np.kron produces.

Entropies are in bits (base-2 logs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

TOL_HERM = 1e-10
TOL_EIG = 1e-10
TOL_TRACE = 1e-9


def as_complex_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_defect(a: np.ndarray) -> float:
    """Max absolute entry of A - A^dagger."""
    return float(np.abs(a - a.conj().T).max())


def check_hermitian(a, tol: float = TOL_HERM, name: str = "matrix") -> np.ndarray:
    m = as_complex_matrix(a)
    defect = hermiticity_defect(m)
    if defect > tol:
        raise ValidationError(f"{name} is not Hermitian: defect {defect:.3e} > {tol:.1e}")
    return m


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues (real, descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def spectral_decompose(a, tol: float = TOL_HERM) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    Eigenvalues are sorted descending.  Roundoff negatives in [-TOL_EIG, 0]
    are clamped to zero so downstream logs never see spurious negative
    weights; genuinely negative eigenvalues are kept as they are.
    """
    m = check_hermitian(a, tol=tol)
    vals, vecs = np.linalg.eigh(m)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    tiny = (vals < 0) & (vals >= -TOL_EIG)
    vals[tiny] = 0.0
    return SpectralDecomposition(eigenvalues=vals, eigenvectors=vecs)


def entropy_of_spectrum(eigenvalues) -> float:
    """Shannon entropy in bits of a nonnegative weight vector, 0*log(0) := 0."""
    lam = np.asarray(eigenvalues, dtype=float)
    pos = lam[lam > 0]
    if pos.size == 0:
        return 0.0
    return float(-(pos * np.log2(pos)).sum())


def digit_table(d: int, n: int) -> np.ndarray:
    """(d^n, n) table of base-d digits; letter 1 is the most significant digit."""
    idx = np.arange(d**n)
    digits = np.empty((d**n, n), dtype=np.int16)
    for i in range(n):
        digits[:, i] = (idx // d ** (n - 1 - i)) % d
    return digits


def product_entries(mats, rows, cols) -> np.ndarray:
    """(R, K) block of mats[0] kron ... kron mats[n-1] at the given digit rows and columns.

    ``rows`` is (R, n) and ``cols`` is (K, n), each row a composite index
    written as base-d digits (see digit_table).  Entry (r, k) is the product
    over letters i of mats[i][rows[r, i], cols[k, i]], multiplied left to
    right, so it equals the chained np.kron entry to the bit.  At most two
    (R, K) arrays are alive at once: the product and one letter's factor.
    """
    letters = zip(mats, rows.T, cols.T)
    m, r, c = next(letters)
    out = m.take(c, axis=1).take(r, axis=0)
    for m, r, c in letters:
        out *= m.take(c, axis=1).take(r, axis=0)
    return out
