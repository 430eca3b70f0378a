import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_hermitian(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (a + a.conj().T)


def random_unitary(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, dim: int, rank: int | None = None) -> np.ndarray:
    k = rank or dim
    a = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    m = a @ a.conj().T
    return m / np.trace(m).real


def random_state(rng, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def embedded_povm(povm):
    """Full-space (d^n, r) blocks and d^n x d^n abort element of a POVM held on H.

    Each (dim_H, r) block is placed at the typical rows model.masked_indices
    and the abort block into the identity there.
    """
    ix = povm.plan.model.masked_indices
    blocks = []
    for w in povm.blocks:
        full = np.zeros((povm.dim, w.shape[1]), dtype=complex)
        full[ix] = w
        blocks.append(full)
    abort = np.eye(povm.dim, dtype=complex)
    abort[np.ix_(ix, ix)] = povm.abort
    return blocks, abort
