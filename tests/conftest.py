import numpy as np
import pytest
from hypothesis import strategies as st

from cqdec.channel import make_channel


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


@st.composite
def channel_cases(draw, min_rank=1):
    """A random channel of 1-3 letters with random ranks, and a block length n."""
    d = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(2, 4 if d == 2 else 3))
    letters = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ranks = [draw(st.integers(min_rank, d)) for _ in range(letters)]
    priors = rng.dirichlet(np.ones(letters)) * 0.9 + 0.1 / letters
    return make_channel(priors, [random_density(rng, d, r) for r in ranks]), n


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


def sequential_povm(plan):
    """Element blocks and abort block from the no-chain on H, one test at a time.

    c_1 = 1; element l is c_l^dagger W_l and c_(l+1) = c_l - W_l (W_l^dagger c_l)
    for test l's (dim_H, r) block W_l.  The abort block is the identity minus
    every W W^dagger, symmetrized.
    """
    dim_h = plan.model.dim_H
    chain = np.eye(dim_h, dtype=complex)
    total = np.zeros((dim_h, dim_h), dtype=complex)
    blocks = []
    for block, adjoint in zip(plan.blocks, plan.adjoints):
        wc = adjoint @ chain
        total += wc.conj().T @ wc
        blocks.append(wc.conj().T)
        chain -= block @ wc
    abort = np.eye(dim_h) - total
    return blocks, 0.5 * (abort + abort.conj().T)


def assert_povm_matches_the_sequential_chain(povm, tol=1e-12):
    blocks, abort = sequential_povm(povm.plan)
    assert len(povm.blocks) == len(blocks)
    for w, ref in zip(povm.blocks, blocks):
        assert w.shape == ref.shape
        assert np.abs(w - ref).max(initial=0.0) <= tol
    assert np.abs(povm.abort - abort).max(initial=0.0) <= tol
