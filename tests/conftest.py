import numpy as np
import pytest
from hypothesis import strategies as st

from cqdec.channel import make_channel
from cqdec.errors import ValidationError

FLOOR = 1e-14


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
    for block in plan.blocks:
        wc = block.conj().T @ chain
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


def yes_amplitudes(plan, psi, index):
    """Amplitudes <component|psi> over the columns of a test's block."""
    return plan.blocks[index].conj().T @ psi


def apply_no(plan, psi, index, amps):
    """Masked components after (1 - P_test) acting on a masked state."""
    return psi - plan.blocks[index] @ amps


def amplitude_chain(plan, ch, j_seq, labels, m):
    """<state| P (1-P_m) P ... P (1-P_1) P |state> for the plan's first m tests.

    This is the surviving amplitude after m "no" answers with every
    typicality projection applied, evaluated without any renormalization.
    """
    if ch is not plan.channel:
        raise ValidationError("ch is not the channel the plan was built for")
    if m < 0 or m > plan.num_tests:
        raise ValidationError(f"m must be in [0, {plan.num_tests}]")
    bra = plan.masked_state(j_seq, labels)
    psi = bra.copy()
    for idx in range(m):
        psi = apply_no(plan, psi, idx, yes_amplitudes(plan, psi, idx))
    return complex(np.vdot(bra, psi))


def sequential_masses(plan, j_seq, labels):
    """Cumulative outcome masses of |labels>_{j_seq}, one test at a time.

    Yields [opening abort, decode_0, abort_0, decode_1, ...], the law that
    simulate_trial samples, from the unnormalised state walked through one
    no-step per test: test l decodes with mass ||a_l||^2, a_l = W_l^dagger psi,
    and aborts at the next typicality check with a_l^dagger (1 - W_l^dagger
    W_l) a_l.  A no-branch below 1e-14 of the survival in front of its test
    is a forced decode, a survival below 1e-14 of its no-branch an abort;
    either ends the chain with a last entry of at least 1.
    """
    psi = plan.masked_state(j_seq, labels)
    front = float(np.vdot(psi, psi).real)
    if front < FLOOR:
        yield 1.0
        return
    total = max(1.0 - front, 0.0)
    yield total
    for block in plan.blocks:
        amps = block.conj().T @ psi
        step = block @ amps
        decode = float(np.vdot(amps, amps).real)
        loss = max(float(np.vdot(amps, amps - block.conj().T @ step).real), 0.0)
        psi = psi - step
        after = float(np.vdot(psi, psi).real)
        if after + loss < FLOOR * front:
            yield max(total + front, 1.0)
            return
        total += decode
        yield total
        if after < FLOOR * (after + loss):
            yield max(total + after + loss, 1.0)
            return
        total += loss
        yield total
        front = after


def transcript_probability(plan, ch, j_seq, labels, test_index):
    """Probability of the transcript "no everywhere, yes at test_index".

    The decode mass of that test in the plan's memoised Born chain, the one
    simulate_trial samples from; the chain is advanced as far as needed.
    """
    if ch is not plan.channel:
        raise ValidationError("ch is not the channel the plan was built for")
    if not 0 <= test_index < plan.num_tests:
        raise ValidationError(f"test_index {test_index} out of range")
    chain = plan.born_chain(tuple(int(j) for j in j_seq), tuple(int(k) for k in labels))
    at = 2 * test_index + 1
    while len(chain.masses) <= at and chain.psi is not None:
        chain = plan.advance_chain(chain)
    if len(chain.masses) <= at:
        return 0.0
    return chain.masses[at] - chain.masses[at - 1]
