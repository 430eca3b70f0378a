import itertools
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from cqdec.bounds import _SOFT_TOL
from cqdec.channel import builtin_channel, make_channel
from cqdec.codebook import Codebook, codeword_count
from cqdec.config import parse_kv_text
from cqdec.errors import ConfigError, ResourceBudgetError, ValidationError
from cqdec.linalg import (
    TOL_EIG,
    TOL_TRACE,
    as_complex_matrix,
    digit_table,
    entropy_of_spectrum,
    product_entries,
    spectral_decompose,
)
from cqdec.decoder import verify_mixture_identity
from cqdec.typicality import (
    _WINDOW_WIDEN,
    TypicalModel,
    _ClassBlockCache,
    build_rho_tilde,
    build_typical_model,
    classical_typical_set,
    conditional_labels,
)

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


def fixture_channels():
    """The default test suite of channels; chi spans roughly 0.19 to 1 bit."""
    return {
        "classical_bit": builtin_channel("classical_bit"),
        "pure_pair_0": builtin_channel("pure_pair", overlap=0.0),
        "pure_pair_05": builtin_channel("pure_pair", overlap=0.5),
        "pure_pair_cos45": builtin_channel("pure_pair", overlap=math.cos(math.pi / 4)),
        "depolarized_pair": builtin_channel("depolarized_pair", overlap=0.0, noise=0.5),
    }


def von_neumann_entropy(a) -> float:
    """S(rho) = -Tr[rho log2 rho] for a density matrix (PSD, unit trace)."""
    m = as_complex_matrix(a)
    tr = complex(np.trace(m))
    if abs(tr - 1.0) > TOL_TRACE:
        raise ValidationError(f"density matrix must have unit trace, got {tr}")
    dec = spectral_decompose(m)
    if dec.eigenvalues.min() < -TOL_EIG:
        raise ValidationError(
            f"density matrix has negative eigenvalue {dec.eigenvalues.min():.3e}"
        )
    return max(0.0, entropy_of_spectrum(dec.eigenvalues))


def shannon_entropy(p) -> float:
    """Entropy in bits of a probability vector."""
    v = np.asarray(p, dtype=float)
    if v.ndim != 1:
        raise ValidationError("probability vector must be one-dimensional")
    if v.min() < -TOL_EIG:
        raise ValidationError(f"negative probability {v.min():.3e}")
    if abs(v.sum() - 1.0) > TOL_TRACE:
        raise ValidationError(f"probabilities must sum to 1, got {v.sum()!r}")
    return entropy_of_spectrum(np.clip(v, 0.0, None))


_CODEBOOK_KEYS = {"n", "rate", "seed", "delta_source", "distinct", "codewords"}


def codebook_to_text(cb) -> str:
    """A codebook in the key-value format of the config files."""
    lines = [
        f"n = {cb.n}",
        f"rate = {cb.rate!r}",
        f"seed = {cb.seed}",
        f"delta_source = {cb.delta_source!r}",
        f"distinct = {json.dumps(cb.distinct)}",
        f"codewords = {json.dumps([list(w) for w in cb.codewords])}",
    ]
    return "\n".join(lines) + "\n"


def parse_codebook_text(text: str) -> Codebook:
    doc = parse_kv_text(text)
    unknown = set(doc) - _CODEBOOK_KEYS
    if unknown:
        raise ConfigError(f"unknown codebook keys: {sorted(unknown)}")
    missing = _CODEBOOK_KEYS - set(doc)
    if missing:
        raise ConfigError(f"codebook document missing keys: {sorted(missing)}")
    words = tuple(tuple(int(x) for x in w) for w in doc["codewords"])
    return Codebook(
        n=int(doc["n"]),
        rate=float(doc["rate"]),
        seed=int(doc["seed"]),
        delta_source=float(doc["delta_source"]),
        distinct=bool(doc["distinct"]),
        codewords=words,
    )


def reference_codewords(ch, n, rate, delta_source, seed, distinct=False):
    """sample_codebook's codewords drawn one candidate at a time.

    Each candidate is one rng.choice call, kept when every letter frequency
    is within delta_source (+1e-12) of its prior and, with ``distinct``, when
    it is new.
    """
    target = codeword_count(n, rate)
    rng = np.random.default_rng(seed)
    words, seen = [], set()
    while len(words) < target:
        seq = tuple(int(x) for x in rng.choice(ch.alphabet_size, size=n, p=ch.priors))
        counts = np.bincount(seq, minlength=ch.alphabet_size)
        if not np.all(np.abs(counts / n - ch.priors) <= delta_source + 1e-12):
            continue
        if distinct:
            if seq in seen:
                continue
            seen.add(seq)
        words.append(seq)
    return tuple(words)


def bruteforce_conditional_labels(ch, word, delta_cond):
    """Every label sequence of ``word`` inside the conditional count window, lexicographic.

    Filters the product of the letters' supports: for each letter j of the
    word and label k, |m_jk/n - p_j p_(k|j)| <= delta_cond + 1e-12.  Returns
    the labels and their probs, the products of the conditional eigenvalues.
    """
    n = len(word)
    labels, probs = [], []
    for seq in itertools.product(*(range(ch.letters[j].support) for j in word)):
        if all(
            abs(sum(w == j and k == x for w, x in zip(word, seq)) / n
                - ch.priors[j] * ch.letters[j].probs[k]) <= delta_cond + 1e-12
            for j in set(word) for k in range(ch.letters[j].support)
        ):
            labels.append(seq)
            probs.append(math.prod(ch.letters[j].probs[k] for j, k in zip(word, seq)))
    return labels, np.array(probs)


def bruteforce_label_block(ch, word, delta_cond):
    """bruteforce_conditional_labels' label sequences as a (count, n) int array."""
    return np.array(bruteforce_conditional_labels(ch, word, delta_cond)[0], dtype=int).reshape(
        -1, len(word))


def schedule_label_blocks(plan, delta_cond, variant):
    """A lexicographic plan's tests rebuilt from its codebook: a (codeword, labels) pair each.

    Messages in order, each one's label sequences bruteforce_label_block's,
    in lexicographic order: one (1, n) labels row per test for rank_one, one
    (count, n) block per message for subspace.  Asserts that plan.messages
    names the same message for every test.
    """
    tests = []
    for s, word in enumerate(plan.codebook.codewords):
        block = bruteforce_label_block(plan.channel, word, delta_cond)
        tests += [(s, word, block)] if variant == "subspace" else [
            (s, word, row[None]) for row in block]
    assert [s for s, _, _ in tests] == list(plan.messages)
    return [(word, labels) for _, word, labels in tests]


def assert_block_labels_match_bruteforce(ch, words, delta_cond, budgets):
    """conditional_labels over a block of words equals the brute-force enumeration, row by row.

    Each row's labels, sorted lexicographically, must be the brute-force set,
    with probs to 1e-14; rows of one word, repeated or not, must agree to the
    bit.  More than set_limit pairs in all must raise the set budget error.
    """
    refs = [bruteforce_conditional_labels(ch, word, delta_cond) for word in words]
    sizes = [len(labels) for labels, _ in refs]
    block = np.array(words).reshape(len(words), -1)
    if sum(sizes) > budgets.set_limit:
        with pytest.raises(ResourceBudgetError) as exc:
            conditional_labels(ch, block, delta_cond, budgets)
        assert exc.value.reason == "set"
        return
    labels, probs, counts = conditional_labels(ch, block, delta_cond, budgets)
    assert labels.dtype == np.int16 and labels.shape == (sum(sizes), len(words[0]))
    assert counts.tolist() == sizes
    seen = {}
    starts = np.cumsum(counts) - counts
    for word, (ref_labels, ref_probs), at, c in zip(words, refs, starts, counts):
        rows, row_probs = labels[at:at + c], probs[at:at + c]
        order = np.lexsort(rows.T[::-1])
        assert [tuple(r) for r in rows[order].tolist()] == ref_labels
        assert np.allclose(row_probs[order], ref_probs, rtol=1e-14, atol=0.0)
        first = seen.setdefault(tuple(word), (rows, row_probs))
        assert first[0].tobytes() == rows.tobytes() and first[1].tobytes() == row_probs.tobytes()


def typical_capture(ch, model, codewords) -> np.ndarray:
    """Tr(P rho_s) = ||A_s[H, :]||_F^2 for each codeword s.

    A_s is codeword s's Kronecker factor, the product of its letters'
    coords[:, :support] sqrt(probs).  One product_entries call reads every
    codeword's factor columns at the typical rows, model.masked_digits.
    """
    supports = [sp.support for sp in ch.letters]
    table = np.concatenate(
        [u[:, :sp.support] * np.sqrt(sp.probs) for u, sp in zip(ch.coords, ch.letters)], axis=1
    )
    offsets = np.cumsum([0] + supports)
    owner, cols = [], []
    for s, word in enumerate(codewords):
        for labels in itertools.product(*(range(supports[j]) for j in word)):
            owner.append(s)
            cols.append([offsets[j] + k for j, k in zip(word, labels)])
    a = product_entries([table] * model.n, model.masked_digits, np.array(cols))
    mass = (a.real * a.real + a.imag * a.imag).sum(axis=0)
    return np.bincount(owner, weights=mass, minlength=len(codewords))


def kronecker_mixture_deviation(ch, params, model, rho_tilde):
    """verify_mixture_identity's deviation from a dense d^n x d^n sum, one sequence at a time.

    Each typical sequence adds its type's Kronecker product of the class
    operators A_(j,m) = sum_block p |u><u| (see verify_mixture_identity),
    with the tensor axes permuted from class order to the sequence's
    positions and weight p_seq; the sum is read at the typical rows and
    columns and compared with ``rho_tilde``.
    """
    n, d = params.n, ch.letter_dim
    cache = _ClassBlockCache(ch, n, params.cond_delta)
    dtype = ch.coords[0].dtype
    lhs = np.zeros((model.dim_total, model.dim_total), dtype=dtype)
    lhs_axes = lhs.reshape((d,) * (2 * n))
    factors = {}
    for row in classical_typical_set(ch.priors, n, params.source_delta):
        row = row.astype(int)
        key = tuple((j, c) for j, c in enumerate(np.bincount(row).tolist()) if c)
        if not cache.type_size(key):
            continue
        kron = np.ones((1, 1), dtype=dtype)
        for j, m in key:
            if (j, m) not in factors:
                labels, probs = cache.block(j, m)
                vecs = product_entries([ch.coords[j]] * m, digit_table(d, m), labels)
                factors[(j, m)] = (vecs * probs) @ vecs.conj().T
            kron = np.kron(kron, factors[(j, m)])
        p_seq = math.exp(sum(m * float(np.log(ch.priors[j])) for j, m in key))
        perm = np.argsort(np.argsort(row, kind="stable"))
        lhs_axes += (p_seq * kron).reshape((d,) * (2 * n)).transpose(*perm, *(perm + n))
    ix = model.masked_indices
    return float(np.abs(lhs[np.ix_(ix, ix)] - rho_tilde.as_dense()).max(initial=0.0))


def mixture_deviation(ch, params):
    """verify_mixture_identity on the typical model and rho_tilde of ``params``."""
    model = build_typical_model(ch, params)
    return verify_mixture_identity(ch, params, model, build_rho_tilde(ch, params, model))


@dataclass(frozen=True)
class MeasurementBudget:
    m_theory_log2: float
    m_cap_log2: float

    @property
    def m_theory(self) -> float:
        return 2.0**self.m_theory_log2

    @property
    def m_cap(self) -> float:
        return 2.0**self.m_cap_log2

    @property
    def within(self) -> bool:
        return self.m_theory_log2 <= self.m_cap_log2 + _SOFT_TOL


def measurement_budget(n: int, rate: float, ch, delta: float) -> MeasurementBudget:
    """Theoretical test count 2^(nR) 2^(n sum_j p_j S(rho_j)) vs the cap 2^(n(S - delta)).

    The count exponent uses the prior-weighted average of the per-letter
    output entropies (the quantity that also sizes the conditional typical
    subspaces).
    """
    m_theory_log2 = n * (rate + ch.mean_letter_entropy)
    m_cap_log2 = n * (ch.avg_entropy - delta)
    return MeasurementBudget(m_theory_log2=m_theory_log2, m_cap_log2=m_cap_log2)


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


def reference_typical_model(ch, params) -> TypicalModel:
    """The typical model by a scan of all d^n product eigenvalues, each tested on its own.

    Every label sequence of digit_table gets its product of average-state
    eigenvalues and the entropy window test; build_typical_model must give
    the same arrays to the bit.
    """
    n, d = params.n, ch.letter_dim
    digits = digit_table(d, n)
    products = np.prod(ch.avg_probs[digits.astype(int)], axis=1)
    lo = -n * (ch.avg_entropy + params.delta) - _WINDOW_WIDEN
    hi = -n * (ch.avg_entropy - params.delta) + _WINDOW_WIDEN
    with np.errstate(divide="ignore"):
        logs = np.log2(products)
    mask = (logs >= lo) & (logs <= hi)
    return TypicalModel(
        n=n,
        letter_dim=d,
        delta=params.delta,
        s_rho=ch.avg_entropy,
        masked_indices=np.nonzero(mask)[0],
        masked_digits=digits[mask],
        rho_bar_diag=products[mask],
        trace_bar=float(products[mask].sum()),
    )


def typical_mask(model):
    """The typical subspace H as a boolean mask over all d^n product eigenvectors."""
    mask = np.zeros(model.dim_total, dtype=bool)
    mask[model.masked_indices] = True
    return mask


def element_blocks(columns, offsets):
    """Each test's (dim_H, r) block, r = 1 for a rank-one test: views of ``columns``.

    Test l owns columns offsets[l]:offsets[l + 1], for a plan's ``columns``
    and for a POVM's, which has the plan's offsets.
    """
    return [columns[:, i:e] for i, e in zip(offsets, offsets[1:])]


def embedded_povm(povm):
    """Full-space (d^n, r) blocks and d^n x d^n abort element of a POVM held on H.

    Each (dim_H, r) block is placed at the typical rows model.masked_indices
    and the abort block into the identity there.
    """
    ix = povm.plan.model.masked_indices
    blocks = []
    for w in element_blocks(povm.columns, povm.plan.offsets):
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
    for block in element_blocks(plan.columns, plan.offsets):
        wc = block.conj().T @ chain
        total += wc.conj().T @ wc
        blocks.append(wc.conj().T)
        chain -= block @ wc
    abort = np.eye(dim_h) - total
    return blocks, 0.5 * (abort + abort.conj().T)


def assert_povm_matches_the_sequential_chain(povm, tol=1e-12):
    blocks, abort = sequential_povm(povm.plan)
    povm_blocks = element_blocks(povm.columns, povm.plan.offsets)
    assert len(povm_blocks) == len(blocks)
    for w, ref in zip(povm_blocks, blocks):
        assert w.shape == ref.shape
        assert np.abs(w - ref).max(initial=0.0) <= tol
    assert np.abs(povm.abort - abort).max(initial=0.0) <= tol


def yes_amplitudes(plan, psi, index):
    """Amplitudes <component|psi> over the columns of a test's block."""
    return element_blocks(plan.columns, plan.offsets)[index].conj().T @ psi


def apply_no(plan, psi, index, amps):
    """Masked components after (1 - P_test) acting on a masked state."""
    return psi - element_blocks(plan.columns, plan.offsets)[index] @ amps


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
    and aborts at the next typicality check with a_l^dagger (a_l - W_l^dagger
    W_l a_l), clamped at 0.  No mass is rescaled and no rule cuts the walk.
    """
    psi = plan.masked_state(j_seq, labels)
    total = max(1.0 - float(np.vdot(psi, psi).real), 0.0)
    yield total
    for block in element_blocks(plan.columns, plan.offsets):
        amps = block.conj().T @ psi
        step = block @ amps
        total += float(np.vdot(amps, amps).real)
        yield total
        total += max(float(np.vdot(amps, amps - block.conj().T @ step).real), 0.0)
        yield total
        psi = psi - step


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
    while len(chain.masses) <= at and chain.run < len(plan.factors):
        plan.advance_chain(chain)
    if len(chain.masses) <= at:
        return 0.0
    return chain.masses[at] - chain.masses[at - 1]
