"""Property tests over random channels with letter dimension d in {2, 3}.

The count-vector enumerator of frequency windows is checked against a
brute-force filter of every sequence, the typical model against the scan
of every label (conftest.reference_typical_model) to the bit, and the
classical rho_tilde, which ranks labels in H by a search, against the dense
sum.  The product kernel is checked against chained np.kron, the POVM that
build_povm assembles on the typical subspace in compact WY runs against the
no-chain run one test at a time on H and, embedded into the full d^n space,
against the no-chain run there, for both decoder variants, each
element's Gram-form minimum eigenvalue against a dense diagonalization, the
completeness defect and minimum eigenvalue taken on H against the embedded
dense POVM, the Kronecker-factor mixture identity against a pair-by-pair
outer-product accumulation, and the exact oracle against the three-operand
einsum on the kron outputs and, per message, against the Born-rule chain
summed over every label sequence, and its error against the typicality
floor: at least the opening abort 1 - mean Tr(P rho_s), and for pure letters
with rank-one tests at least 1 - mean Tr(P rho_s)^2, with Tr(P rho_s) read
from the codewords' Kronecker factors and checked against the dense kron
outputs.  The memoised Monte Carlo
path, which reads a trial's outcome from WY-run outcome masses with one
uniform, is checked against the same law walked one test at a time with one
rng.choice per letter: the same transcripts and the same generator state,
also under a memo cap, and the same decode masses to 1e-12; every
cumulative mass of its chains is checked against that walk, nondecreasing
and at most 1 + 1e-12, and a state with no component in H against the
opening abort.  Its outcome frequencies per message are checked against the
exact oracle.
"""
import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cqdec.budgets import Budgets
from cqdec.channel import builtin_channel, make_channel
from cqdec.codebook import Codebook, sample_codebook
from cqdec.decoder import (
    ABORT_ATYPICAL,
    ABORT_EXHAUSTED,
    DECODED,
    Transcript,
    build_plan,
    build_povm,
    exact_error_probability,
    product_output_state,
    sample_output_labels,
    simulate_trial,
    verify_mixture_identity,
)
from cqdec.errors import ValidationError
from cqdec.linalg import digit_table, product_entries
from cqdec.typicality import (
    TypicalityParams,
    _count_bounds,
    _window_sequences,
    build_rho_tilde,
    build_typical_model,
    classical_typical_set,
)

from conftest import (
    assert_block_labels_match_bruteforce,
    assert_povm_matches_the_sequential_chain,
    bruteforce_conditional_labels,
    channel_cases,
    embedded_povm,
    fixture_channels,
    random_density,
    reference_codewords,
    reference_typical_model,
    schedule_label_blocks,
    sequential_masses,
    transcript_probability,
    typical_capture,
    typical_mask,
)

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=40)


@st.composite
def kron_cases(draw):
    d = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(1, 4 if d == 2 else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n)]
    rows = draw(st.lists(st.integers(0, d**n - 1), max_size=2 * d**n))
    cols = draw(st.lists(st.integers(0, d**n - 1), max_size=2 * d**n))
    return mats, np.array(rows, dtype=int), np.array(cols, dtype=int)


@st.composite
def plan_cases(draw, min_rank=1, variant=None):
    """A random channel, a random codebook and typicality windows from tight to wide."""
    ch, n = draw(channel_cases(min_rank))
    letters = ch.alphabet_size
    words = draw(st.lists(st.lists(st.integers(0, letters - 1), min_size=n, max_size=n),
                          min_size=1, max_size=4))
    codebook = Codebook(n=n, rate=0.0, seed=0, delta_source=2.0, distinct=False,
                        codewords=tuple(tuple(w) for w in words))
    params = TypicalityParams(n=n, delta=draw(st.sampled_from((0.2, 0.5, 2.0))),
                              delta_cond=draw(st.sampled_from((0.2, 0.5, 2.0))))
    variant = variant or draw(st.sampled_from(("rank_one", "subspace")))
    return build_plan(codebook, ch, params, variant=variant), params, variant


def dense_chain_elements(plan, params, variant):
    """POVM elements from C_1 = P, C_(l+1) = P (1 - P_l) C_l on the full d^n space."""
    ch, model = plan.channel, plan.model
    digits = digit_table(ch.letter_dim, model.n)
    p = np.diag(typical_mask(model).astype(complex))
    chain = p.copy()
    elements = []
    for word, labels in schedule_label_blocks(plan, params.cond_delta, variant):
        q = product_entries([ch.coords[j] for j in word], digits, labels)
        w = chain.conj().T @ q
        elements.append(w @ w.conj().T)
        chain = p @ (chain - q @ (q.conj().T @ chain))
    return elements, np.eye(model.dim_total) - sum(elements, np.zeros_like(p))


@SETTINGS
@given(kron_cases())
def test_product_entries_is_a_block_of_the_kron_product(case):
    mats, rows, cols = case
    dense = mats[0]
    for m in mats[1:]:
        dense = np.kron(dense, m)
    d, n = mats[0].shape[0], len(mats)
    block = product_entries(mats, digit_table(d, n)[rows], digit_table(d, n)[cols])
    assert block.shape == (rows.size, cols.size)
    assert np.array_equal(block, dense[np.ix_(rows, cols)])


@st.composite
def window_cases(draw):
    """A frequency window over 2 or 3 symbols: random targets, sequences of length 0 and up."""
    d = draw(st.sampled_from((2, 3)))
    size = draw(st.integers(0, 7 if d == 2 else 5))
    n_total = size + draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    targets = rng.dirichlet(np.ones(d)) * draw(st.sampled_from((0.3, 0.7, 1.0)))
    return targets, n_total, draw(st.sampled_from((0.0, 0.05, 0.1, 0.2, 0.5, 2.0))), size


@SETTINGS
@given(window_cases())
@example((np.array([0.5, 0.5]), 3, 0.0, 3))  # an empty window
@example((np.array([0.5, 0.5]), 2, 0.1, 0))  # length 0, empty window
@example((np.array([0.5, 0.5]), 2, 2.0, 0))  # length 0: the empty sequence
def test_window_enumerator_matches_the_bruteforce_filter(case):
    targets, n_total, delta, size = case
    lo, hi = _count_bounds(targets, n_total, delta, size)
    ref = [s for s in itertools.product(range(len(targets)), repeat=size)
           if all(a <= s.count(k) <= b for k, (a, b) in enumerate(zip(lo, hi)))]
    seqs = _window_sequences(targets, n_total, delta, size)
    assert seqs.dtype == np.int16 and seqs.shape == (len(ref), size)
    assert [tuple(s) for s in seqs.tolist()] == ref


@st.composite
def model_cases(draw):
    """A random channel, a block length up to d^n = 1024 and an entropy window."""
    ch, _ = draw(channel_cases())
    n = draw(st.integers(1, 10 if ch.letter_dim == 2 else 6))
    delta = draw(st.sampled_from((0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 2.0)))
    return ch, TypicalityParams(n=n, delta=delta)


@SETTINGS
@given(model_cases())
def test_typical_model_matches_the_scan_of_every_label_to_the_bit(case):
    ch, params = case
    model, ref = build_typical_model(ch, params), reference_typical_model(ch, params)
    for name in ("masked_indices", "masked_digits", "rho_bar_diag"):
        got, want = getattr(model, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
    assert model == dataclasses.replace(ref, masked_indices=model.masked_indices,
                                        masked_digits=model.masked_digits,
                                        rho_bar_diag=model.rho_bar_diag)


@SETTINGS
@given(st.sampled_from((2, 3)), st.integers(1, 3), st.integers(0, 2**32 - 1),
       st.sampled_from((0.2, 0.5, 2.0)), st.data())
def test_classical_rho_tilde_matches_the_dense_sum(d, letters, seed, delta, data):
    # the classical path finds each label sequence's rank in H by a search of
    # masked_indices; the dense path reads masked_digits
    rng = np.random.default_rng(seed)
    priors = rng.dirichlet(np.ones(letters)) * 0.9 + 0.1 / letters
    ch = make_channel(priors, [np.diag(rng.dirichlet(np.ones(d))) for _ in range(letters)])
    assert ch.is_classical
    params = TypicalityParams(n=data.draw(st.integers(1, 6 if d == 2 else 4)), delta=delta)
    model = build_typical_model(ch, params)
    diag = build_rho_tilde(ch, params, model)
    dense = build_rho_tilde(dataclasses.replace(ch, is_classical=False), params, model)
    assert diag.is_diagonal and not dense.is_diagonal
    assert np.abs(dense.dense - np.diag(diag.diag)).max(initial=0.0) <= 1e-15


@SETTINGS
@given(channel_cases(), st.sampled_from((0.0, 0.1, 0.2, 0.4, 2.0)), st.integers(1, 256), st.data())
def test_block_labels_match_the_bruteforce_enumeration(case, delta, limit, data):
    ch, n = case
    letter = st.integers(0, ch.alphabet_size - 1)
    words = data.draw(st.lists(st.tuples(*[letter] * n), min_size=1, max_size=12))
    words += data.draw(st.lists(st.sampled_from(words), max_size=4))  # repeated rows
    assert_block_labels_match_bruteforce(ch, words, delta, Budgets(set_limit=limit))


@SETTINGS
@given(channel_cases(), st.sampled_from((0.1, 0.2, 0.4)), st.sampled_from((0.3, 0.6, 1.0)),
       st.integers(0, 2**32 - 1), st.booleans())
def test_codebook_block_draw_matches_one_candidate_at_a_time(case, delta, rate, seed, distinct):
    ch, n = case
    try:
        cb = sample_codebook(ch, n, rate, delta, seed, distinct=distinct)
    except ValidationError:  # empty typical set, or too few distinct members
        assume(False)
    assert cb.codewords == reference_codewords(ch, n, rate, delta, seed, distinct)


@SETTINGS
@given(plan_cases())
def test_povm_on_h_matches_the_full_space_chain(case):
    plan, params, variant = case
    povm = build_povm(plan)
    elements, abort = dense_chain_elements(plan, params, variant)
    blocks, povm_abort = embedded_povm(povm)
    assert len(blocks) == len(elements)
    for w, e in zip(blocks, elements):
        assert np.abs(w @ w.conj().T - e).max() <= 1e-12
    assert np.abs(povm_abort - abort).max() <= 1e-12


@SETTINGS
@given(plan_cases())
def test_wy_povm_matches_the_sequential_no_chain(case):
    assert_povm_matches_the_sequential_chain(build_povm(case[0]))


@SETTINGS
@given(plan_cases())
def test_povm_is_complete_and_positive(case):
    povm = build_povm(case[0])
    assert povm.completeness_defect() <= 1e-9
    assert povm.min_element_eigenvalue() >= -1e-10


def pairwise_mixture(ch, params, model):
    """sum_l pi_l P P_l P on the full d^n space, one np.outer per (sequence, label) pair."""
    digits = digit_table(ch.letter_dim, params.n)
    lhs = np.zeros((model.dim_total, model.dim_total), dtype=complex)
    for row in classical_typical_set(ch.priors, params.n, params.source_delta):
        labels, probs = bruteforce_conditional_labels(ch, row.tolist(), params.cond_delta)
        p_seq = math.exp(float(np.log(ch.priors)[row.astype(int)].sum()))
        vecs = product_entries([ch.coords[int(j)] for j in row], digits,
                               np.array(labels, dtype=int).reshape(-1, params.n))
        for i in range(len(labels)):
            v = np.where(typical_mask(model), vecs[:, i], 0.0)
            lhs += (p_seq * float(probs[i])) * np.outer(v, v.conj())
    return lhs


@SETTINGS
@given(channel_cases(), st.sampled_from((0.2, 0.5, 2.0)), st.sampled_from((0.2, 0.5, 2.0)),
       st.sampled_from((0.2, 0.5, 2.0)))
def test_batched_mixture_identity_matches_the_pairwise_sum(case, delta, delta_source, delta_cond):
    ch, n = case
    params = TypicalityParams(n=n, delta=delta, delta_source=delta_source, delta_cond=delta_cond)
    model = build_typical_model(ch, params)
    lhs = pairwise_mixture(ch, params, model)
    rho_tilde = build_rho_tilde(ch, params, model)
    if model.dim_H == 0:
        reference = float(np.abs(lhs).max())
    else:
        ix = model.masked_indices
        reference = float(np.abs(lhs[np.ix_(ix, ix)] - rho_tilde.as_dense()).max())
    batched = verify_mixture_identity(ch, params, model, rho_tilde)
    assert abs(batched - reference) <= 1e-12
    assert batched <= 1e-10 and reference <= 1e-10


def test_kronecker_mixture_identity_on_qutrit_letter_classes():
    # three mixed qutrit letters; at n = 4, delta_source = 0.2 every typical
    # sequence carries two or three letter classes, and dim_H < d^n
    rng = np.random.default_rng(3)
    ch = make_channel([0.5, 0.3, 0.2], [random_density(rng, 3, r) for r in (2, 3, 3)])
    params = TypicalityParams(n=4, delta=0.3, delta_source=0.2, delta_cond=0.5)
    model = build_typical_model(ch, params)
    assert 0 < model.dim_H < model.dim_total
    sequences = classical_typical_set(ch.priors, 4, 0.2)
    assert min(len(set(row.tolist())) for row in sequences) >= 2
    lhs = pairwise_mixture(ch, params, model)
    ix = model.masked_indices
    rho_tilde = build_rho_tilde(ch, params, model)
    reference = float(np.abs(lhs[np.ix_(ix, ix)] - rho_tilde.as_dense()).max())
    kronecker = verify_mixture_identity(ch, params, model, rho_tilde)
    assert abs(kronecker - reference) <= 1e-12
    assert kronecker <= 1e-10 and reference <= 1e-10


@SETTINGS
@given(plan_cases())
def test_gram_element_minimum_matches_dense_eigvalsh(case):
    povm = build_povm(case[0])
    minima = povm.element_min_eigenvalues()
    for i, w in enumerate(embedded_povm(povm)[0]):
        dense = float(np.linalg.eigvalsh(w @ w.conj().T).min())
        assert abs(minima[i] - dense) <= 1e-12


@pytest.mark.parametrize("n, delta_cond, rank", [(3, 0.0, 0), (2, 0.0, 2), (2, 2.0, 4)])
def test_gram_element_minimum_fixed_block_ranks(n, delta_cond, rank):
    # one flat-qubit letter: at delta_cond = 0 only balanced label sequences
    # are admissible, none at odd n, so the single subspace test has r = 0
    # columns at n = 3 and r = 2 at n = 2; delta_cond = 2 admits all d^n = 4
    ch = make_channel([1.0], [np.eye(2) / 2])
    word = (0,) * n
    codebook = Codebook(n=n, rate=0.0, seed=0, delta_source=2.0, distinct=False,
                        codewords=(word,))
    plan = build_plan(codebook, ch, TypicalityParams(n=n, delta=2.0, delta_cond=delta_cond),
                      variant="subspace")
    povm = build_povm(plan)
    assert povm.widths[0] == rank
    w = embedded_povm(povm)[0][0]
    dense = float(np.linalg.eigvalsh(w @ w.conj().T).min())
    assert povm.element_min_eigenvalues()[0] == pytest.approx(dense, abs=1e-12)
    assert povm.min_element_eigenvalue() >= -1e-10


def assert_checks_match_the_embedded_povm(povm):
    """completeness_defect and min_element_eigenvalue on H against the dense d^n POVM."""
    blocks, abort = embedded_povm(povm)
    elements = [abort] + [w @ w.conj().T for w in blocks]
    defect = float(np.abs(sum(elements) - np.eye(povm.dim)).max())
    min_eig = min(float(np.linalg.eigvalsh(e).min()) for e in elements)
    assert abs(povm.completeness_defect() - defect) <= 1e-12
    assert abs(povm.min_element_eigenvalue() - min_eig) <= 1e-12


@SETTINGS
@given(plan_cases())
def test_checks_on_h_match_the_embedded_povm(case):
    plan = case[0]
    assume(plan.model.dim_H < plan.model.dim_total)
    assert_checks_match_the_embedded_povm(build_povm(plan))


def test_checks_on_an_empty_window_match_the_embedded_povm():
    ch = builtin_channel("pure_pair", overlap=math.cos(math.pi / 4))
    cb = sample_codebook(ch, 4, 0.3, 0.2, seed=7)
    povm = build_povm(build_plan(cb, ch, TypicalityParams(n=4, delta=0.2)))
    assert povm.abort.shape == (0, 0)
    assert_checks_match_the_embedded_povm(povm)


def einsum_masses(povm, ch, codebook):
    """Per-message (success, abort, misdecode) from the unoptimised three-operand einsum."""
    blocks = embedded_povm(povm)[0]
    owner = np.repeat(np.array(povm.plan.messages, dtype=int),
                      [b.shape[1] for b in blocks])
    basis = (np.concatenate(blocks, axis=1).T if blocks
             else np.zeros((0, povm.dim), complex))
    masses = []
    for s, word in enumerate(codebook.codewords):
        rho = product_output_state(ch, word)
        vals = np.einsum("ij,jk,ik->i", basis.conj(), rho, basis).real
        mine, everything = float(vals[owner == s].sum()), float(vals.sum())
        masses.append((mine, 1.0 - everything, everything - mine))
    return np.array(masses).T


@SETTINGS
@given(plan_cases())
def test_oracle_matches_the_three_operand_einsum(case):
    plan = case[0]
    povm = build_povm(plan)
    report = exact_error_probability(povm)
    success, abort, misdecode = einsum_masses(povm, plan.channel, plan.codebook)
    assert np.abs(report.per_message_success - success).max() <= 1e-12
    assert np.abs(report.per_message_abort - abort).max() <= 1e-12
    assert np.abs(report.per_message_misdecode - misdecode).max() <= 1e-12


def test_oracle_on_an_empty_window_is_a_certain_error():
    # pure_pair(cos pi/4) at n = 4, delta = 0.2 has dim_H = 0, so every
    # POVM column is zero and no message can be decoded
    ch = builtin_channel("pure_pair", overlap=math.cos(math.pi / 4))
    cb = sample_codebook(ch, 4, 0.3, 0.2, seed=7)
    plan = build_plan(cb, ch, TypicalityParams(n=4, delta=0.2))
    povm = build_povm(plan)
    assert plan.model.dim_H == 0
    assert not np.any(povm.columns)
    assert exact_error_probability(povm).p_err == 1.0


@pytest.mark.parametrize("name", sorted(fixture_channels()))
def test_typical_capture_is_the_trace_of_the_output_on_h(name):
    ch = fixture_channels()[name]
    model = build_typical_model(ch, TypicalityParams(n=4, delta=0.3))
    assert model.dim_H > 0
    words = list(itertools.product(range(ch.alphabet_size), repeat=4))
    on_h = np.ix_(model.masked_indices, model.masked_indices)
    dense = [np.trace(product_output_state(ch, w)[on_h]).real for w in words]
    assert np.abs(typical_capture(ch, model, words) - dense).max() <= 1e-12


@SETTINGS
@given(channel_cases(), st.sampled_from((0.2, 0.5, 2.0)), st.data())
def test_exact_error_is_at_least_the_typicality_floor(case, delta, data):
    # The opening typicality check aborts message s with probability
    # 1 - Tr(P rho_s).  For pure letters a rank-one test's success amplitude
    # is <w_s|C|w_s> with C a product of contractions, so the success is at
    # most ||w_s||^4 = Tr(P rho_s)^2.
    ch, n = case
    words = data.draw(st.lists(st.lists(st.integers(0, ch.alphabet_size - 1),
                                        min_size=n, max_size=n), min_size=1, max_size=4))
    codebook = Codebook(n=n, rate=0.0, seed=0, delta_source=2.0, distinct=False,
                        codewords=tuple(tuple(w) for w in words))
    params = TypicalityParams(n=n, delta=delta)
    model = build_typical_model(ch, params)
    capture = typical_capture(ch, model, codebook.codewords)
    pure = all(sp.support == 1 for sp in ch.letters)
    for variant in ("rank_one", "subspace"):
        plan = build_plan(codebook, ch, params, variant=variant, model=model)
        p_err = exact_error_probability(build_povm(plan)).p_err
        assert p_err >= 1.0 - capture.mean() - 1e-12, variant
        if pure and variant == "rank_one":
            assert p_err >= 1.0 - (capture**2).mean() - 1e-12


@SETTINGS
@given(plan_cases(min_rank=2))
def test_oracle_matches_the_born_chain_per_message(case):
    # sum over every positive-probability label sequence of codeword s of
    # p(labels) * P(no, ..., no, yes at test l | labels), grouped by the
    # message of test l, is the POVM mass of that message on rho_s
    plan = case[0]
    ch, codebook = plan.channel, plan.codebook
    report = exact_error_probability(build_povm(plan))
    messages = np.array(plan.messages, dtype=int)
    for s, word in enumerate(codebook.codewords):
        per_test = np.zeros(plan.num_tests)
        spectra = [ch.letters[j].probs for j in word]
        for labels in itertools.product(*(range(p.size) for p in spectra)):
            weight = math.prod(float(p[k]) for p, k in zip(spectra, labels))
            for idx in range(plan.num_tests):
                per_test[idx] += weight * transcript_probability(plan, ch, word, labels, idx)
        mine = float(per_test[messages == s].sum())
        assert abs(report.per_message_success[s] - mine) <= 1e-10
        assert abs(report.per_message_misdecode[s] - (per_test.sum() - mine)) <= 1e-10


def reference_trial(plan, true_index, rng):
    """One trial without the memo: one rng.choice per letter, one uniform, the chain walked afresh.

    The outcome is the first cumulative mass of sequential_masses above the
    uniform: entry 0 the opening abort, entry 2l + 1 a decode at test l,
    entry 2l + 2 an abort after it; past the last entry the tests are exhausted.
    """
    ch = plan.channel
    word = plan.codebook.codewords[true_index]
    labels = tuple(int(rng.choice(ch.letters[j].probs.size, p=ch.letters[j].probs))
                   for j in word)
    u = rng.random()
    for i, total in enumerate(sequential_masses(plan, word, labels)):
        if u < total:
            if i % 2:
                return Transcript(DECODED, plan.messages[i // 2], labels, (i + 1) // 2)
            return Transcript(ABORT_ATYPICAL, None, labels, (i + 1) // 2)
    return Transcript(ABORT_EXHAUSTED, None, labels, plan.num_tests)


def reference_transcript_probability(plan, word, labels, test_index):
    """Decode mass of test_index in the chain walked afresh, one test at a time."""
    masses = list(itertools.islice(sequential_masses(plan, word, labels), 2 * test_index + 2))
    if len(masses) < 2 * test_index + 2:
        return 0.0
    return masses[2 * test_index + 1] - masses[2 * test_index]


def assert_trials_match_the_reference(plan, seed, trials=60):
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    n_msg = plan.codebook.num_messages
    for _ in range(trials):
        s_fast, s_slow = int(fast.integers(n_msg)), int(slow.integers(n_msg))
        assert simulate_trial(plan, s_fast, rng=fast) == reference_trial(
            plan, s_slow, slow)
    assert fast.bit_generator.state == slow.bit_generator.state


@SETTINGS
@given(st.integers(1, 2).flatmap(plan_cases), st.integers(0, 2**32 - 1))
def test_memoised_trials_match_the_unmemoised_walk(case, seed):
    assert_trials_match_the_reference(case[0], seed)


@SETTINGS
@given(st.integers(1, 2).flatmap(plan_cases), st.integers(0, 2**32 - 1), st.integers(0, 8))
def test_a_capped_memo_stays_within_its_limit_and_changes_no_transcript(case, seed, slots):
    # from 0 slots, where no chain is stored, up to more than these plans fill
    plan = dataclasses.replace(case[0], memo={}, memo_slots=slots)
    assert_trials_match_the_reference(plan, seed)
    assert len(plan.memo) <= slots
    slot = plan.model.dim_H + 1 + 2 * plan.num_tests
    assert all(plan.model.dim_H + len(c.masses) <= slot for c in plan.memo.values())


@SETTINGS
@given(st.integers(1, 2).flatmap(plan_cases))
def test_transcript_probability_matches_the_unmemoised_chain(case):
    plan = case[0]
    ch = plan.channel
    for word in plan.codebook.codewords:
        spectra = [ch.letters[j].probs for j in word]
        for labels in itertools.product(*(range(p.size) for p in spectra)):
            for idx in range(plan.num_tests):
                assert abs(transcript_probability(plan, ch, word, labels, idx)
                           - reference_transcript_probability(plan, word, labels, idx)) <= 1e-12


@pytest.mark.parametrize("name, params, n, rate, delta, variant", [
    # dim_H = 15 of 64: 32 rank-one tests in three WY runs, or two subspace
    # tests of width 16, so the abort term 1 - W^dagger W has r > 1
    ("depolarized_pair", {"overlap": 0.5, "noise": 0.3}, 6, 0.1, 0.1, "rank_one"),
    ("depolarized_pair", {"overlap": 0.5, "noise": 0.3}, 6, 0.1, 0.1, "subspace"),
    ("pure_pair", {"overlap": math.cos(math.pi / 4)}, 8, 0.3, 0.2, "rank_one"),
])
def test_trial_frequencies_per_message_match_the_exact_oracle(name, params, n, rate, delta,
                                                              variant):
    # 2000 trials per message; each frequency within 4 sigma of the exact
    # mass, sigma^2 = p (1 - p) / trials, plus 4 / trials for the few-count
    # regime of masses near 0 or 1
    trials = 2000
    ch = builtin_channel(name, **params)
    cb = sample_codebook(ch, n, rate, delta, seed=5)
    plan = build_plan(cb, ch, TypicalityParams(n=n, delta=delta), variant=variant)
    report = exact_error_probability(build_povm(plan))
    rng = np.random.default_rng(11)
    for s in range(cb.num_messages):
        counts = np.zeros(3)  # decoded s, decoded another message, aborted
        for _ in range(trials):
            tr = simulate_trial(plan, s, rng=rng)
            counts[0 if tr.decoded == s else 1 if tr.outcome == DECODED else 2] += 1
        exact = (report.per_message_success[s], report.per_message_misdecode[s],
                 report.per_message_abort[s])
        for freq, p in zip(counts / trials, exact):
            bound = 4 * math.sqrt(max(p * (1 - p), 0.0) / trials) + 4 / trials
            assert abs(freq - p) <= bound, (s, counts, exact)


@pytest.mark.parametrize("variant", ["rank_one", "subspace"])
@SETTINGS
@given(st.data())
def test_chain_masses_match_the_walk_one_test_at_a_time(variant, data):
    # every label sequence of every codeword: the WY-run chain's masses never
    # decrease, stay within 1 + 1e-12, and equal the floor-free walk
    plan = data.draw(plan_cases(variant=variant))[0]
    ch = plan.channel
    for word in plan.codebook.codewords:
        for labels in itertools.product(*(range(ch.letters[j].probs.size) for j in word)):
            chain = plan.born_chain(word, labels)
            while chain.run < len(plan.factors):
                plan.advance_chain(chain)
            masses = np.array(chain.masses)
            walk = np.array(list(sequential_masses(plan, word, labels)))
            assert masses.size == walk.size == 1 + 2 * plan.num_tests
            assert np.all(np.diff(masses) >= 0.0) and masses[-1] <= 1.0 + 1e-12
            assert np.abs(masses - walk).max() <= 1e-12


def test_a_zero_masked_state_aborts_at_the_opening_check():
    # the average state diag(0.55, 0.45) is diagonal, so labels 0000 of
    # codeword 0000 give the basis vector |0000>, whose eigenvalue 0.55^4 lies
    # outside the delta = 0.1 window: no component in H, only the opening abort
    ch = make_channel([0.5, 0.5], [np.diag([0.9, 0.1]), np.diag([0.2, 0.8])])
    word = (0, 0, 0, 0)
    cb = Codebook(n=4, rate=0.0, seed=0, delta_source=2.0, distinct=False,
                  codewords=(word, (1, 1, 0, 0)))
    plan = build_plan(cb, ch, TypicalityParams(n=4, delta=0.1, delta_cond=2.0))
    assert not plan.masked_state(word, word).any() and plan.num_tests > 0
    chain = plan.born_chain(word, word)
    assert list(chain.masses) == [1.0]
    rng = np.random.default_rng(3)
    seen = 0
    for _ in range(40):
        tr = simulate_trial(plan, 0, rng)
        if tr.labels == word:
            seen += 1
            assert tr.outcome == ABORT_ATYPICAL and tr.tests_run == 0
    assert seen > 0
    while chain.run < len(plan.factors):  # the rest of the chain adds nothing
        plan.advance_chain(chain)
    assert set(chain.masses) == {1.0}


@SETTINGS
@given(channel_cases(), st.integers(0, 2**32 - 1), st.data())
def test_label_block_matches_one_choice_per_letter(case, seed, data):
    ch, n = case
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(5):
        word = data.draw(st.lists(st.integers(0, ch.alphabet_size - 1), min_size=n, max_size=n))
        labels = sample_output_labels(ch, word, fast.random(n).tolist())
        assert labels == tuple(int(slow.choice(ch.letters[j].probs.size, p=ch.letters[j].probs))
                               for j in word)
        assert fast.bit_generator.state == slow.bit_generator.state
