import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from cqdec.budgets import Budgets
from cqdec.channel import builtin_channel, make_channel, parse_channel_document
from cqdec.codebook import Codebook, sample_codebook
from cqdec.config import parse_kv_text
from cqdec.decoder import (
    ABORT_ATYPICAL,
    ABORT_EXHAUSTED,
    DECODED,
    average_amplitude,
    average_amplitude_powers,
    build_plan,
    build_povm,
    exact_error_probability,
    simulate_trial,
    verify_mixture_identity,
)
from cqdec.errors import ResourceBudgetError, ValidationError
from cqdec.linalg import digit_table, product_entries
from cqdec.typicality import (
    MaskedHermitian,
    TypicalityParams,
    build_rho_tilde,
    build_typical_model,
)

from conftest import (
    amplitude_chain,
    assert_povm_matches_the_sequential_chain,
    bruteforce_label_block,
    embedded_povm,
    fixture_channels,
    kronecker_mixture_deviation,
    mixture_deviation,
    schedule_label_blocks,
    transcript_probability,
    typical_mask,
)

COS45 = math.cos(math.pi / 4)


def wide_params(n, **kw):
    # windows wide enough to accept every sequence and label
    return TypicalityParams(n=n, delta=2.0, delta_source=2.0, delta_cond=2.0, **kw)


def full_coords(ch, word, labels):
    """The product eigenvector |labels>_word at all d^n digit rows."""
    return full_product_block(ch, word, np.array([labels]))[:, 0]


def full_product_block(ch, word, labels):
    """Product eigenvectors |labels[i]>_word as columns, at all d^n digit rows."""
    mats = [ch.coords[int(j)] for j in word]
    return product_entries(mats, digit_table(ch.letter_dim, len(word)), labels)


def dense_chain_operator(plan, params, m):
    """Oracle: P (1-P_m) P ... P (1-P_1) P of a lexicographic rank-one plan, as a matrix product."""
    ch = plan.channel
    dim = plan.model.dim_total
    p_mat = np.diag(typical_mask(plan.model).astype(complex))
    op = p_mat.copy()
    eye = np.eye(dim, dtype=complex)
    for word, labels in schedule_label_blocks(plan, params.cond_delta, "rank_one")[:m]:
        phi = full_coords(ch, word, labels[0])
        op = p_mat @ (eye - np.outer(phi, phi.conj())) @ op
    return op


class TestBuildPlan:
    def test_pure_alphabet_one_test_per_codeword(self):
        ch = builtin_channel("pure_pair", overlap=0.5)
        cb = sample_codebook(ch, 4, 0.5, 0.3, seed=2)
        plan = build_plan(cb, ch, TypicalityParams(n=4, delta=0.3))
        assert plan.num_tests == cb.num_messages

    def test_counting_and_lexicographic_order(self):
        # single-letter channel with a flat qubit output: the admissible label
        # sequences at delta_cond = 0 are the two balanced ones
        ch = make_channel([1.0], [np.eye(2) / 2])
        cb = Codebook(n=2, rate=0.0, seed=0, delta_source=0.0, distinct=False, codewords=((0, 0),))
        plan = build_plan(cb, ch, TypicalityParams(n=2, delta=2.0, delta_cond=0.0))
        tests = schedule_label_blocks(plan, 0.0, "rank_one")
        assert [labels.tolist() for _, labels in tests] == [[[0, 1]], [[1, 0]]]
        assert plan.num_tests == 2
        ref = product_entries([ch.coords[0]] * 2, plan.model.masked_digits,
                              np.array([(0, 1), (1, 0)]))
        assert plan.columns.tobytes(order="F") == ref.tobytes(order="F")

    def test_test_count_matches_conditional_sets(self):
        ch = builtin_channel("depolarized_pair", overlap=0.0, noise=0.5)
        cb = sample_codebook(ch, 4, 0.5, 0.3, seed=3)
        params = TypicalityParams(n=4, delta=0.3)
        plan = build_plan(cb, ch, params)
        expected = sum(
            len(bruteforce_label_block(ch, w, params.cond_delta)) for w in cb.codewords
        )
        assert plan.num_tests == expected

    @pytest.mark.parametrize("variant", ["rank_one", "subspace"])
    def test_columns_equal_per_codeword_blocks_to_the_bit(self, variant):
        params = TypicalityParams(n=5, delta=0.3)
        for name, ch in fixture_channels().items():
            cb = sample_codebook(ch, 5, 0.6, 0.3, seed=8)
            plan = build_plan(cb, ch, params, variant=variant)
            blocks = []
            for word in cb.codewords:
                labels = bruteforce_label_block(ch, word, params.cond_delta)
                blocks.append(product_entries([ch.coords[j] for j in word],
                                              plan.model.masked_digits, labels))
            ref = np.concatenate(blocks, axis=1)
            assert plan.columns.shape == ref.shape, name
            assert plan.columns.tobytes(order="F") == ref.tobytes(order="F"), name

    def test_work_budget_counts_every_message_block(self):
        # 43 messages over 30 distinct codewords, dim_H = 6: the columns are
        # 43 one-column blocks, 258 numbers
        ch = builtin_channel("pure_pair", overlap=COS45)
        cb = sample_codebook(ch, 6, 0.9, 0.2, seed=7)
        assert (cb.num_messages, len(set(cb.codewords))) == (43, 30)
        params = TypicalityParams(n=6, delta=0.2)
        for limit in (180, 257):
            with pytest.raises(ResourceBudgetError) as exc:
                build_plan(cb, ch, params, budgets=Budgets(work_limit=limit))
            assert exc.value.reason == "work"
        plan = build_plan(cb, ch, params, budgets=Budgets(work_limit=258))
        assert plan.model.dim_H == 6
        assert plan.columns.size == 258

    @pytest.mark.parametrize("variant", ["rank_one", "subspace"])
    def test_run_factors_tile_the_schedule(self, variant):
        # each run factor names its tests start..stop - 1; the runs follow one
        # another over the whole schedule, and a factor's columns are the
        # plan's columns of its tests
        ch = builtin_channel("depolarized_pair", overlap=0.5, noise=0.3)
        cb = sample_codebook(ch, 6, 0.8, 0.3, seed=5)
        plan = build_plan(cb, ch, TypicalityParams(n=6, delta=0.3), variant=variant)
        assert len(plan.factors) > 1
        assert plan.factors[0].start == 0 and plan.factors[-1].stop == plan.num_tests
        for f, g in zip(plan.factors, plan.factors[1:]):
            assert f.start < f.stop == g.start
        for f in plan.factors:
            cols = plan.columns[:, plan.offsets[f.start]:plan.offsets[f.stop]]
            assert f.columns.tobytes() == cols.tobytes()
            assert f.matrix.shape == cols.T.shape

    def test_memo_slots_hold_whole_chains_within_the_work_budget(self, rng):
        # a slot is a whole chain's worst case: dim_H numbers of state plus
        # the opening abort and two masses per test
        ch = builtin_channel("pure_pair", overlap=COS45)
        cb = sample_codebook(ch, 6, 0.9, 0.2, seed=7)
        params = TypicalityParams(n=6, delta=0.2)
        budgets = Budgets(work_limit=1000)
        plan = build_plan(cb, ch, params, budgets=budgets)
        slot = plan.model.dim_H + 1 + 2 * plan.num_tests
        assert plan.memo_slots == budgets.work_limit // slot == 10
        for _ in range(400):
            simulate_trial(plan, int(rng.integers(cb.num_messages)), rng)
        assert len(plan.memo) == plan.memo_slots
        assert all(plan.model.dim_H + len(c.masses) <= slot for c in plan.memo.values())
        assert build_plan(cb, ch, params).memo_slots == Budgets().work_limit // slot

    def test_bad_arguments(self):
        ch = builtin_channel("pure_pair", overlap=0.5)
        cb = sample_codebook(ch, 4, 0.5, 0.3, seed=2)
        params = TypicalityParams(n=4, delta=0.3)
        with pytest.raises(ValidationError):
            build_plan(cb, ch, params, variant="bogus")
        with pytest.raises(ValidationError):
            build_plan(cb, ch, TypicalityParams(n=5, delta=0.3))  # n mismatch


class TestSimulateTrial:
    def test_classical_distinct_always_decodes(self, rng):
        ch = builtin_channel("classical_bit")
        cb = sample_codebook(ch, 5, 0.4, 2.0, seed=5, distinct=True)
        plan = build_plan(cb, ch, wide_params(5))
        for s in range(cb.num_messages):
            for _ in range(20):
                tr = simulate_trial(plan, s, rng=rng)
                assert tr.outcome == DECODED and tr.decoded == s

    def test_zero_test_plan_always_exhausts(self, rng):
        # odd n with delta_cond = 0 leaves no admissible balanced label sequence
        ch = make_channel([1.0], [np.eye(2) / 2])
        cb = Codebook(n=3, rate=0.0, seed=0, delta_source=2.0, distinct=False, codewords=((0, 0, 0),))
        plan = build_plan(cb, ch, TypicalityParams(n=3, delta=2.0, delta_cond=0.0))
        assert plan.num_tests == 0
        tr = simulate_trial(plan, 0, rng=rng)
        assert tr.outcome == ABORT_EXHAUSTED

    def test_empty_window_always_aborts(self, rng):
        ch = builtin_channel("pure_pair", overlap=COS45)
        cb = sample_codebook(ch, 4, 0.25, 0.2, seed=6)
        plan = build_plan(cb, ch, TypicalityParams(n=4, delta=0.2))
        assert plan.model.dim_H == 0
        tr = simulate_trial(plan, 0, rng=rng)
        assert tr.outcome == ABORT_ATYPICAL

    def test_at_most_one_yes_and_chain_stops(self, rng):
        ch = builtin_channel("pure_pair", overlap=COS45)
        cb = sample_codebook(ch, 4, 0.5, 0.3, seed=7)
        plan = build_plan(cb, ch, TypicalityParams(n=4, delta=0.3))
        for _ in range(200):
            tr = simulate_trial(plan, int(rng.integers(cb.num_messages)), rng=rng)
            assert 0 <= tr.tests_run <= plan.num_tests
            if tr.outcome == DECODED:
                # the chain stops at its one yes: the last test run decodes
                assert tr.tests_run >= 1
                assert tr.decoded == plan.messages[tr.tests_run - 1]
            else:
                assert tr.decoded is None
            if tr.outcome == ABORT_EXHAUSTED:
                assert tr.tests_run == plan.num_tests

    def test_monte_carlo_matches_exact_oracle(self, rng):
        ch = builtin_channel("pure_pair", overlap=COS45)
        cb = sample_codebook(ch, 4, 0.25, 0.3, seed=11)
        params = TypicalityParams(n=4, delta=0.3)
        plan = build_plan(cb, ch, params)
        report = exact_error_probability(build_povm(plan))
        trials = 4000
        errors = 0
        for _ in range(trials):
            s = int(rng.integers(cb.num_messages))
            tr = simulate_trial(plan, s, rng=rng)
            errors += tr.outcome != DECODED or tr.decoded != s
        p_hat = errors / trials
        sigma = math.sqrt(report.p_err * (1 - report.p_err) / trials)
        assert abs(p_hat - report.p_err) <= 3 * sigma


class TestAmplitudeChain:
    def test_m_zero_is_typical_weight(self):
        ch = builtin_channel("pure_pair", overlap=COS45)
        cb = sample_codebook(ch, 6, 0.3, 0.25, seed=8)
        params = TypicalityParams(n=6, delta=0.25)
        plan = build_plan(cb, ch, params)
        word = cb.codewords[0]
        labels = (0,) * 6
        amp = amplitude_chain(plan, ch, word, labels, 0)
        # oracle: <k|P|k> = sum of masked squared components
        psi = full_coords(ch, word, labels)
        expected = float((np.abs(psi[typical_mask(plan.model)]) ** 2).sum())
        assert abs(amp - expected) < 1e-12

    def test_projector_onto_state_annihilates(self):
        ch = builtin_channel("classical_bit")
        cb = sample_codebook(ch, 4, 0.5, 2.0, seed=9, distinct=True)
        plan = build_plan(cb, ch, wide_params(4))
        word = cb.codewords[2]
        labels = (0,) * 4
        # the plan contains the test for (word, labels) itself; after passing
        # it with "no" the amplitude must vanish
        tests = schedule_label_blocks(plan, wide_params(4).cond_delta, "rank_one")
        own = next(i for i, (w, _) in enumerate(tests) if w == word)
        amp = amplitude_chain(plan, ch, word, labels, own + 1)
        assert abs(amp) < 1e-12

    def test_matches_dense_oracle(self, rng):
        ch = builtin_channel("pure_pair", overlap=0.5)
        cb = sample_codebook(ch, 3, 0.5, 0.4, seed=10)
        params = TypicalityParams(n=3, delta=0.4)
        plan = build_plan(cb, ch, params)
        word = cb.codewords[0]
        labels = (0, 0, 0)
        psi = full_coords(ch, word, labels)
        for m in range(plan.num_tests + 1):
            op = dense_chain_operator(plan, params, m)
            expected = complex(psi.conj() @ op @ psi)
            got = amplitude_chain(plan, ch, word, labels, m)
            assert abs(got - expected) < 1e-10

    def test_worst_case_monotone(self):
        ch = builtin_channel("pure_pair", overlap=COS45)
        cb = sample_codebook(ch, 4, 0.5, 0.3, seed=12)
        plan = build_plan(cb, ch, TypicalityParams(n=4, delta=0.3))
        assert plan.messages[-1] == cb.num_messages - 1  # tested last
        word = cb.codewords[-1]
        labels = (0,) * 4
        mags = [abs(amplitude_chain(plan, ch, word, labels, m)) for m in range(plan.num_tests + 1)]
        for a, b in zip(mags, mags[1:]):
            assert b <= a + 1e-12


class TestChannelMismatch:
    """The chain reads its states from plan.channel, so any other ch is refused."""

    @pytest.fixture
    def case(self):
        ch = builtin_channel("pure_pair", overlap=COS45)
        cb = sample_codebook(ch, 4, 0.5, 0.3, seed=7)
        plan = build_plan(cb, ch, TypicalityParams(n=4, delta=0.3))
        return plan, builtin_channel("pure_pair", overlap=0.5), cb.codewords[0], (0,) * 4

    def test_transcript_probability(self, case):
        plan, other, word, labels = case
        with pytest.raises(ValidationError):
            transcript_probability(plan, other, word, labels, 0)

    def test_amplitude_chain(self, case):
        plan, other, word, labels = case
        with pytest.raises(ValidationError):
            amplitude_chain(plan, other, word, labels, 0)


class TestAverageAmplitude:
    def test_m_zero_both_forms_are_trace(self):
        ch = builtin_channel("pure_pair", overlap=COS45)
        params = TypicalityParams(n=4, delta=0.3)
        model = build_typical_model(ch, params)
        rt = build_rho_tilde(ch, params, model)
        (power,), (binomial,) = average_amplitude(rt, [0])
        assert power == pytest.approx(rt.trace(), abs=1e-12)
        assert binomial == pytest.approx(rt.trace(), abs=1e-12)

    def test_flat_spectrum_closed_form(self):
        # classical bit with everything typical: rho_tilde has 2^n eigenvalues 2^-n
        ch = builtin_channel("classical_bit")
        n = 4
        params = wide_params(n)
        model = build_typical_model(ch, params)
        rt = build_rho_tilde(ch, params, model)
        (power,), (binomial,) = average_amplitude(rt, [1])
        assert power == pytest.approx(1.0 - 2.0**-n, abs=1e-12)
        assert binomial == pytest.approx(1.0 - 2.0**-n, abs=1e-9)

    def test_two_forms_agree(self):
        for name, overlap in (("pp", COS45), ("pp05", 0.5)):
            ch = builtin_channel("pure_pair", overlap=overlap)
            params = TypicalityParams(n=5, delta=0.3)
            model = build_typical_model(ch, params)
            rt = build_rho_tilde(ch, params, model)
            power, binomial = average_amplitude(rt, range(21))
            for m in range(21):
                assert abs(power[m] - binomial[m]) < 1e-9, (name, m)

    def test_binomial_cap(self):
        ch = builtin_channel("classical_bit")
        params = wide_params(3)
        model = build_typical_model(ch, params)
        rt = build_rho_tilde(ch, params, model)
        assert np.isnan(average_amplitude(rt, [70])[1][0])
        assert not np.isnan(average_amplitude(rt, [70], binomial_cap=128)[1][0])

    def test_grid_matches_single_calls(self):
        ch = builtin_channel("pure_pair", overlap=0.5)
        params = TypicalityParams(n=4, delta=0.4)
        model = build_typical_model(ch, params)
        rt = build_rho_tilde(ch, params, model)
        grid = average_amplitude_powers(rt, 12)
        for m in (0, 3, 7, 12):
            assert grid[m] == pytest.approx(average_amplitude(rt, [m])[0][0], abs=1e-12)


def mixture_channels():
    """fixture_channels plus the channels the joint-type check is compared on at larger n."""
    example = Path(__file__).resolve().parent.parent / "configs" / "channel_example.cfg"
    return dict(
        fixture_channels(),
        depolarized_pair_05_03=builtin_channel("depolarized_pair", overlap=0.5, noise=0.3),
        trine=builtin_channel("trine"),
        channel_example=parse_channel_document(parse_kv_text(example.read_text())),
    )


MIXTURE_CASES = [(name, n) for name in fixture_channels() for n in (4, 5, 6)] + [
    ("depolarized_pair_05_03", 8), ("trine", 6), ("channel_example", 4), ("channel_example", 6),
]


def mixture_case(ch, n):
    params = TypicalityParams(n=n, delta=0.3)
    model = build_typical_model(ch, params)
    return params, model, build_rho_tilde(ch, params, model)


def real_density(rng, d, rank):
    a = rng.normal(size=(d, rank))
    m = a @ a.T
    return m / np.trace(m)


class TestMixtureIdentity:
    @pytest.mark.parametrize("name, n", MIXTURE_CASES)
    def test_joint_types_match_the_kronecker_sum(self, name, n):
        ch = mixture_channels()[name]
        params, model, rho_tilde = mixture_case(ch, n)
        if name == "depolarized_pair_05_03":
            assert (model.dim_H, model.dim_total) == (162, 256)
        dev = verify_mixture_identity(ch, params, model, rho_tilde)
        assert abs(dev - kronecker_mixture_deviation(ch, params, model, rho_tilde)) <= 1e-12
        assert dev <= 1e-10

    @pytest.mark.parametrize("d, n", [(5, 4), (6, 3)])
    def test_joint_type_codes_past_int64(self, d, n):
        # a pair-count code in base n + 1 with d^2 digits, times dim_H^2 ids,
        # passes 2^63: the ids are compacted between chunks of digits
        rng = np.random.default_rng(d)
        ch = make_channel([0.6, 0.4], [real_density(rng, d, r) for r in (2, d)])
        params = TypicalityParams(n=n, delta=0.2, delta_source=0.5, delta_cond=0.5)
        model = build_typical_model(ch, params)
        assert 1 < model.dim_H < model.dim_total
        assert model.dim_H ** 2 * (n + 1) ** (d * d) > 2**63
        rho_tilde = build_rho_tilde(ch, params, model)
        assert verify_mixture_identity(ch, params, model, rho_tilde) <= 1e-10
        for rho in (rho_tilde, MaskedHermitian(diag=np.zeros(model.dim_H))):
            dev = verify_mixture_identity(ch, params, model, rho)
            assert abs(dev - kronecker_mixture_deviation(ch, params, model, rho)) <= 1e-12

    def test_one_moved_off_diagonal_pair_is_seen(self):
        ch = builtin_channel("depolarized_pair", overlap=0.5, noise=0.3)
        params, model, rho_tilde = mixture_case(ch, 6)
        dense = rho_tilde.dense.copy()
        i, k = 1, model.dim_H - 2
        dense[i, k] += 1e-8
        dense[k, i] += 1e-8
        dev = verify_mixture_identity(ch, params, model, MaskedHermitian(dense=dense))
        assert dev >= 1e-8 * (1 - 1e-6)

    def test_two_swapped_typical_indices_fail(self):
        ch = builtin_channel("depolarized_pair", overlap=0.5, noise=0.3)
        params, model, rho_tilde = mixture_case(ch, 6)
        assert not rho_tilde.is_diagonal
        perm = np.arange(model.dim_H)
        perm[[0, -1]] = perm[[-1, 0]]
        swapped = rho_tilde.dense[np.ix_(perm, perm)]
        assert verify_mixture_identity(ch, params, model, rho_tilde) <= 1e-10
        assert verify_mixture_identity(ch, params, model, MaskedHermitian(dense=swapped)) > 1e-10

    @pytest.mark.parametrize("delta_source, fits", [(0.3, 21 * 21), (2.0, 64 * 64)])
    def test_work_budget_counts_the_block_and_the_widest_class_operator(self, delta_source, fits):
        # dim_H = 21; with every sequence typical the widest class operator is
        # the 64 x 64 A_(j,6), else it is 16 x 16 and the block decides
        ch = builtin_channel("pure_pair", overlap=0.5)
        params = TypicalityParams(n=6, delta=0.3, delta_source=delta_source)
        model = build_typical_model(ch, params)
        rho_tilde = build_rho_tilde(ch, params, model)
        assert model.dim_H == 21
        with pytest.raises(ResourceBudgetError) as exc:
            verify_mixture_identity(ch, params, model, rho_tilde, Budgets(work_limit=fits - 1))
        assert exc.value.reason == "work"
        dev = verify_mixture_identity(ch, params, model, rho_tilde, Budgets(work_limit=fits))
        assert dev <= 1e-10

    def test_classical_everything_typical(self):
        ch = builtin_channel("classical_bit")
        assert mixture_deviation(ch, wide_params(3)) < 1e-12

    def test_single_letter(self):
        ch = make_channel([1.0], [np.diag([0.75, 0.25])])
        assert mixture_deviation(ch, wide_params(4)) < 1e-12

    def test_pure_pair(self):
        ch = builtin_channel("pure_pair", overlap=COS45)
        assert mixture_deviation(ch, TypicalityParams(n=3, delta=0.4)) <= 1e-10

    def test_all_fixtures_small(self):
        for name, ch in fixture_channels().items():
            dev = mixture_deviation(ch, TypicalityParams(n=4, delta=0.3))
            assert dev <= 1e-10, name


class TestPOVM:
    def test_single_test_element(self):
        ch = builtin_channel("pure_pair", overlap=0.5)
        cb = sample_codebook(ch, 3, 0.0, 0.4, seed=13)
        params = TypicalityParams(n=3, delta=0.4)
        plan = build_plan(cb, ch, params)
        assert plan.num_tests == 1
        povm = build_povm(plan)
        # oracle: E_1 = P P_1 P built directly
        p_mat = np.diag(typical_mask(plan.model).astype(complex))
        (word, labels), = schedule_label_blocks(plan, params.cond_delta, "rank_one")
        phi = full_coords(ch, word, labels[0])
        e1 = p_mat @ np.outer(phi, phi.conj()) @ p_mat
        blocks, abort = embedded_povm(povm)
        assert np.abs(blocks[0] @ blocks[0].conj().T - e1).max() < 1e-12
        assert np.abs(abort - (np.eye(8) - e1)).max() < 1e-12

    def test_completeness_and_positivity(self):
        ch = builtin_channel("depolarized_pair", overlap=0.3, noise=0.4)
        cb = sample_codebook(ch, 4, 0.5, 0.3, seed=14)
        plan = build_plan(cb, ch, TypicalityParams(n=4, delta=0.4))
        povm = build_povm(plan)
        assert povm.completeness_defect() < 1e-9
        assert povm.min_element_eigenvalue() >= -1e-10

    @pytest.mark.parametrize("variant", ["rank_one", "subspace"])
    def test_completeness_sees_a_chain_whose_no_steps_are_dropped(self, variant):
        # zero columns in the plan's run factors, with their amplitude maps
        # kept, make every "no" step c <- c - W a a no-op while the amplitudes
        # a = T^dagger W^dagger c still read the tests; the abort block is
        # built from the chain, so completeness must fail
        ch = builtin_channel("depolarized_pair", overlap=0.3, noise=0.4)
        cb = sample_codebook(ch, 4, 0.5, 0.3, seed=14)
        plan = build_plan(cb, ch, TypicalityParams(n=4, delta=0.4), variant=variant)
        assert build_povm(plan).completeness_defect() <= 1e-12
        dropped = dataclasses.replace(plan, factors=tuple(
            dataclasses.replace(f, columns=np.zeros_like(f.columns)) for f in plan.factors))
        assert build_povm(dropped).completeness_defect() > 0.1

    @pytest.mark.parametrize("name, params, n, rate, delta, delta_cond, variant", [
        # M = 512 rank-one tests against dim_H = 55: ten WY runs of several tests
        ("pure_pair", {"overlap": COS45}, 10, 0.9, 0.2, None, "rank_one"),
        # dim_H = 15: 256 rank-one tests in 18 runs, and four subspace tests
        # of 64 columns each, each wider than dim_H and a run of its own
        ("depolarized_pair", {"overlap": 0.5, "noise": 0.3}, 6, 0.3, 0.1, 2.0, "rank_one"),
        ("depolarized_pair", {"overlap": 0.5, "noise": 0.3}, 6, 0.3, 0.1, 2.0, "subspace"),
    ])
    def test_wy_runs_match_the_sequential_no_chain(self, name, params, n, rate, delta,
                                                    delta_cond, variant):
        ch = builtin_channel(name, **params)
        cb = sample_codebook(ch, n, rate, delta, seed=5)
        plan = build_plan(cb, ch, TypicalityParams(n=n, delta=delta, delta_cond=delta_cond),
                          variant=variant)
        widths = np.diff(plan.offsets)
        assert sum(widths) > 2 * plan.model.dim_H > 0
        if variant == "subspace":
            assert min(widths) > plan.model.dim_H
        assert_povm_matches_the_sequential_chain(build_povm(plan))

    @pytest.mark.parametrize("variant", ["rank_one", "subspace"])
    def test_povm_and_trials_do_not_depend_on_which_runs_first(self, variant):
        # build_povm and the Monte Carlo chains share the plan's run factors:
        # the POVM is the same bits whether trials ran first, and the trials
        # draw the same transcripts after build_povm ran; here dim_H = 41 and
        # 28 codewords make 29 rank-one or 28 subspace runs
        ch = builtin_channel("depolarized_pair", overlap=0.5, noise=0.3)
        cb = sample_codebook(ch, 6, 0.8, 0.3, seed=5)
        params = TypicalityParams(n=6, delta=0.3)

        def trials(plan):
            rng = np.random.default_rng(21)
            messages = rng.integers(cb.num_messages, size=200).tolist()
            return [simulate_trial(plan, s, rng) for s in messages]

        fresh = build_plan(cb, ch, params, variant=variant)
        povm_first = build_povm(fresh)
        after_povm = trials(fresh)
        warm = build_plan(cb, ch, params, variant=variant)
        before_povm = trials(warm)
        assert len(warm.factors) > 1
        povm_last = build_povm(warm)
        assert povm_first.columns.tobytes() == povm_last.columns.tobytes()
        assert povm_first.abort.tobytes() == povm_last.abort.tobytes()
        assert after_povm == before_povm

    def test_orthogonal_classical_codewords_are_recovered(self):
        ch = builtin_channel("classical_bit")
        cb = sample_codebook(ch, 4, 0.5, 2.0, seed=15, distinct=True)
        plan = build_plan(cb, ch, wide_params(4))
        povm = build_povm(plan)
        report = exact_error_probability(povm)
        assert np.allclose(report.per_message_success, 1.0, atol=1e-12)

    def test_chain_probability_equals_povm_diagonal(self):
        # the Born-rule chain probability of "no ... no, yes at l" must equal
        # <k|E_l|k> for every test l and product state
        ch = builtin_channel("pure_pair", overlap=COS45)
        cb = sample_codebook(ch, 4, 0.5, 0.3, seed=16)
        plan = build_plan(cb, ch, TypicalityParams(n=4, delta=0.3))
        povm = build_povm(plan)
        elements = [w @ w.conj().T for w in embedded_povm(povm)[0]]
        for s in range(cb.num_messages):
            word = cb.codewords[s]
            labels = (0,) * 4
            psi = full_coords(ch, word, labels)
            for idx in range(plan.num_tests):
                born = transcript_probability(plan, ch, word, labels, idx)
                exact = float((psi.conj() @ elements[idx] @ psi).real)
                assert abs(born - exact) < 1e-9


class TestExactError:
    def test_classical_is_zero(self):
        ch = builtin_channel("classical_bit")
        cb = sample_codebook(ch, 5, 0.4, 2.0, seed=17, distinct=True)
        plan = build_plan(cb, ch, wide_params(5))
        report = exact_error_probability(build_povm(plan))
        assert report.p_err < 1e-12

    def test_single_message_only_aborts(self):
        ch = builtin_channel("pure_pair", overlap=COS45)
        cb = sample_codebook(ch, 4, 0.0, 0.3, seed=18)
        plan = build_plan(cb, ch, TypicalityParams(n=4, delta=0.3))
        report = exact_error_probability(build_povm(plan))
        assert report.misdecode_mass == pytest.approx(0.0, abs=1e-12)
        assert report.p_err == pytest.approx(report.abort_mass, abs=1e-12)

    def test_error_decomposition(self):
        ch = builtin_channel("pure_pair", overlap=0.5)
        cb = sample_codebook(ch, 4, 0.5, 0.3, seed=19)
        plan = build_plan(cb, ch, TypicalityParams(n=4, delta=0.3))
        report = exact_error_probability(build_povm(plan))
        assert report.p_err == pytest.approx(report.abort_mass + report.misdecode_mass, abs=1e-12)
        assert 0.0 <= report.p_err <= 1.0

    def test_regression_value(self):
        # frozen from this oracle's first verified run (see parameters)
        ch = builtin_channel("pure_pair", overlap=COS45)
        cb = sample_codebook(ch, 4, 0.25, 0.3, seed=11)
        plan = build_plan(cb, ch, TypicalityParams(n=4, delta=0.3))
        report = exact_error_probability(build_povm(plan))
        assert report.p_err == pytest.approx(REGRESSION_P_ERR_N4, abs=1e-12)

    def test_duplicate_codewords_count_as_errors(self):
        ch = builtin_channel("classical_bit")
        word = (0, 1, 0, 1)
        cb = Codebook(n=4, rate=0.25, seed=0, delta_source=2.0, distinct=False,
                      codewords=(word, word))
        plan = build_plan(cb, ch, wide_params(4))
        report = exact_error_probability(build_povm(plan))
        # message 0's test fires first for both messages: message 1 never wins
        assert report.per_message_success[0] == pytest.approx(1.0, abs=1e-12)
        assert report.per_message_success[1] == pytest.approx(0.0, abs=1e-12)
        assert report.misdecode_mass == pytest.approx(0.5, abs=1e-12)


# exact oracle value for pure_pair(cos pi/4), n=4, R=0.25, delta=0.3, seed=11;
# frozen after the first verified run (cross-checked against Monte Carlo above)
REGRESSION_P_ERR_N4 = 0.8673024892637612


class TestSubspaceVariant:
    def test_pure_alphabet_identical_to_rank_one(self):
        ch = builtin_channel("pure_pair", overlap=0.5)
        cb = sample_codebook(ch, 4, 0.5, 0.3, seed=22)
        params = TypicalityParams(n=4, delta=0.3)
        rank_plan = build_plan(cb, ch, params, variant="rank_one")
        sub_plan = build_plan(cb, ch, params, variant="subspace")
        assert sub_plan.num_tests == cb.num_messages == rank_plan.num_tests
        r1 = exact_error_probability(build_povm(rank_plan))
        r2 = exact_error_probability(build_povm(sub_plan))
        assert r1.p_err == pytest.approx(r2.p_err, abs=1e-10)

    def test_rank_equals_conditional_set_size(self):
        ch = builtin_channel("depolarized_pair", overlap=0.3, noise=0.4)
        cb = sample_codebook(ch, 4, 0.25, 0.3, seed=23)
        for word in cb.codewords:
            labels = bruteforce_label_block(ch, word, 0.3)
            count = len(labels)
            q = full_product_block(ch, word, labels)
            assert q.shape[1] == count
            # oracle: orthonormalization rank of the raw columns
            assert np.linalg.matrix_rank(q, tol=1e-10) == count
            gram = q.conj().T @ q
            assert np.abs(gram - np.eye(count)).max() < 1e-10

    def test_classical_projectors_are_diagonal_masks(self):
        ch = builtin_channel("classical_bit")
        cb = sample_codebook(ch, 3, 0.4, 2.0, seed=24)
        for word in cb.codewords:
            q = full_product_block(ch, word, bruteforce_label_block(ch, word, 2.0))
            proj = q @ q.conj().T
            off = proj - np.diag(np.diag(proj))
            assert np.abs(off).max() < 1e-12
            assert np.allclose(np.unique(np.round(np.diag(proj).real, 9)), [0.0, 1.0])

    def test_subspace_povm_completeness(self):
        ch = builtin_channel("depolarized_pair", overlap=0.0, noise=0.5)
        cb = sample_codebook(ch, 4, 0.25, 0.3, seed=25)
        plan = build_plan(cb, ch, TypicalityParams(n=4, delta=0.4), variant="subspace")
        povm = build_povm(plan)
        assert povm.completeness_defect() < 1e-9
        assert povm.min_element_eigenvalue() >= -1e-10

    def test_subspace_simulation_matches_exact(self, rng):
        ch = builtin_channel("depolarized_pair", overlap=0.0, noise=0.5)
        cb = sample_codebook(ch, 4, 0.25, 0.3, seed=26)
        plan = build_plan(cb, ch, TypicalityParams(n=4, delta=0.4), variant="subspace")
        report = exact_error_probability(build_povm(plan))
        trials = 3000
        errors = 0
        for _ in range(trials):
            s = int(rng.integers(cb.num_messages))
            tr = simulate_trial(plan, s, rng=rng)
            errors += tr.outcome != DECODED or tr.decoded != s
        sigma = math.sqrt(max(report.p_err * (1 - report.p_err), 1e-9) / trials)
        assert abs(errors / trials - report.p_err) <= 3.5 * sigma
