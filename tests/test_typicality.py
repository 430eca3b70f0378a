import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cqdec import typicality
from cqdec.budgets import Budgets
from cqdec.channel import builtin_channel, make_channel
from cqdec.errors import ResourceBudgetError, ValidationError
from cqdec.linalg import digit_table, product_entries
from cqdec.typicality import (
    TypicalityParams,
    build_rho_tilde,
    build_typical_model,
    classical_typical_set,
    conditional_labels,
    is_typical_sequence,
    subordination_gap,
    typical_set_size,
)

from conftest import assert_block_labels_match_bruteforce, fixture_channels

COS45 = math.cos(math.pi / 4)


@pytest.mark.parametrize("key", ["delta", "delta_source", "delta_cond"])
def test_negative_window_is_rejected(key):
    kwargs = {"delta": 0.2, key: -0.1}
    with pytest.raises(ValidationError):
        TypicalityParams(n=4, **kwargs)


def enumerate_typical_bruteforce(p, n, delta):
    # oracle: filter the full A^n product space by letter frequencies
    out = []
    for seq in itertools.product(range(len(p)), repeat=n):
        counts = [seq.count(j) for j in range(len(p))]
        if all(abs(c / n - pj) <= delta + 1e-12 for c, pj in zip(counts, p)):
            out.append(seq)
    return out


class TestClassicalTypicalSet:
    def test_single_letter(self):
        seqs = classical_typical_set([1.0], 5, 0.1)
        assert seqs.dtype == np.int16 and seqs.shape == (1, 5)
        assert tuple(seqs[0]) == (0,) * 5

    def test_half_half_exact(self):
        seqs = classical_typical_set([0.5, 0.5], 4, 0.0)
        oracle = enumerate_typical_bruteforce([0.5, 0.5], 4, 0.0)
        assert len(seqs) == len(oracle) == 6
        assert [tuple(s) for s in seqs] == sorted(oracle)

    def test_half_half_loose(self):
        seqs = classical_typical_set([0.5, 0.5], 4, 0.3)
        oracle = enumerate_typical_bruteforce([0.5, 0.5], 4, 0.3)
        assert len(seqs) == len(oracle) == 14

    def test_empty_window(self):
        seqs = classical_typical_set([0.5, 0.5], 3, 0.0)
        assert seqs.dtype == np.int16 and seqs.shape == (0, 3)
        assert typical_set_size([0.5, 0.5], 3, 0.0) == 0

    def test_matches_bruteforce_random(self, rng):
        every = np.array(list(itertools.product(range(3), repeat=5)))
        for _ in range(5):
            p = rng.dirichlet(np.ones(3))
            delta = float(rng.uniform(0.05, 0.4))
            seqs = classical_typical_set(p, 5, delta)
            oracle = enumerate_typical_bruteforce(p, 5, delta)
            assert [tuple(s) for s in seqs] == sorted(oracle)
            assert typical_set_size(p, 5, delta) == len(oracle)
            # the membership test reads the same count bounds as the enumeration
            members = set(oracle)
            assert is_typical_sequence(p, every, delta).tolist() == [
                tuple(row) in members for row in every.tolist()]

    def test_membership_predicate(self):
        block = [(0, 1, 0, 1), (0, 0, 0, 1)]
        assert is_typical_sequence([0.5, 0.5], block, 0.0).tolist() == [True, False]

    def test_budget(self):
        # every one of the 1024 sequences is typical: one over a limit of 1023
        for limit in (16, 1023):
            with pytest.raises(ResourceBudgetError) as exc:
                classical_typical_set([0.5, 0.5], 10, 0.5, budgets=Budgets(set_limit=limit))
            assert exc.value.reason == "set"
        assert classical_typical_set([0.5, 0.5], 10, 0.5, Budgets(set_limit=1024)).shape[0] == 1024


def one_word(ch, word, delta_cond):
    """conditional_labels of a one-row block: its labels and probs."""
    labels, probs, counts = conditional_labels(ch, [word], delta_cond)
    assert counts.tolist() == [labels.shape[0]]
    return labels, probs


class TestConditionalTypicalOutputs:
    def test_pure_alphabet_single_label(self):
        ch = builtin_channel("pure_pair", overlap=0.5)
        labels, probs = one_word(ch, (0, 1, 0), 0.3)
        assert labels.shape[0] == 1
        assert tuple(labels[0]) == (0, 0, 0)
        assert probs.sum() == pytest.approx(1.0)

    def test_flat_single_letter(self):
        ch = make_channel([1.0], [np.eye(2) / 2])
        labels, probs = one_word(ch, (0, 0), 0.0)
        got = {tuple(row) for row in labels}
        assert got == {(0, 1), (1, 0)}
        assert np.allclose(probs, [0.25, 0.25])

    def test_huge_delta_accepts_everything(self):
        ch = builtin_channel("depolarized_pair", overlap=0.0, noise=0.5)
        labels, probs = one_word(ch, (0, 1, 1), 2.0)
        assert labels.shape[0] == 8
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_bruteforce(self, rng):
        # oracle: filter all label sequences by per-class counts
        ch = builtin_channel("depolarized_pair", overlap=0.3, noise=0.4)
        j_seq = (0, 1, 0, 1)
        n = len(j_seq)
        delta = 0.2
        labels, _ = one_word(ch, j_seq, delta)
        expected = []
        for seq in itertools.product(range(2), repeat=n):
            ok = True
            for j in set(j_seq):
                for k in range(2):
                    m = sum(
                        1 for i in range(n) if j_seq[i] == j and seq[i] == k
                    )
                    target = ch.priors[j] * ch.letters[j].probs[k]
                    if abs(m / n - target) > delta + 1e-12:
                        ok = False
            if ok:
                expected.append(seq)
        assert sorted(tuple(r) for r in labels) == sorted(expected)

    def test_probability_accounting(self):
        ch = builtin_channel("depolarized_pair", overlap=0.0, noise=0.5)
        totals = []
        for delta in (0.1, 0.2, 0.4, 2.0):
            total = float(one_word(ch, (0, 1, 0, 1), delta)[1].sum())
            totals.append(total)
            assert total <= 1.0 + 1e-12
        assert totals == sorted(totals)
        assert totals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_letter_out_of_range(self):
        ch = builtin_channel("pure_pair", overlap=0.5)
        with pytest.raises(ValidationError):
            conditional_labels(ch, [(0, 2)], 0.2)
        with pytest.raises(ValidationError):
            conditional_labels(ch, [(0, 1), (-1, 0)], 0.2)

    def test_block_matches_bruteforce_on_fixture_channels(self):
        channels = dict(fixture_channels(), trine=builtin_channel("trine"))
        for ch in channels.values():
            words = list(itertools.product(range(ch.alphabet_size), repeat=5))
            for delta in (0.0, 0.2, 0.4):
                assert_block_labels_match_bruteforce(ch, words + words[::3], delta, Budgets())
                # depolarized_pair's label sets at delta 0.4 hold 10, 20 or 28 members
                for word in words:
                    assert_block_labels_match_bruteforce(ch, [word], delta, Budgets(set_limit=24))


class TestTypicalModel:
    def test_flat_spectrum_keeps_everything(self):
        ch = builtin_channel("classical_bit")
        for n in (2, 5):
            model = build_typical_model(ch, TypicalityParams(n=n, delta=0.1))
            assert model.dim_H == 2**n
            assert model.trace_bar == pytest.approx(1.0, abs=1e-12)
            assert model.dim_H == model.dim_total

    def test_deterministic_source(self):
        ch = make_channel([1.0], [np.diag([1.0, 0.0])])
        model = build_typical_model(ch, TypicalityParams(n=4, delta=0.3))
        assert model.dim_H == 1
        assert model.trace_bar == pytest.approx(1.0, abs=1e-12)

    def test_trace_bar_matches_enumeration(self):
        # oracle: direct loop over all 2^8 label sequences
        s = COS45
        ch = builtin_channel("pure_pair", overlap=s)
        n, delta = 8, 0.2
        model = build_typical_model(ch, TypicalityParams(n=n, delta=delta))
        p = ch.avg_probs
        s_rho = ch.avg_entropy
        expected = 0.0
        dim_expected = 0
        for labels in itertools.product(range(2), repeat=n):
            w = 1.0
            for k in labels:
                w *= p[k]
            if 2 ** (-n * (s_rho + delta)) - 1e-15 <= w <= 2 ** (-n * (s_rho - delta)) + 1e-15:
                expected += w
                dim_expected += 1
        assert model.trace_bar == pytest.approx(expected, abs=1e-12)
        assert model.dim_H == dim_expected

    def test_budget(self):
        # d^n = 32: one over a limit of 31
        ch = builtin_channel("classical_bit")
        params = TypicalityParams(n=5, delta=0.1)
        for limit in (16, 31):
            with pytest.raises(ResourceBudgetError) as exc:
                build_typical_model(ch, params, budgets=Budgets(dim_limit=limit))
            assert exc.value.reason == "dim"
        assert build_typical_model(ch, params, budgets=Budgets(dim_limit=32)).dim_total == 32

    def test_dim_budget_stops_below_int64_indices(self):
        # every d^n index is int64, so no dim_limit admits d^n > 2^63: 3^41
        # would wrap masked_indices, and 3^40 > 2^63 too, although this
        # window's indices stay below 2^63.  2^63 is the last d^n that fits,
        # its largest index 2^63 - 1
        ch = make_channel([1.0], [np.diag([0.98, 0.01, 0.01])])
        for n in (40, 41):
            with pytest.raises(ResourceBudgetError) as exc:
                build_typical_model(ch, TypicalityParams(n=n, delta=0.05), Budgets(dim_limit=3**n))
            assert exc.value.reason == "dim"
        ch = make_channel([1.0], [np.diag([0.98, 0.02])])
        with pytest.raises(ResourceBudgetError) as exc:
            build_typical_model(ch, TypicalityParams(n=64, delta=0.05), Budgets(dim_limit=2**64))
        assert exc.value.reason == "dim"
        model = build_typical_model(ch, TypicalityParams(n=63, delta=0.05), Budgets(dim_limit=2**64))
        ix = model.masked_indices
        assert model.dim_H == 63 and ix[0] == 1 and ix[-1] == 2**62
        assert np.all(np.diff(ix) > 0)

    def test_model_holds_no_array_of_every_label(self):
        # d^n = 65536 labels, 17 count vectors, 680 kept: a scan of every
        # label would hold 65536 x 16 digits alone
        ch = builtin_channel("pure_pair", overlap=COS45)
        params = TypicalityParams(n=16, delta=0.2)
        tracemalloc.start()
        try:
            model = build_typical_model(ch, params, Budgets(dim_limit=2**16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert model.dim_H == 680
        assert peak < 2**20

    def test_digit_table_convention(self):
        # letter 1 occupies the most significant digit
        t = digit_table(2, 3)
        assert tuple(t[5]) == (1, 0, 1)
        assert tuple(t[1]) == (0, 0, 1)


class TestRhoTilde:
    def test_classical_everything_typical(self):
        # huge windows: rho_tilde == rho_bar == the full product state diagonal
        ch = builtin_channel("classical_bit")
        params = TypicalityParams(n=3, delta=2.0)
        model = build_typical_model(ch, params)
        rt = build_rho_tilde(ch, params, model)
        assert rt.is_diagonal
        assert np.abs(rt.diag - model.rho_bar_diag).max() < 1e-12
        assert rt.trace() == pytest.approx(1.0, abs=1e-12)

    def test_single_letter_channel(self):
        # both sides equal P rho0^n P on the typical labels
        ch = make_channel([1.0], [np.diag([0.75, 0.25])])
        params = TypicalityParams(n=4, delta=2.0, delta_cond=2.0)
        model = build_typical_model(ch, params)
        rt = build_rho_tilde(ch, params, model)
        assert np.abs(rt.diag - model.rho_bar_diag).max() < 1e-12

    def test_pure_pair_subordination(self):
        ch = builtin_channel("pure_pair", overlap=COS45)
        for n, delta in ((4, 0.25), (6, 0.25), (6, 0.4)):
            params = TypicalityParams(n=n, delta=delta)
            model = build_typical_model(ch, params)
            rt = build_rho_tilde(ch, params, model)
            assert subordination_gap(rt, model) <= 1e-10
            assert rt.trace() <= model.trace_bar + 1e-12
            assert model.trace_bar <= 1.0 + 1e-12

    def test_bounds_inherited_by_rho_tilde(self):
        for name, ch in fixture_channels().items():
            params = TypicalityParams(n=6, delta=0.2)
            model = build_typical_model(ch, params)
            rt = build_rho_tilde(ch, params, model)
            lam = rt.eigenvalues()
            assert model.dim_H <= model.dim_cap + 1e-9
            if model.dim_H:
                assert model.rho_bar_diag.max() <= model.eigenvalue_cap * (1 + 1e-9)
            if lam.size:
                assert lam.max() <= model.eigenvalue_cap * (1 + 1e-9), name

    def test_empty_window_is_graceful(self):
        # the entropy window at these parameters contains no label sequence
        ch = builtin_channel("pure_pair", overlap=COS45)
        params = TypicalityParams(n=4, delta=0.2)
        model = build_typical_model(ch, params)
        assert model.dim_H == 0
        rt = build_rho_tilde(ch, params, model)
        assert rt.dim == 0
        assert subordination_gap(rt, model) == 0.0

    def test_degenerate_basis_independence(self):
        # same channel written in a rotated output basis: the average state is
        # still I/2 (fully degenerate) and the model must not depend on which
        # eigenbasis numpy picked for it
        theta = 0.73
        u = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
            dtype=complex,
        )
        ch_a = builtin_channel("classical_bit")
        ch_b = make_channel([0.5, 0.5], [u @ m @ u.conj().T for m in ch_a.outputs])
        params = TypicalityParams(n=4, delta=0.3)
        model_a = build_typical_model(ch_a, params)
        model_b = build_typical_model(ch_b, params)
        assert model_a.dim_H == model_b.dim_H
        assert abs(model_a.trace_bar - model_b.trace_bar) < 1e-10
        rt_a = build_rho_tilde(ch_a, params, model_a)
        rt_b = build_rho_tilde(ch_b, params, model_b)
        assert np.abs(rt_a.eigenvalues() - rt_b.eigenvalues()).max() < 1e-9

    def test_monotone_capture_on_fixture_grid(self):
        # empirical trend over the fixture suite: with delta = 0.3 fixed,
        # trace_bar is non-decreasing along the even-n grid 4, 8, 12
        for name, ch in fixture_channels().items():
            traces = []
            for n in (4, 8, 12):
                model = build_typical_model(ch, TypicalityParams(n=n, delta=0.3))
                traces.append(model.trace_bar)
            assert traces == sorted(traces), (name, traces)

    @pytest.mark.parametrize("name, kwargs, n", [
        ("depolarized_pair", {"overlap": 0.5, "noise": 0.3}, 6),
        ("trine", {}, 5),
        ("pure_pair", {"overlap": COS45}, 6),
    ])
    def test_chunked_sum_matches_one_chunk(self, monkeypatch, name, kwargs, n):
        # the smallest work budget the dense accumulator admits, dim_H^2, or 7
        # dim_H-sized columns where that is more, runs several chunks:
        # depolarized_pair's dim_H = 41 takes 20 columns a chunk, which splits
        # a sequence's 49 labels, trine's 32 takes 16 and pure_pair's 6 takes 3
        ch = builtin_channel(name, **kwargs)
        params = TypicalityParams(n=n, delta=0.3)
        model = build_typical_model(ch, params)
        one = build_rho_tilde(ch, params, model)
        calls = []
        real = typicality.product_entries
        monkeypatch.setattr(typicality, "product_entries",
                            lambda *args: calls.append(1) or real(*args))
        budgets = Budgets(work_limit=max(model.dim_H**2, 7 * model.dim_H))
        chunked = build_rho_tilde(ch, params, model, budgets=budgets)
        assert model.dim_H > 0 and not one.is_diagonal
        assert len(calls) > 1
        assert np.abs(chunked.as_dense() - one.as_dense()).max() <= 1e-15

    def test_dense_accumulator_counts_against_the_work_budget(self):
        # the dim_H x dim_H accumulator is refused before it is allocated; a
        # classical channel's diagonal rho_tilde is not counted
        ch = builtin_channel("depolarized_pair", overlap=0.5, noise=0.3)
        params = TypicalityParams(n=6, delta=0.3)
        model = build_typical_model(ch, params)
        assert model.dim_H == 41
        with pytest.raises(ResourceBudgetError) as exc:
            build_rho_tilde(ch, params, model, budgets=Budgets(work_limit=41 * 41 - 1))
        assert exc.value.reason == "work"
        assert build_rho_tilde(ch, params, model, Budgets(work_limit=41 * 41)).dim == 41
        ch = builtin_channel("classical_bit")
        model = build_typical_model(ch, params)
        assert build_rho_tilde(ch, params, model, Budgets(work_limit=1)).is_diagonal

    def test_dense_chunks_stay_within_the_work_budget(self):
        # the chunk's live arrays together hold at most work_limit complex
        # numbers (16 bytes each); a quarter more covers the per-pair index
        # tables and acc.  Several chunks, and the sum still matches one chunk
        ch = builtin_channel("depolarized_pair", overlap=0.5, noise=0.3)
        params = TypicalityParams(n=7, delta=0.3)
        model = build_typical_model(ch, params)
        limit = 2**19
        one = build_rho_tilde(ch, params, model)
        tracemalloc.start()
        try:
            chunked = build_rho_tilde(ch, params, model, budgets=Budgets(work_limit=limit))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 16 * limit
        assert np.abs(chunked.as_dense() - one.as_dense()).max() <= 1e-15

    def test_one_chunk_is_the_weighted_gram_matrix_to_the_bit(self):
        ch = builtin_channel("pure_pair", overlap=COS45)
        params = TypicalityParams(n=6, delta=0.3)
        model = build_typical_model(ch, params)
        seqs = classical_typical_set(ch.priors, 6, 0.3)
        labels, probs, counts = conditional_labels(ch, seqs, 0.3)
        p_seq = [math.exp(x) for x in np.log(ch.priors)[seqs].sum(axis=1).tolist()]
        weights = np.repeat(p_seq, counts) * probs
        words = np.repeat(seqs, counts, axis=0)
        block = np.stack([product_entries([ch.coords[j] for j in w], model.masked_digits,
                                          np.array([k]))[:, 0] for w, k in zip(words, labels)],
                         axis=1)
        ref = (block * weights) @ block.conj().T
        ref = 0.5 * (ref + ref.conj().T)
        assert build_rho_tilde(ch, params, model).dense.tobytes() == ref.tobytes()

    def test_pair_budget(self):
        # every sequence typical, one label each: 64 (sequence, label) pairs
        ch = builtin_channel("classical_bit")
        params = TypicalityParams(n=6, delta=2.0)
        model = build_typical_model(ch, params)
        for limit in (8, 63):
            with pytest.raises(ResourceBudgetError) as exc:
                build_rho_tilde(ch, params, model, budgets=Budgets(set_limit=limit))
            assert exc.value.reason == "set"
        assert build_rho_tilde(ch, params, model, budgets=Budgets(set_limit=64)).dim == 64
