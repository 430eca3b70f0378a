import numpy as np
import pytest

from cqdec.budgets import Budgets
from cqdec.channel import builtin_channel, make_channel
from cqdec.codebook import codeword_count, sample_codebook
from cqdec.errors import ConfigError, ResourceBudgetError, ValidationError
from cqdec.typicality import classical_typical_set

from conftest import (
    codebook_to_text,
    fixture_channels,
    parse_codebook_text,
    reference_codewords,
)


class TestCodewordCount:
    def test_rate_zero(self):
        assert codeword_count(4, 0.0) == 1

    def test_exact_powers(self):
        assert codeword_count(4, 0.5) == 4
        assert codeword_count(10, 0.3) == 8  # 2^2.9999... snaps to 8

    def test_fractional_rounds_up(self):
        assert codeword_count(6, 0.3) == 4  # 2^1.8 = 3.48...


class TestSampleCodebook:
    def test_rate_zero_single_codeword(self):
        ch = builtin_channel("classical_bit")
        cb = sample_codebook(ch, 4, 0.0, 0.3, seed=1)
        assert cb.num_messages == 1

    def test_single_letter_alphabet(self):
        ch = make_channel([1.0], [np.eye(2) / 2])
        cb = sample_codebook(ch, 5, 0.0, 0.1, seed=3)
        assert cb.codewords == ((0, 0, 0, 0, 0),)

    def test_members_are_typical(self):
        ch = builtin_channel("classical_bit")
        cb = sample_codebook(ch, 4, 0.5, 0.0, seed=7)
        assert cb.num_messages == 4
        allowed = {tuple(s) for s in classical_typical_set([0.5, 0.5], 4, 0.0)}
        for w in cb.codewords:
            assert sum(w) == 2  # exactly two of each letter
            assert w in allowed

    @pytest.mark.parametrize("distinct", [False, True])
    def test_block_draw_matches_one_candidate_at_a_time(self, distinct):
        channels = dict(fixture_channels())
        channels["uneven_trit"] = make_channel(
            [0.5, 0.3, 0.2], [np.diag([0.9, 0.1]), np.diag([0.2, 0.8]), np.eye(2) / 2]
        )
        compared = 0
        for name, ch in channels.items():
            for n in (4, 7, 10):
                for rate, delta, seed in ((0.3, 0.0, 0), (0.6, 0.1, 1), (0.9, 0.2, 2), (0.5, 0.4, 3)):
                    try:
                        cb = sample_codebook(ch, n, rate, delta, seed, distinct=distinct)
                    except ValidationError:  # empty typical set, or too few distinct members
                        continue
                    ref = reference_codewords(ch, n, rate, delta, seed, distinct)
                    assert cb.codewords == ref, (name, n, rate, delta, seed)
                    compared += 1
        assert compared >= 40

    def test_reproducible(self):
        ch = builtin_channel("pure_pair", overlap=0.5)
        a = sample_codebook(ch, 6, 0.5, 0.2, seed=42)
        b = sample_codebook(ch, 6, 0.5, 0.2, seed=42)
        assert a == b
        c = sample_codebook(ch, 6, 0.5, 0.2, seed=43)
        assert a != c

    def test_letter_frequency_statistics(self):
        # over many codebooks the empirical letter frequency approaches the
        # prior; allow 3 standard errors of the binomial estimate
        ch = builtin_channel("classical_bit")
        n, total = 6, 0
        ones = 0
        for seed in range(200):
            cb = sample_codebook(ch, n, 0.5, 0.4, seed=seed)
            for w in cb.codewords:
                ones += sum(w)
                total += n
        p_hat = ones / total
        se = (0.5 * 0.5 / total) ** 0.5
        assert abs(p_hat - 0.5) <= 3 * se

    def test_distinct_mode(self):
        ch = builtin_channel("classical_bit")
        cb = sample_codebook(ch, 6, 0.5, 0.0, seed=5, distinct=True)
        assert len(set(cb.codewords)) == cb.num_messages == 8
        with pytest.raises(ValidationError):
            sample_codebook(ch, 4, 1.0, 0.0, seed=5, distinct=True)  # 16 > 6 available

    def test_empty_typical_set(self):
        ch = make_channel([0.9, 0.1], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        with pytest.raises(ValidationError):
            sample_codebook(ch, 3, 0.0, 0.01, seed=1)

    def test_cap_exceeded(self):
        # 2^8 = 256 codewords: one over a limit of 255
        ch = builtin_channel("classical_bit")
        for limit in (100, 255):
            with pytest.raises(ResourceBudgetError) as exc:
                sample_codebook(ch, 8, 1.0, 0.5, seed=1, budgets=Budgets(set_limit=limit))
            assert exc.value.reason == "set"
        cb = sample_codebook(ch, 8, 1.0, 0.5, seed=1, budgets=Budgets(set_limit=256))
        assert cb.num_messages == 256


class TestSerialization:
    def test_round_trip(self):
        ch = builtin_channel("classical_bit")
        cb = sample_codebook(ch, 4, 0.5, 0.2, seed=9)
        assert parse_codebook_text(codebook_to_text(cb)) == cb

    def test_unknown_key(self):
        ch = builtin_channel("classical_bit")
        text = codebook_to_text(sample_codebook(ch, 4, 0.0, 0.2, seed=9))
        with pytest.raises(ConfigError):
            parse_codebook_text(text + "bogus = 1\n")
