import math

import numpy as np
import pytest

from cqdec.bounds import (
    check_amplitude_lower_bound,
    check_trace_power_bounds,
    gamma_lower_bound,
    rate_condition,
    trace_power_bound_log2,
)
from cqdec.channel import builtin_channel, holevo_chi
from cqdec.codebook import sample_codebook
from cqdec.decoder import build_plan
from cqdec.errors import ValidationError
from cqdec.typicality import (
    MaskedHermitian,
    TypicalityParams,
    build_rho_tilde,
    build_typical_model,
    classical_typical_set,
)

from conftest import measurement_budget

COS45 = math.cos(math.pi / 4)


class TestTracePowerBounds:
    def test_flat_spectrum_closed_form(self):
        # rho = I/2: Tr rho_bar^j = 2^(n(1-j)), bound 2^(n[(1-j)+delta(1+j)])
        n, delta = 5, 0.1
        diag = np.full(2**n, 2.0**-n)
        checks = check_trace_power_bounds(MaskedHermitian(diag=diag), n, delta, s_rho=1.0)
        for c in checks:
            expected_lhs = 2.0 ** (n * (1 - c.index))
            assert c.lhs == pytest.approx(expected_lhs, rel=1e-12)
            assert c.rhs == pytest.approx(2.0 ** (n * ((1 - c.index) + delta * (1 + c.index))))
            assert c.ok

    def test_j1_trivial(self):
        diag = np.array([0.5, 0.4])
        checks = check_trace_power_bounds(MaskedHermitian(diag=diag), 3, 0.2, s_rho=0.8)
        j1 = checks[0]
        assert j1.index == 1
        assert j1.lhs <= 1.0 <= j1.rhs
        assert j1.ok

    def test_pure_pair_spectrum_holds(self):
        ch = builtin_channel("pure_pair", overlap=COS45)
        params = TypicalityParams(n=8, delta=0.2)
        model = build_typical_model(ch, params)
        rt = build_rho_tilde(ch, params, model)
        checks = check_trace_power_bounds(rt, 8, 0.2, model.s_rho, j_max=6)
        assert all(c.ok for c in checks)

    def test_j_max_validation(self):
        with pytest.raises(ValidationError):
            check_trace_power_bounds(MaskedHermitian(diag=np.array([1.0])), 2, 0.1, 1.0, j_max=1)


class TestGammaLowerBound:
    def test_m_zero(self):
        gb = gamma_lower_bound(8, 0.1, 0.2, 0.6, 0)
        assert gb.gamma == 0.0
        assert gb.lower_bound == pytest.approx(0.8)

    def test_m_one_exact(self):
        n, delta, s = 8, 0.1, 0.600876
        gb = gamma_lower_bound(n, delta, 0.0, s, 1)
        # single binomial term: gamma = 2^(n(-S + 3 delta)) exactly
        assert gb.gamma == pytest.approx(2.0 ** (n * (-s + 3 * delta)), rel=1e-12)
        assert gb.gamma == pytest.approx(gb.approximation, rel=1e-12)

    def test_approximation_quality_when_m_zeta_small(self):
        # comparison is meaningful once m * zeta < 0.1
        s = 0.600876
        for n, delta, m in ((16, 0.1, 16), (8, 0.1, 1), (20, 0.15, 8)):
            gb = gamma_lower_bound(n, delta, 0.0, s, m)
            if m * gb.zeta < 0.1:
                assert gb.gamma == pytest.approx(gb.approximation, rel=0.05)

    def test_exact_dominates_first_order(self, rng):
        # convexity: (1 + zeta)^m - 1 >= m zeta for m >= 1
        for _ in range(50):
            n = int(rng.integers(2, 20))
            delta = float(rng.uniform(0.01, 0.3))
            s = float(rng.uniform(delta + 0.05, 1.0))
            m = int(rng.integers(1, 64))
            gb = gamma_lower_bound(n, delta, 0.0, s, m)
            assert gb.gamma >= gb.approximation - 1e-12

    def test_requires_entropy_above_delta(self):
        with pytest.raises(ValidationError):
            gamma_lower_bound(8, 0.7, 0.1, 0.6, 4)


def amplitude_report(ch, params, m_grid):
    model = build_typical_model(ch, params)
    return check_amplitude_lower_bound(model, build_rho_tilde(ch, params, model), m_grid)


class TestAmplitudeLowerBound:
    def test_m_zero_is_equality(self):
        report = amplitude_report(builtin_channel("pure_pair", overlap=COS45),
                                  TypicalityParams(n=6, delta=0.2), [0])
        c = report.checks[0]
        # at m = 0 the bound reads Tr rho_tilde >= Tr rho_tilde
        assert c.lhs == pytest.approx(1.0 - report.epsilon_tilde, abs=1e-12)
        assert c.rhs == pytest.approx(1.0 - report.epsilon_tilde, abs=1e-12)
        assert c.ok

    def test_classical_closed_form(self):
        # flat spectrum: <A_m> = sum lambda (1 - lambda)^m with lambda = 2^-n
        # over the typical sequences
        ch = builtin_channel("classical_bit")
        n = 6
        # flat spectrum: any delta > 0 keeps the whole basis in the window
        params = TypicalityParams(n=n, delta=0.5, delta_source=0.2, delta_cond=2.0)
        model = build_typical_model(ch, params)
        rt = build_rho_tilde(ch, params, model)
        report = check_amplitude_lower_bound(model, rt, range(9))
        k = int(round(rt.trace() * 2**n))
        for c in report.checks:
            expected = k * 2.0**-n * (1 - 2.0**-n) ** c.index
            assert c.rhs == pytest.approx(expected, rel=1e-9)
            assert c.ok

    def test_pure_pair_grid_holds(self):
        report = amplitude_report(builtin_channel("pure_pair", overlap=COS45),
                                  TypicalityParams(n=6, delta=0.25), range(33))
        assert report.ok
        assert report.epsilon_tilde >= report.epsilon_bar - 1e-12


class TestCodebookAveragedAmplitude:
    """The paper's averaging step, on sampled codebooks.

    The paper reads Tr[(P - rho_tilde)^m rho_tilde] as the codebook average of
    the success amplitude of the message tested last.  For pure letters,
    rank-one tests and independent codewords the average is exact:
    E[a_0] = Tr[(I - rho_c)^(N-1) rho_c], for a_0 = w_0^dagger
    prod_(l>=1) (I - w_l w_l^dagger) w_0 and rho_c = E[w w^dagger] of one
    codeword's test column w = P phi.  sample_codebook draws codewords from
    the typical set T only, while build_rho_tilde weights every sequence by
    p(x), so rho_c = rho_tilde / p(T).
    """

    SEEDS = range(1000)  # the codebook seeds of every row, fixed in advance

    @pytest.mark.parametrize("n, rate, delta", [(6, 0.3, 0.2), (8, 0.3, 0.2), (6, 0.5, 0.3)])
    def test_mean_amplitude_of_the_last_message_matches_the_trace_formula(self, n, rate, delta):
        ch = builtin_channel("pure_pair", overlap=COS45)
        params = TypicalityParams(n=n, delta=delta)
        model = build_typical_model(ch, params)
        rho_tilde = build_rho_tilde(ch, params, model)
        p_typical = float(np.prod(ch.priors[classical_typical_set(ch.priors, n, delta)],
                                  axis=1).sum())
        amplitudes = []
        for seed in self.SEEDS:
            codebook = sample_codebook(ch, n, rate, delta, seed)
            plan = build_plan(codebook, ch, params, ordering="worst_case", worst_index=0,
                              model=model)
            assert plan.num_tests == codebook.num_messages and plan.messages[-1] == 0
            w = plan.columns
            v = w[:, -1].copy()
            for l in range(plan.num_tests - 1):
                v -= w[:, l] * np.vdot(w[:, l], v)
            amplitudes.append(np.vdot(w[:, -1], v))
        a = np.array(amplitudes)
        n_msg = codebook.num_messages
        lam = rho_tilde.eigenvalues() / p_typical
        predicted = float(np.sum(lam * (1.0 - lam) ** (n_msg - 1)))
        z = (a.real.mean() - predicted) / (a.real.std(ddof=1) / math.sqrt(a.size))
        lower = gamma_lower_bound(n, delta, 1.0 - rho_tilde.trace(), model.s_rho,
                                  n_msg - 1).lower_bound
        summary = (f"E[a_0] = {a.real.mean():.4f}, predicted {predicted:.4f}, z = {z:.2f}, "
                   f"E|a_0|^2 = {np.mean(np.abs(a) ** 2):.4f}, "
                   f"1 - eps_tilde - gamma(N - 1) = {lower:.4f}")
        assert abs(z) <= 4.0, summary
        assert np.mean(np.abs(a) ** 2) >= abs(a.mean()) ** 2, summary


class TestMeasurementBudget:
    def test_pure_alphabet(self):
        ch = builtin_channel("pure_pair", overlap=0.5)
        mb = measurement_budget(6, 0.5, ch, 0.1)
        assert mb.m_theory == pytest.approx(2.0 ** (6 * 0.5), rel=1e-12)

    def test_rate_zero_pure(self):
        ch = builtin_channel("pure_pair", overlap=0.5)
        assert measurement_budget(4, 0.0, ch, 0.1).m_theory == pytest.approx(1.0)

    def test_pure_pair_plugin_values(self):
        ch = builtin_channel("pure_pair", overlap=COS45)
        mb = measurement_budget(10, 0.3, ch, 0.1)
        assert mb.m_theory == pytest.approx(8.0, rel=1e-9)
        assert mb.m_cap_log2 == pytest.approx(10 * (ch.avg_entropy - 0.1), rel=1e-12)
        assert mb.within

    def test_margin_implies_within(self, rng):
        # arithmetic identity: margin > 2 delta forces m_theory <= m_cap
        for _ in range(30):
            overlap = float(rng.uniform(0.0, 0.9))
            ch = builtin_channel("pure_pair", overlap=overlap)
            delta = float(rng.uniform(0.01, 0.2))
            rate = float(rng.uniform(0.0, 1.0))
            n = int(rng.integers(2, 16))
            if rate_condition(ch, rate, delta) > 2 * delta:
                assert measurement_budget(n, rate, ch, delta).within


class TestRateCondition:
    def test_rate_zero(self):
        ch = builtin_channel("pure_pair", overlap=0.5)
        assert rate_condition(ch, 0.0, 0.1) == pytest.approx(holevo_chi(ch) - 0.1)

    def test_boundary(self):
        ch = builtin_channel("pure_pair", overlap=0.5)
        chi = holevo_chi(ch)
        assert rate_condition(ch, chi - 0.1, 0.1) == pytest.approx(0.0, abs=1e-12)

    def test_frozen_margin(self):
        ch = builtin_channel("pure_pair", overlap=COS45)
        assert rate_condition(ch, 0.3, 0.05) == pytest.approx(0.250876, abs=1e-5)
