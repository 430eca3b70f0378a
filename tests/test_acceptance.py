"""Acceptance suite: one test per numbered criterion, one PASS/FAIL line each.

Exact identities and inequality checks run at their stated tolerances; Monte
Carlo checks use fixed seeds so every run is reproducible.

Criterion 9 (capacity trend) follows the empty-window rule.  The decoder
projects onto the typical subspace H of the average output before every test,
and H is the entropy window [n(S - delta), n(S + delta)] on eigenvalue
products, which depends only on (n, delta), never on the rate.  For
pure_pair(cos pi/4) at delta = 0.2, dim_H = 0, 6, 8, 55 at n = 4, 6, 8, 10:
at n = 4 the c = 0 and c = 1 binomial shells (-log2 lambda = 0.91 and 3.46)
fall on either side of the window [1.60, 3.20].  With H empty every trial
aborts at the opening typicality check, so both rates measure an error of
exactly 1.0 and no sequential decoder of this kind can show rate dominance
there.  The criterion therefore pins every empty-window point to error 1.0
with all trials aborted before the first test, checks the strict dominance
"R = 0.9 error exceeds the R = 0.3 error" at every n where dim_H > 0, and
requires the R = 0.3 error to decrease strictly over the whole grid, which
leaves at most the first grid point exempt from dominance.
"""
import math

import numpy as np
import pytest

from cqdec.bounds import (
    check_amplitude_lower_bound,
    check_trace_power_bounds,
    gamma_lower_bound,
)
from cqdec.channel import builtin_channel, holevo_chi
from cqdec.cli import main
from cqdec.codebook import sample_codebook
from cqdec.decoder import (
    ABORT_ATYPICAL,
    DECODED,
    average_amplitude,
    build_plan,
    build_povm,
    exact_error_probability,
    simulate_trial,
)
from cqdec.errors import ResourceBudgetError
from cqdec.experiments import point_seed
from cqdec.linalg import digit_table, product_entries
from cqdec.typicality import (
    TypicalityParams,
    build_rho_tilde,
    build_typical_model,
    subordination_gap,
)

from conftest import (
    embedded_povm,
    fixture_channels,
    measurement_budget,
    mixture_deviation,
    transcript_probability,
)

COS45 = math.cos(math.pi / 4)
FIXTURES = fixture_channels()


def full_coords(ch, word, labels):
    """The product eigenvector |labels>_word at all d^n digit rows."""
    mats = [ch.coords[int(j)] for j in word]
    return product_entries(mats, digit_table(ch.letter_dim, len(word)), np.array([labels]))[:, 0]


def record(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE criterion {number:2d} ({name}): {status}{suffix}")
    return ok


def test_criterion_01_holevo_values():
    ok = True
    ok &= abs(holevo_chi(FIXTURES["classical_bit"]) - 1.0) <= 1e-9
    ok &= abs(holevo_chi(FIXTURES["pure_pair_cos45"]) - 0.600876) <= 1e-5
    identical = builtin_channel("pure_pair", overlap=1.0)
    ok &= abs(holevo_chi(identical)) <= 1e-9
    assert record(1, "holevo values", ok)


def test_criterion_02_mixture_identity():
    worst = 0.0
    for name, ch in FIXTURES.items():
        for n in (2, 3, 4, 5, 6):
            dev = mixture_deviation(ch, TypicalityParams(n=n, delta=0.3))
            worst = max(worst, dev)
            assert dev <= 1e-10, (name, n, dev)
    assert record(2, "mixture identity", True, f"worst dev {worst:.2e}")


def test_criterion_03_amplitude_formula_equivalence():
    worst = 0.0
    for name, ch in FIXTURES.items():
        for n in (4, 6):
            for delta in (0.2, 0.3):
                params = TypicalityParams(n=n, delta=delta)
                model = build_typical_model(ch, params)
                rho_tilde = build_rho_tilde(ch, params, model)
                power, binomial = average_amplitude(rho_tilde, range(21))
                for m in range(21):
                    gap = abs(power[m] - binomial[m])
                    worst = max(worst, gap)
                    assert gap <= 1e-9, (name, n, delta, m, gap)
    assert record(3, "amplitude formula equivalence", True, f"worst gap {worst:.2e}")


def test_criterion_04_povm_soundness():
    cases = [
        # (channel, n, R, delta, variant) -> plans with M up to 64 at n <= 4
        ("pure_pair_05", 4, 1.5, 0.3, "rank_one"),
        ("pure_pair_cos45", 4, 1.0, 0.3, "rank_one"),
        ("depolarized_pair", 4, 0.5, 0.3, "rank_one"),
        ("depolarized_pair", 4, 0.5, 0.3, "subspace"),
        ("classical_bit", 3, 0.5, 0.5, "rank_one"),
    ]
    worst_defect, worst_eig, m_seen = 0.0, 0.0, 0
    for name, n, rate, delta, variant in cases:
        ch = FIXTURES[name]
        cb = sample_codebook(ch, n, rate, delta, seed=31)
        params = TypicalityParams(n=n, delta=delta)
        plan = build_plan(cb, ch, params, variant=variant)
        assert plan.num_tests <= 64
        m_seen = max(m_seen, plan.num_tests)
        povm = build_povm(plan)
        defect = povm.completeness_defect()
        min_eig = povm.min_element_eigenvalue()
        worst_defect = max(worst_defect, defect)
        worst_eig = min(worst_eig, min_eig)
        assert defect <= 1e-9, (name, variant, defect)
        assert min_eig >= -1e-10, (name, variant, min_eig)
    assert m_seen == 64
    assert record(
        4, "POVM soundness", True, f"max M {m_seen}, defect {worst_defect:.2e}, eig {worst_eig:.2e}"
    )


def test_criterion_05_chain_vs_povm():
    ch = FIXTURES["pure_pair_cos45"]
    n, rate, delta = 4, 0.5, 0.3
    cb = sample_codebook(ch, n, rate, delta, seed=33)
    params = TypicalityParams(n=n, delta=delta)
    plan = build_plan(cb, ch, params)
    povm = build_povm(plan)
    elements = [w @ w.conj().T for w in embedded_povm(povm)[0]]

    # exact: Born-chain branch probabilities against <k|E_l|k>, every test and
    # every codeword's (unique) output label sequence
    worst = 0.0
    for word in set(cb.codewords):
        labels = (0,) * n
        psi = full_coords(ch, word, labels)
        for idx in range(plan.num_tests):
            chain_p = transcript_probability(plan, ch, word, labels, idx)
            povm_p = float((psi.conj() @ elements[idx] @ psi).real)
            worst = max(worst, abs(chain_p - povm_p))
            assert abs(chain_p - povm_p) <= 1e-9

    # Monte Carlo: decode histogram for a fixed sent message vs exact masses
    true_index = 0
    rho = np.outer(
        full_coords(ch, cb.codewords[true_index], (0,) * n),
        full_coords(ch, cb.codewords[true_index], (0,) * n).conj(),
    )
    exact_decode = np.zeros(cb.num_messages)
    for idx in range(plan.num_tests):
        exact_decode[plan.messages[idx]] += float(
            np.trace(elements[idx] @ rho).real
        )
    exact_abort = 1.0 - exact_decode.sum()
    trials = 10_000
    rng = np.random.default_rng(20240811)
    counts = np.zeros(cb.num_messages + 1)
    for _ in range(trials):
        tr = simulate_trial(plan, ch, true_index, rng=rng)
        if tr.outcome == DECODED:
            counts[tr.decoded] += 1
        else:
            counts[-1] += 1
    for value, expected in zip(counts, list(exact_decode) + [exact_abort]):
        sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / trials)
        assert abs(value / trials - expected) <= 3 * sigma + 1e-9
    assert record(5, "chain vs POVM agreement", True, f"worst exact gap {worst:.2e}")


def test_criterion_06_typicality_bounds():
    grids = {
        "classical_bit": (4, 8, 12),
        "pure_pair_0": (4, 8, 12),
        "pure_pair_05": (4, 8, 12),
        "pure_pair_cos45": (4, 8, 12),
        "depolarized_pair": (4, 8, 10),  # n = 12 exceeds the pair enumeration budget
    }
    checked = 0
    for name, ns in grids.items():
        ch = FIXTURES[name]
        for n in ns:
            for delta in (0.1, 0.2):
                params = TypicalityParams(n=n, delta=delta)
                model = build_typical_model(ch, params)
                cap = model.eigenvalue_cap * (1 + 1e-9)
                if model.dim_H:
                    assert model.rho_bar_diag.max() <= cap, (name, n, delta)
                assert model.dim_H <= model.dim_cap + 1e-9, (name, n, delta)
                rho_tilde = build_rho_tilde(ch, params, model)
                lam = rho_tilde.eigenvalues()
                if lam.size:
                    assert lam.max() <= cap, (name, n, delta)
                assert subordination_gap(rho_tilde, model) <= 1e-10, (name, n, delta)
                for c in check_trace_power_bounds(rho_tilde, n, delta, model.s_rho, j_max=6):
                    assert c.ok, (name, n, delta, c)
                checked += 1
    assert record(6, "typicality bounds", True, f"{checked} grid points")


def test_criterion_07_amplitude_lower_bound():
    cases = [
        # margin chi - delta - R > 0 fixtures, n <= 8
        ("pure_pair_cos45", 0.2, 0.3, (4, 6, 8)),
        ("pure_pair_05", 0.1, 0.2, (4, 6, 8)),
        ("classical_bit", 0.2, 0.5, (6, 8)),
        ("depolarized_pair", 0.05, 0.05, (6, 8)),
    ]
    checked = 0
    for name, delta, rate, ns in cases:
        ch = FIXTURES[name]
        assert holevo_chi(ch) - delta - rate > 0, (name, "fixture must have positive margin")
        for n in ns:
            m_cap = int(measurement_budget(n, rate, ch, delta).m_theory)
            params = TypicalityParams(n=n, delta=delta)
            model = build_typical_model(ch, params)
            rho_tilde = build_rho_tilde(ch, params, model)
            report = check_amplitude_lower_bound(model, rho_tilde, range(m_cap + 1))
            for c in report.checks:
                assert c.ok, (name, n, c)
            checked += len(report.checks)
    assert record(7, "amplitude lower bound", True, f"{checked} (fixture, m) checks")


def test_criterion_08_zero_error_classical_limit():
    ch = FIXTURES["classical_bit"]
    n, rate = 6, 0.5
    params = TypicalityParams(n=n, delta=0.5, delta_source=2.0, delta_cond=2.0)
    cb = sample_codebook(ch, n, rate, params.source_delta, seed=35, distinct=True)
    plan = build_plan(cb, ch, params)
    report = exact_error_probability(build_povm(plan), ch, cb)
    assert report.p_err <= 1e-12
    rng = np.random.default_rng(20240812)
    errors = 0
    for _ in range(10_000):
        s = int(rng.integers(cb.num_messages))
        tr = simulate_trial(plan, ch, s, rng=rng)
        errors += tr.outcome != DECODED or tr.decoded != s
    assert errors == 0
    assert record(8, "zero-error classical limit", True)


def test_criterion_09_capacity_trend():
    ch = FIXTURES["pure_pair_cos45"]
    delta, master_seed, trials = 0.2, 7, 10_000
    rates = (0.3, 0.9)
    ns = (4, 6, 8, 10)
    err, dim_h, opening_aborts = {}, {}, {}
    for ri, rate in enumerate(rates):
        for ni, n in enumerate(ns):
            seed = point_seed(master_seed, ni, ri)
            cb = sample_codebook(ch, n, rate, delta, seed)
            plan = build_plan(cb, ch, TypicalityParams(n=n, delta=delta))
            rng = np.random.default_rng([seed, 1])
            errors = aborts = 0
            for _ in range(trials):
                s = int(rng.integers(cb.num_messages))
                tr = simulate_trial(plan, ch, s, rng=rng)
                errors += tr.outcome != DECODED or tr.decoded != s
                aborts += tr.outcome == ABORT_ATYPICAL and tr.tests_run == 0
            err[(rate, n)] = errors / trials
            dim_h[(rate, n)] = plan.model.dim_H
            opening_aborts[(rate, n)] = aborts
    # the window depends only on (n, delta), so an exemption covers both rates
    for n in ns:
        assert dim_h[(0.3, n)] == dim_h[(0.9, n)], (n, dim_h)
    dims = {n: dim_h[(0.3, n)] for n in ns}
    exempt = [n for n in ns if dims[n] == 0]
    low = [err[(0.3, n)] for n in ns]
    high = [err[(0.9, n)] for n in ns]
    empty_points = {
        (rate, n): (err[(rate, n)], opening_aborts[(rate, n)]) for n in exempt for rate in rates
    }
    empty_ok = all(e == 1.0 and a == trials for e, a in empty_points.values())
    decreasing = all(a > b for a, b in zip(low, low[1:]))
    dominated = all(err[(0.9, n)] > err[(0.3, n)] for n in ns if dims[n] > 0)
    context = f"dim_H by n {dims}, empty window (dominance exempt) at n={exempt}"
    record(
        9,
        "capacity trend",
        empty_ok and decreasing and dominated,
        f"{context}; R=0.3 errs {low}, R=0.9 errs {high}",
    )
    assert empty_ok, (
        "an empty-window point is not a certain abort (error 1.0, every trial "
        f"ABORT_ATYPICAL with tests_run 0): (error, opening aborts of {trials}) "
        f"{empty_points}; {context}"
    )
    assert decreasing, (
        f"empirical error at R=0.3 not strictly decreasing: {low}; {context}"
    )
    assert dominated, (
        "R=0.9 error does not exceed the R=0.3 error at every n with dim_H > 0: "
        f"R=0.9 {high} vs R=0.3 {low}; {context}"
    )


def test_criterion_10_monte_carlo_vs_exact():
    ch = FIXTURES["pure_pair_cos45"]
    n, rate, delta = 4, 0.25, 0.3
    cb = sample_codebook(ch, n, rate, delta, seed=11)
    plan = build_plan(cb, ch, TypicalityParams(n=n, delta=delta))
    report = exact_error_probability(build_povm(plan), ch, cb)
    trials = 10_000
    rng = np.random.default_rng(20240813)
    errors = 0
    for _ in range(trials):
        s = int(rng.integers(cb.num_messages))
        tr = simulate_trial(plan, ch, s, rng=rng)
        errors += tr.outcome != DECODED or tr.decoded != s
    p_hat = errors / trials
    sigma = math.sqrt(report.p_err * (1 - report.p_err) / trials)
    ok = abs(p_hat - report.p_err) <= 3 * sigma
    assert record(
        10, "Monte Carlo vs exact oracle", ok,
        f"empirical {p_hat:.4f}, exact {report.p_err:.4f}, 3sigma {3 * sigma:.4f}"
    )


def test_criterion_11_reproducibility(tmp_path):
    config = (
        "channel = pure_pair\n"
        "overlap = 0.70710678118654752\n"
        "n_grid = [4, 6]\n"
        "R_grid = [0.3]\n"
        "delta = 0.3\n"
        "trials = 1000\n"
        "seed = 17\n"
    )
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(config)
    out1, out2 = tmp_path / "run1.csv", tmp_path / "run2.csv"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    ok = out1.read_bytes() == out2.read_bytes()
    assert record(11, "reproducibility", ok)
