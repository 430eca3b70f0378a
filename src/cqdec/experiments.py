"""Grid execution shared by the simulate and compare commands.

Every grid point derives its own seed from the master seed and its grid
coordinates, never from execution order, so results are reproducible
bit-for-bit under any worker count.  Decoder variants at the same (n, R)
point share one codebook: comparisons are on identical codes.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from functools import partial

import numpy as np
import numpy.random  # numpy loads it lazily; here it loads at import, not in the first point_seed

from .bounds import rate_condition
from .budgets import DEFAULT_BUDGETS, Budgets
from .channel import CQChannel, holevo_chi
from .codebook import sample_codebook
from .config import ExperimentConfig
from .decoder import (
    DECODED,
    DecoderPlan,
    build_plan,
    build_povm,
    check_oracle_budget,
    exact_error_probability,
    simulate_trial,
)
from .errors import ResourceBudgetError, ValidationError
from .pgm import pgm_error_probability
from .typicality import TypicalityParams

_EXACT_AUTO_DIM = 1024
_EXACT_AUTO_TESTS = 512


def point_seed(master_seed: int, n_index: int, r_index: int) -> int:
    """Deterministic per-point seed, independent of execution order."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(n_index, r_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0] % (2**63))


def binomial_interval(errors: int, trials: int, z: float = 3.0) -> tuple[float, float]:
    """Normal-approximation z-sigma interval for a binomial fraction of trials > 0."""
    p = errors / trials
    half = z * math.sqrt(max(p * (1.0 - p), 0.0) / trials)
    return (max(0.0, p - half), min(1.0, p + half))


@dataclass(frozen=True)
class PointResult:
    """One (n, R, variant) grid point: one row of the simulate/compare CSV."""

    n: int
    rate: float
    variant: str
    seed: int
    status: str
    reason: str = ""
    num_messages: int | None = None
    num_tests: int | None = None
    dim_h: int | None = None
    trials: int | None = None
    errors: int | None = None
    err: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    abort_frac: float | None = None
    misdecode_frac: float | None = None
    exact_err: float | None = None
    exact_abort_frac: float | None = None
    exact_misdecode_frac: float | None = None
    chi: float | None = None
    margin: float | None = None

    def csv_values(self) -> dict:
        return dict(zip(CSV_COLUMNS, astuple(self)))


# PointResult's fields, in order, are the simulate/compare CSV columns; these
# four are renamed to the paper's symbols.
_CSV_NAMES = {"rate": "R", "num_messages": "N_n", "num_tests": "M", "dim_h": "dim_H"}
CSV_COLUMNS = tuple(_CSV_NAMES.get(f.name, f.name) for f in fields(PointResult))


def typicality_params(cfg: ExperimentConfig, n: int) -> TypicalityParams:
    """The config's typicality windows at block length n."""
    return TypicalityParams(n, cfg.delta, cfg.delta_source, cfg.delta_cond)


def run_trials(plan: DecoderPlan, trials: int, seed: int) -> tuple[int, int, int]:
    """``trials`` Monte Carlo trials of ``plan``: the counts of errors, aborts and misdecodes.

    One generator seeded by (seed, 1) draws every trial's message first,
    then each trial's uniforms.
    """
    rng = np.random.default_rng([seed, 1])
    aborts = wrong = 0
    for s in rng.integers(plan.codebook.num_messages, size=trials).tolist():
        tr = simulate_trial(plan, s, rng)
        if tr.outcome != DECODED:
            aborts += 1
        elif tr.decoded != s:
            wrong += 1
    return aborts + wrong, aborts, wrong


def run_point(
    ch: CQChannel,
    cfg: ExperimentConfig,
    n: int,
    rate: float,
    variant: str,
    seed: int,
    budgets: Budgets = DEFAULT_BUDGETS,
) -> PointResult:
    """One (n, R, variant) grid point: sample, decode, optionally cross-check exactly."""
    chi = holevo_chi(ch)
    margin = rate_condition(ch, rate, cfg.delta)
    base = dict(n=n, rate=rate, variant=variant, seed=seed, chi=chi, margin=margin)
    try:
        params = typicality_params(cfg, n)
        codebook = sample_codebook(
            ch, n, rate, params.source_delta, seed,
            distinct=cfg.distinct_codewords, budgets=budgets,
        )
        if variant == "pgm":
            err = pgm_error_probability(ch, codebook, budgets)
            return PointResult(
                **base,
                status="ok",
                num_messages=codebook.num_messages,
                trials=0,
                errors=0,
                err=err,
                ci_low=err,
                ci_high=err,
                exact_err=err,
            )
        plan = build_plan(codebook, ch, params, variant=variant, budgets=budgets)
        dim = ch.letter_dim**n
        want_exact = cfg.exact == "always" or (
            cfg.exact == "auto" and dim <= _EXACT_AUTO_DIM and plan.num_tests <= _EXACT_AUTO_TESTS
        )
        if want_exact:
            check_oracle_budget(dim, budgets)  # before the trials and the POVM pay for it
        trials = cfg.trials
        errors, aborts, wrong = run_trials(plan, trials, seed)
        err = errors / trials if trials else None
        ci_low, ci_high = binomial_interval(errors, trials) if trials else (None, None)
        exact_err = exact_abort = exact_mis = None
        if want_exact:
            povm = build_povm(plan, budgets=budgets)
            report = exact_error_probability(povm, budgets)
            exact_err = report.p_err
            exact_abort = report.abort_mass
            exact_mis = report.misdecode_mass
        return PointResult(
            **base,
            status="ok",
            reason="" if plan.model.dim_H else "empty_window",
            num_messages=codebook.num_messages,
            num_tests=plan.num_tests,
            dim_h=plan.model.dim_H,
            trials=trials,
            errors=errors,
            err=err,
            ci_low=ci_low,
            ci_high=ci_high,
            abort_frac=aborts / trials if trials else None,
            misdecode_frac=wrong / trials if trials else None,
            exact_err=exact_err,
            exact_abort_frac=exact_abort,
            exact_misdecode_frac=exact_mis,
        )
    except ResourceBudgetError as exc:
        return PointResult(**base, status="skipped", reason=exc.reason)
    except ValidationError as exc:
        return PointResult(**base, status="skipped", reason=f"invalid: {exc}")


def run_grid(
    ch: CQChannel,
    cfg: ExperimentConfig,
    variants: tuple[str, ...] | None = None,
    budgets: Budgets = DEFAULT_BUDGETS,
    jobs: int = 1,
) -> list[PointResult]:
    """Every (n, R, variant) point of the config, deterministically seeded."""
    run = partial(run_point, ch, cfg, budgets=budgets)
    points = [
        (n, rate, variant, point_seed(cfg.seed, ni, ri))
        for ni, n in enumerate(cfg.n_grid)
        for ri, rate in enumerate(cfg.r_grid)
        for variant in variants or cfg.variants
    ]
    if jobs > 1 and len(points) > 1:
        from concurrent.futures import ProcessPoolExecutor  # ~15 ms of import, for --jobs > 1 only

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, *zip(*points)))
    else:
        results = [run(*point) for point in points]
    results.sort(key=lambda r: (r.n, r.rate, r.variant))
    return results
