import numpy as np
import pytest

from cqdec import experiments
from cqdec.budgets import DEFAULT_WORK_LIMIT, Budgets
from cqdec.channel import builtin_channel
from cqdec.config import experiment_config_from_document
from cqdec.experiments import binomial_interval, point_seed, run_grid, run_point


def make_config(**overrides):
    doc = {
        "channel": "pure_pair",
        "overlap": 0.5,
        "n_grid": [3, 4],
        "R_grid": [0.25],
        "delta": 0.3,
        "trials": 100,
        "seed": 13,
    }
    doc.update(overrides)
    return experiment_config_from_document(doc)


class TestPointSeed:
    def test_deterministic_and_distinct(self):
        assert point_seed(1, 0, 0) == point_seed(1, 0, 0)
        seeds = {point_seed(1, i, j) for i in range(4) for j in range(4)}
        assert len(seeds) == 16


class TestBinomialInterval:
    def test_degenerate(self):
        assert binomial_interval(0, 100) == (0.0, 0.0)
        assert binomial_interval(100, 100) == (1.0, 1.0)

    def test_contains_truth(self, rng):
        p = 0.3
        hits = 0
        for _ in range(200):
            k = rng.binomial(500, p)
            lo, hi = binomial_interval(int(k), 500)
            hits += lo <= p <= hi
        assert hits >= 195  # 3-sigma interval rarely misses


class TestRunPoint:
    def test_ok_row(self):
        cfg = make_config()
        ch = builtin_channel("pure_pair", overlap=0.5)
        res = run_point(ch, cfg, 4, 0.25, "rank_one", seed=99)
        assert res.status == "ok"
        assert res.trials == 100
        assert res.err == pytest.approx(res.errors / res.trials)
        assert res.exact_err is not None  # auto policy at this size
        assert res.margin == pytest.approx(res.chi - 0.3 - 0.25)

    def test_pgm_variant(self):
        cfg = make_config()
        ch = builtin_channel("pure_pair", overlap=0.5)
        res = run_point(ch, cfg, 4, 0.25, "pgm", seed=99)
        assert res.status == "ok"
        assert res.err == res.exact_err
        assert res.trials == 0

    def test_pgm_fits_where_dense_outputs_and_elements_did_not(self):
        # pure_pair(cos pi/4) at n = 10, R = 0.9: N = 512 dense 1024 x 1024
        # outputs would need N d^2n = 2^29 numbers, past the default work
        # budget; the rank-one output factors need d^n N = 2^19
        cfg = make_config(overlap=0.70710678118654752, delta=0.2)
        ch = builtin_channel("pure_pair", overlap=0.70710678118654752)
        res = run_point(ch, cfg, 10, 0.9, "pgm", seed=point_seed(7, 2, 1))
        assert res.num_messages * 4**10 > DEFAULT_WORK_LIMIT
        assert (res.status, res.reason) == ("ok", "")
        assert 0.0 < res.err < 1.0

    def test_budget_skip_reason(self):
        cfg = make_config()
        ch = builtin_channel("pure_pair", overlap=0.5)
        # d^n = 16: one over a limit of 15
        for limit in (4, 15):
            res = run_point(ch, cfg, 4, 0.25, "rank_one", seed=99, budgets=Budgets(dim_limit=limit))
            assert res.status == "skipped"
            assert res.reason == "dim"
        res = run_point(ch, cfg, 4, 0.25, "rank_one", seed=99, budgets=Budgets(dim_limit=16))
        assert res.status == "ok"

    def test_dense_outputs_over_work_budget_skip_the_exact_oracle(self, monkeypatch):
        # d^n = 16: the plan and the POVM on H fit 255 numbers, the oracle's
        # 16 x 16 kron outputs do not, and the point is skipped before its
        # trials run and its POVM is built
        cfg = make_config(exact="always")
        ch = builtin_channel("pure_pair", overlap=0.5)
        assert run_point(ch, cfg, 4, 0.25, "rank_one", seed=99).status == "ok"
        fits = run_point(ch, cfg, 4, 0.25, "rank_one", seed=99, budgets=Budgets(work_limit=256))
        assert fits.status == "ok" and fits.exact_err is not None
        calls = []
        monkeypatch.setattr(experiments, "build_povm", lambda *a, **k: calls.append("povm"))
        monkeypatch.setattr(experiments, "simulate_trial", lambda *a, **k: calls.append("trial"))
        res = run_point(ch, cfg, 4, 0.25, "rank_one", seed=99, budgets=Budgets(work_limit=255))
        assert res.status == "skipped"
        assert res.reason == "work"
        assert calls == []

    def test_empty_window_reason(self):
        # pure_pair(cos pi/4) at n = 4, delta = 0.2 has an empty typical window
        cfg = make_config(overlap=0.70710678118654752, delta=0.2)
        ch = builtin_channel("pure_pair", overlap=0.70710678118654752)
        res = run_point(ch, cfg, 4, 0.25, "rank_one", seed=99)
        assert res.dim_h == 0
        assert (res.status, res.reason, res.err) == ("ok", "empty_window", 1.0)
        res = run_point(ch, cfg, 6, 0.25, "subspace", seed=99)
        assert res.dim_h > 0
        assert (res.status, res.reason) == ("ok", "")

    def test_exact_never_policy(self):
        cfg = make_config(exact="never")
        ch = builtin_channel("pure_pair", overlap=0.5)
        res = run_point(ch, cfg, 4, 0.25, "rank_one", seed=99)
        assert res.exact_err is None


class TestRunGrid:
    def test_rows_sorted_and_seed_shared_across_variants(self):
        cfg = make_config()
        ch = builtin_channel("pure_pair", overlap=0.5)
        rows = run_grid(ch, cfg, variants=("rank_one", "pgm"))
        assert [(r.n, r.rate, r.variant) for r in rows] == sorted(
            (r.n, r.rate, r.variant) for r in rows
        )
        by_point = {}
        for r in rows:
            by_point.setdefault((r.n, r.rate), set()).add(r.seed)
        assert all(len(seeds) == 1 for seeds in by_point.values())

    def test_env_override_budget(self, monkeypatch, tmp_path):
        from cqdec.cli import main

        cfg_text = (
            "channel = pure_pair\noverlap = 0.5\nn_grid = [4]\nR_grid = [0.25]\n"
            "delta = 0.3\ntrials = 10\nseed = 3\n"
        )
        path = tmp_path / "e.cfg"
        path.write_text(cfg_text)
        out = tmp_path / "o.csv"
        monkeypatch.setenv("CQDEC_DIM_BUDGET", "4")
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        row = out.read_text().strip().splitlines()[1]
        assert ",skipped,dim," in row
