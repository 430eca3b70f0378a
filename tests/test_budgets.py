import pytest

from cqdec.budgets import DEFAULT_BUDGETS, Budgets
from cqdec.config import experiment_config_from_document, parse_kv_text
from cqdec.errors import ResourceBudgetError

LIMITS = Budgets(dim_limit=10, set_limit=20, work_limit=30)


class TestRequire:
    @pytest.mark.parametrize("reason, limit", [("dim", 10), ("set", 20), ("work", 30)])
    def test_an_amount_equal_to_its_limit_passes_and_one_more_raises(self, reason, limit):
        LIMITS.require("x", **{reason: limit})
        with pytest.raises(ResourceBudgetError) as exc:
            LIMITS.require("x", **{reason: limit + 1})
        assert exc.value.reason == reason

    @pytest.mark.parametrize("amounts, reason", [
        ({"dim": 11, "set": 21, "work": 31}, "dim"),
        ({"dim": 10, "set": 21, "work": 31}, "set"),
        ({"set": 21, "work": 31}, "set"),
        ({"dim": 11, "work": 31}, "dim"),
        ({"dim": 10, "set": 20, "work": 31}, "work"),
    ])
    def test_the_first_amount_over_its_limit_names_the_reason(self, amounts, reason):
        # the check order is dim, then set, then work
        with pytest.raises(ResourceBudgetError) as exc:
            LIMITS.require("x", **amounts)
        assert exc.value.reason == reason

    def test_no_amount_passes(self):
        LIMITS.require("x")

    def test_dim_stops_at_int64_indices_whatever_dim_limit_says(self):
        # d^n indices run to d^n - 1, which fits int64 up to d^n = 2^63
        wide = Budgets(dim_limit=2**100)
        wide.require("x", dim=2**63)
        with pytest.raises(ResourceBudgetError) as exc:
            wide.require("x", dim=2**63 + 1)
        assert exc.value.reason == "dim"

    def test_an_infinite_amount_is_over_any_limit(self):
        with pytest.raises(ResourceBudgetError) as exc:
            Budgets(set_limit=2**2000).require("x", set=float("inf"))
        assert exc.value.reason == "set"

    def test_the_message_names_what_and_the_amounts(self):
        with pytest.raises(ResourceBudgetError) as exc:
            LIMITS.require("41x41 rho_tilde", work=1681)
        assert str(exc.value) == "41x41 rho_tilde: 1681 over work budget 30"


class TestFit:
    @pytest.mark.parametrize("per_item, fits", [
        (1, 30), (7, 4), (30, 1), (31, 1), (10**9, 1), (0, 30),
    ])
    def test_items_within_the_work_limit_and_never_below_one(self, per_item, fits):
        assert LIMITS.fit(per_item) == fits


def config(lines: str = ""):
    doc = parse_kv_text("channel = pure_pair\noverlap = 0.5\nn_grid = [4]\nR_grid = [0.25]\n"
                        + lines)
    return experiment_config_from_document(doc)


class TestResolve:
    def test_defaults_without_keys_or_variables(self, monkeypatch):
        for env in ("CQDEC_DIM_BUDGET", "CQDEC_SET_BUDGET", "CQDEC_WORK_BUDGET"):
            monkeypatch.delenv(env, raising=False)
        assert Budgets.resolve(config()) == DEFAULT_BUDGETS

    def test_config_keys_over_defaults_and_variables_over_both(self, monkeypatch):
        monkeypatch.delenv("CQDEC_DIM_BUDGET", raising=False)
        monkeypatch.delenv("CQDEC_SET_BUDGET", raising=False)
        monkeypatch.setenv("CQDEC_WORK_BUDGET", "1000")
        cfg = config("dim_budget = 64\nwork_budget = 5\n")
        assert Budgets.resolve(cfg) == Budgets(
            dim_limit=64, set_limit=DEFAULT_BUDGETS.set_limit, work_limit=1000
        )
