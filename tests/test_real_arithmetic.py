"""Real channels in real arithmetic: dtypes, no aliasing, and equality with the complex path.

make_channel stores the letter coordinates as float64 when every imaginary
part is exactly 0, and every array built from them takes their dtype.  The
complex path is forced on the same channel by replacing its coordinates with
complex copies, so the two paths differ only in their arithmetic: real
products against complex ones, equal up to rounding.
"""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from cqdec.channel import builtin_channel, parse_channel_document
from cqdec.cli import resolve_channel
from cqdec.codebook import sample_codebook
from cqdec.config import load_experiment_config, parse_kv_text
from cqdec.decoder import (
    build_plan,
    build_povm,
    exact_error_probability,
    simulate_trial,
    verify_mixture_identity,
)
from cqdec.pgm import pgm_error_probability
from cqdec.typicality import TypicalityParams, build_rho_tilde, build_typical_model

from conftest import fixture_channels

REPO = Path(__file__).resolve().parent.parent
TOL = 1e-12


def channels():
    cases = dict(fixture_channels())
    cases["trine"] = builtin_channel("trine")
    cases["depolarized_pair_05_03"] = builtin_channel("depolarized_pair", overlap=0.5, noise=0.3)
    return cases


def as_complex_channel(ch):
    return dataclasses.replace(ch, coords=tuple(c.astype(complex) for c in ch.coords))


def deviation(a, b) -> float:
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    return float(np.abs(a - b).max(initial=0.0))


class TestCoordinateDtype:
    @pytest.mark.parametrize("name, ch", channels().items())
    def test_builtins_are_real(self, name, ch):
        assert all(u.dtype == np.float64 and u.flags.c_contiguous for u in ch.coords), name

    def test_real_channel_file_is_real(self):
        doc = parse_kv_text(
            "letter_dim = 2\npriors = [0.25, 0.75]\n"
            "outputs = [[[0.9, 0.1], [0.1, 0.1]], [[0.5, [-0.2, 0.0]], [[-0.2, 0.0], 0.5]]]\n"
        )
        ch = parse_channel_document(doc)
        assert all(u.dtype == np.float64 for u in ch.coords)

    def test_complex_channel_file_is_complex(self, monkeypatch):
        monkeypatch.chdir(REPO)
        ch = resolve_channel(load_experiment_config("configs/complex_example.cfg"))
        assert all(u.dtype == np.complex128 for u in ch.coords)
        assert any(np.any(u.imag) for u in ch.coords)


@pytest.mark.parametrize("variant", ["rank_one", "subspace"])
def test_run_factors_do_not_alias_the_columns(variant):
    # for a real array conj() is the array itself, so a factor copied through
    # it would be the columns, and its forward substitution would overwrite them
    ch = builtin_channel("pure_pair", overlap=math.cos(math.pi / 4))
    params = TypicalityParams(n=6, delta=0.2)
    plan = build_plan(sample_codebook(ch, 6, 0.9, 0.2, seed=7), ch, params, variant=variant)
    assert plan.columns.dtype == np.float64 and len(plan.factors) > 0
    for factor in plan.factors:
        assert factor.matrix.dtype == np.float64
        assert not np.shares_memory(factor.matrix, plan.columns)


@pytest.mark.parametrize("variant", ["rank_one", "subspace"])
@pytest.mark.parametrize("name", list(channels()))
def test_real_path_equals_the_complex_path(name, variant):
    """Every oracle output within 1e-12 of the complex path; Monte Carlo transcripts identical."""
    real = channels()[name]
    cplx = as_complex_channel(real)
    params = TypicalityParams(n=5, delta=0.3)
    cb = sample_codebook(real, 5, 0.6, 0.3, seed=8)
    dev = {}
    out = {}
    for key, ch in (("real", real), ("complex", cplx)):
        model = build_typical_model(ch, params)
        plan = build_plan(cb, ch, params, variant=variant, model=model)
        povm = build_povm(plan)
        rho = build_rho_tilde(ch, params, model)
        rng = np.random.default_rng(11)
        out[key] = dict(
            plan=plan,
            povm=povm,
            report=exact_error_probability(povm),
            pgm=pgm_error_probability(ch, cb),
            rho=rho,
            mixture=verify_mixture_identity(ch, params, model, rho),
            transcripts=[simulate_trial(plan, s % cb.num_messages, rng=rng)
                         for s in range(300)],
        )
    r, c = out["real"], out["complex"]
    assert r["plan"].columns.dtype == np.float64 and c["plan"].columns.dtype == np.complex128
    assert r["povm"].abort.dtype == np.float64 and c["povm"].abort.dtype == np.complex128
    dev["columns"] = deviation(r["plan"].columns, c["plan"].columns)
    for fr, fc in zip(r["plan"].factors, c["plan"].factors, strict=True):
        dev["factors"] = max(dev.get("factors", 0.0), deviation(fr.matrix, fc.matrix))
        assert np.array_equal(fr.row_test, fc.row_test)
        assert fr.gap.dtype == np.float64 and fc.gap.dtype == np.complex128
        dev["gap"] = max(dev.get("gap", 0.0), deviation(fr.gap, fc.gap))
    dev["povm_columns"] = deviation(r["povm"].columns, c["povm"].columns)
    dev["povm_abort"] = deviation(r["povm"].abort, c["povm"].abort)
    for field in ("per_message_success", "per_message_abort", "per_message_misdecode"):
        dev[field] = deviation(getattr(r["report"], field), getattr(c["report"], field))
    for field in ("p_err", "abort_mass", "misdecode_mass"):
        dev[field] = abs(getattr(r["report"], field) - getattr(c["report"], field))
    dev["pgm"] = abs(r["pgm"] - c["pgm"])
    assert r["rho"].is_diagonal == c["rho"].is_diagonal
    dev["rho_tilde"] = deviation(r["rho"].as_dense(), c["rho"].as_dense())
    dev["mixture"] = abs(r["mixture"] - c["mixture"])
    assert max(dev.values()) <= TOL, f"max deviation {max(dev.values()):.3e}: {dev}"
    assert r["transcripts"] == c["transcripts"]
