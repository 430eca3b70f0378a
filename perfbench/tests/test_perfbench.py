"""Tests of the benchmark itself: configs, the reference check, --jobs determinism.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import csv
import io
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from cqdec.cli import main  # noqa: E402
from cqdec.config import load_experiment_config, parse_kv_text  # noqa: E402
from perfbench import check  # noqa: E402
from perfbench.workloads import SEED_SLOTS, WORKLOADS, reference_path  # noqa: E402

STEPS = [(w.name, s) for w in WORKLOADS.values() for s in w.steps]


def _reference(workload: str, step_name: str, slot: int = 0):
    step = next(s for s in WORKLOADS[workload].steps if s.name == step_name)
    return step, reference_path(workload, slot, step).read_text(encoding="utf-8")


def _edit(text: str, row_index: int, column: str, value: str) -> str:
    rows = check.parse_csv(text)
    rows[row_index][column] = value
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("workload,step", STEPS, ids=[f"{w}-{s.name}" for w, s in STEPS])
def test_workload_config_parses_and_states_exact(workload, step):
    cfg = load_experiment_config(str(step.config_path))
    stated = parse_kv_text(step.config_path.read_text(encoding="utf-8")).get("exact")
    assert stated in ("always", "never")
    assert cfg.exact == stated
    for slot in range(SEED_SLOTS):
        assert reference_path(workload, slot, step).is_file()


def test_reference_passes_against_itself():
    for workload, step in STEPS:
        text = reference_path(workload, 0, step).read_text(encoding="utf-8")
        result = check.check_step(step.command, 0, text, text)
        assert result.ops > 0 and result.failures == []


def test_check_flags_wrong_exact_err():
    step, ref = _reference("exact_pure", "simulate-exact_pure")
    wrong = float(check.parse_csv(ref)[1]["exact_err"]) + 1e-6
    result = check.check_step(step.command, 0, _edit(ref, 1, "exact_err", repr(wrong)), ref)
    assert len(result.failures) == 1 and "exact_err" in result.failures[0]


def test_check_flags_flipped_verify_status():
    step, ref = _reference("mixed_verify", "verify-mixed_verify")
    index = next(i for i, r in enumerate(check.parse_csv(ref)) if r["status"] == "pass")
    result = check.check_step(step.command, 0, _edit(ref, index, "status", "fail"), ref)
    assert len(result.failures) == 1 and "status" in result.failures[0]


def test_check_mc_band_tolerates_a_new_rng_stream_only():
    step, ref = _reference("mc_pure", "simulate-mc_pure")
    row = check.parse_csv(ref)[0]
    trials, errors = int(row["trials"]), int(row["errors"])
    near = _edit(_edit(ref, 0, "errors", str(errors - 10)), 0, "err", repr((errors - 10) / trials))
    far = _edit(_edit(ref, 0, "errors", str(errors // 2)), 0, "err", repr((errors // 2) / trials))
    assert check.check_step(step.command, 0, near, ref).failures == []
    assert len(check.check_step(step.command, 0, far, ref).failures) == 1


def test_check_flags_fewer_trials_even_with_a_consistent_err():
    step, ref = _reference("mc_pure", "simulate-mc_pure")
    row = check.parse_csv(ref)[0]
    trials, errors = int(row["trials"]), int(row["errors"])
    cut = _edit(ref, 0, "trials", str(trials // 200))
    cut = _edit(cut, 0, "errors", str(errors // 200))
    cut = _edit(cut, 0, "err", repr((errors // 200) / (trials // 200)))
    result = check.check_step(step.command, 0, cut, ref)
    assert len(result.failures) == 1 and "trials" in result.failures[0]


def test_check_flags_another_codebook_size():
    step, ref = _reference("mc_pure", "simulate-mc_pure")
    row = check.parse_csv(ref)[0]
    result = check.check_step(step.command, 0, _edit(ref, 0, "N_n", str(int(row["N_n"]) - 1)), ref)
    assert len(result.failures) == 1 and "N_n" in result.failures[0]


def test_check_fails_every_op_of_a_failed_step():
    step, ref = _reference("mixed_verify", "compare-mixed_compare")
    result = check.check_step(step.command, 2, None, ref)
    assert len(result.failures) == result.ops == len(check.parse_csv(ref))


def test_mc_pure_slice_same_bytes_for_jobs_1_and_2(tmp_path):
    cfg = tmp_path / "slice.cfg"
    text = (ROOT / "perfbench" / "configs" / "mc_pure.cfg").read_text(encoding="utf-8")
    text = text.replace("n_grid = [6, 8, 10]", "n_grid = [6, 8]").replace("trials = 2000",
                                                                         "trials = 40")
    cfg.write_text(text, encoding="utf-8")
    outs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert outs[0].count(b"\n") == 5
