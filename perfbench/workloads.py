"""Workload definitions shared by the harness, the worker and the reference maker.

A workload is a fixed list of CLI steps, each a command run on one config
under ``perfbench/configs``.  The benchmark's ``--seed`` picks one of
``SEED_SLOTS`` CLI seeds; reference outputs exist for every slot.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
CONFIG_DIR = BENCH_DIR / "configs"
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = ROOT / ".perfbench_out"
SRC_DIR = ROOT / "src"

SEED_SLOTS = 12


@dataclass(frozen=True)
class Step:
    command: str
    config: str

    @property
    def name(self) -> str:
        return f"{self.command}-{Path(self.config).stem}"

    @property
    def config_path(self) -> Path:
        return CONFIG_DIR / self.config


@dataclass(frozen=True)
class Workload:
    name: str
    steps: tuple[Step, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_pure", (Step("simulate", "mc_pure.cfg"),)),
        Workload(
            "exact_pure",
            (Step("simulate", "exact_pure.cfg"), Step("simulate", "exact_pure_n10.cfg")),
        ),
        Workload(
            "mixed_verify",
            (Step("compare", "mixed_compare.cfg"), Step("verify", "mixed_verify.cfg")),
        ),
    )
}


def cli_seed(seed: int) -> int:
    """The CLI seed for a benchmark seed: one of the slots with stored references."""
    return seed % SEED_SLOTS


def reference_path(workload: str, seed_slot: int, step: Step) -> Path:
    return REFERENCE_DIR / workload / f"seed{seed_slot}" / f"{step.name}.csv"


def worker_env() -> dict:
    """Environment for child processes: this checkout's ``src`` and the benchmark first."""
    env = dict(os.environ)
    parts = [str(SRC_DIR), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def now_ns() -> int:
    """CLOCK_MONOTONIC, which every process on the host shares."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)
