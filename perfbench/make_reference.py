"""Write the reference outputs that every benchmark run is checked against.

    python3 perfbench/make_reference.py [workload ...]

Runs each workload's CLI steps once per seed slot and stores the outputs
under perfbench/reference/<workload>/seed<k>/.  The stored references were
made at the commit that added the benchmark; regenerate them only when a
change is meant to alter the outputs, and say so in that change.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import REFERENCE_DIR, ROOT, SEED_SLOTS, WORKLOADS, worker_env  # noqa: E402


def main(names: list[str]) -> int:
    for name in names or sorted(WORKLOADS):
        for seed in range(SEED_SLOTS):
            out = REFERENCE_DIR / name / f"seed{seed}"
            out.mkdir(parents=True, exist_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", "perfbench.worker", "run", name, str(seed), str(out)],
                cwd=ROOT, env=worker_env(), capture_output=True, text=True, check=True,
            )
            steps = json.loads(proc.stdout.strip().splitlines()[-1])["steps"]
            bad = [s for s in steps if s["rc"] != 0]
            if bad or len(steps) != len(WORKLOADS[name].steps):
                print(f"{name} seed {seed}: failed steps {bad}\n{proc.stderr}", file=sys.stderr)
                return 1
            print(f"{name} seed {seed}: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
