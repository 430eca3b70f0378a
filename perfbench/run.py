"""Benchmark of the cqdec command line, end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` times the workload's CLI steps, each iteration in a fresh
``--jobs 1`` process, for about ``--seconds`` seconds and reports the
``end_to_end`` metrics of BENCHMARK.json as medians.  ``--trace 1`` runs the
steps once untraced, then once with every layer function wrapped in a span,
and reports the ``per_layer`` metrics.  Both check every output against the references in
``perfbench/reference``.  The last line of standard output is the JSON result;
details go to ``.perfbench_out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import check  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    OUT_DIR,
    ROOT,
    SRC_DIR,
    WORKLOADS,
    cli_seed,
    now_ns,
    reference_path,
    worker_env,
)

SETUP_PROBES = 16
WORKER_TIMEOUT_S = 80  # two of these must fit in the 180 s a run may take
# Layer self time over the traced total.  Below it, the program no longer
# calls some layer through the names the trace wraps.
MIN_COVERAGE = 0.8


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def _spawn(args: list[str]) -> tuple[dict, int]:
    """Run one worker process to completion; returns its JSON result and launch time."""
    launch = now_ns()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", *args],
            cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), launch


def _iteration(workload: str, seed: int, it_dir: Path, trace: bool = False) -> dict:
    """One fresh-process pass over the workload's steps, with its outputs checked."""
    it_dir.mkdir()
    res, launch = _spawn(["run", workload, str(seed), str(it_dir)] + (["--trace"] if trace else []))
    first = res["first_point_ns"]
    if first is None:
        raise BenchError("the workload reached no grid point")
    by_step = {s["step"]: s for s in res["steps"]}
    ops, trials, failures, commands, points = 0, 0, [], {}, []
    d_n = {p["n"]: p["d_n"] for p in res["points"]}
    for step in WORKLOADS[workload].steps:
        ran = by_step.get(step.name)
        out = it_dir / f"{step.name}.csv"
        text = out.read_text(encoding="utf-8") if out.is_file() else None
        result = check.check_step(step.command, ran["rc"] if ran else None, text,
                                  reference_path(workload, seed, step).read_text(encoding="utf-8"))
        ops += result.ops
        failures += [f"{step.name} {f}" for f in result.failures]
        if ran:
            key = f"{step.command}_s"
            commands[key] = commands.get(key, 0.0) + (ran["end_ns"] - ran["start_ns"]) / 1e9
        if text is not None:
            points += [dict(p, step=step.name, d_n=d_n.get(p["n"]))
                       for p in check.point_sizes(step.command, text)]
            if step.command != "verify":
                trials += sum(int(r["trials"] or 0) for r in check.parse_csv(text)
                              if r["variant"] != "pgm")
    mc_seconds = sum(v for k, v in commands.items() if k in ("simulate_s", "compare_s"))
    return {
        "setup_s": (first - launch) / 1e9,
        "sweep_s": (max(s["end_ns"] for s in res["steps"]) - first) / 1e9,
        "peak_rss_mb": res["maxrss_kb"] / 1024.0,
        **commands,
        "trials_per_s": trials / mc_seconds if trials else 0.0,
        "ops": ops,
        "failures": failures,
        "points": points,
        "point_seconds": res["points"],
        "trace": res.get("trace"),
    }


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"p50": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"p50": q2, "q1": q1, "q3": q3, "n": len(values)}


def _probe(workload: str, seed: int, probe_dir: Path) -> float:
    """Set-up time of one fresh worker that stops at the first grid point."""
    probe_dir.mkdir()
    res, launch = _spawn(["run", workload, str(seed), str(probe_dir), "--probe"])
    return (res["first_point_ns"] - launch) / 1e9


def timed_run(workload: str, seed: int, seconds: float, run_dir: Path) -> tuple[dict, dict]:
    # Half the set-up probes run before the iterations and half after, so that
    # set-up samples the host at both ends of the run, as the iterations do.
    start = now_ns()
    head = SETUP_PROBES // 2
    setup = [_probe(workload, seed, run_dir / f"probe{i}") for i in range(head)]
    tail_ns = (now_ns() - start) * (SETUP_PROBES - head) / head
    iterations = []
    while True:
        it_start = now_ns()
        iterations.append(_iteration(workload, seed, run_dir / f"it{len(iterations)}"))
        it_end = now_ns()
        if it_end + (it_end - it_start) + tail_ns > start + seconds * 1e9:
            break
    setup += [_probe(workload, seed, run_dir / f"probe{i}") for i in range(head, SETUP_PROBES)]
    setup += [it["setup_s"] for it in iterations]
    stats = {"setup_s": _quartiles(setup)}
    for key in ("sweep_s", "peak_rss_mb", "simulate_s", "compare_s", "verify_s", "trials_per_s"):
        values = [it[key] for it in iterations if key in it]
        if values:
            stats[key] = _quartiles(values)
    metrics = {k: v["p50"] for k, v in stats.items()}
    details = {
        "iterations": len(iterations),
        "stats": stats,
        "sweep_samples": [it["sweep_s"] for it in iterations],
        "setup_samples": setup,
        "ops": sum(it["ops"] for it in iterations),
        "failures": [f for it in iterations for f in it["failures"]],
        "points": iterations[0]["points"],
        "point_seconds": iterations[0]["point_seconds"],
    }
    return metrics, details


def traced_run(workload: str, seed: int, run_dir: Path) -> tuple[dict, dict]:
    untraced = _iteration(workload, seed, run_dir / "untraced")
    traced = _iteration(workload, seed, run_dir / "traced", trace=True)
    shutil.copy(run_dir / "traced" / "spans.jsonl", OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    for step in WORKLOADS[workload].steps:
        outputs = [run_dir / d / f"{step.name}.csv" for d in ("untraced", "traced")]
        texts = [p.read_bytes() if p.is_file() else None for p in outputs]
        if texts[0] != texts[1]:
            raise BenchError(f"{step.name}: the traced output differs from the untraced one")
    tr = traced["trace"]
    coverage = tr["layer_self_s"] / tr["total_s"]
    if coverage < MIN_COVERAGE:
        raise BenchError(f"layer coverage {coverage:.3f} < {MIN_COVERAGE}: "
                         "a layer is no longer called through a traced name")
    metrics = dict(tr["layers"])
    metrics.update({
        "trace.total.s": tr["total_s"],
        "trace.coverage": coverage,
        "trace.overhead": traced["sweep_s"] / untraced["sweep_s"] - 1.0,
        "cli.cmd_simulate.s": untraced.get("simulate_s", 0.0),
        "cli.cmd_compare.s": untraced.get("compare_s", 0.0),
        "cli.cmd_verify.s": untraced.get("verify_s", 0.0),
        "cli.trials_per_s": untraced["trials_per_s"],
    })
    details = {
        "untraced_sweep_s": untraced["sweep_s"],
        "traced_sweep_s": traced["sweep_s"],
        "spans": tr["spans"],
        "ops": untraced["ops"] + traced["ops"],
        "failures": untraced["failures"] + [f"traced {f}" for f in traced["failures"]],
        "points": untraced["points"],
    }
    return metrics, details


def _declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = cli_seed(args.seed)
    try:
        if not (SRC_DIR / "cqdec" / "cli.py").is_file():
            raise BenchError(f"no cqdec sources under {SRC_DIR}")
        missing = [str(p) for step in WORKLOADS[args.workload].steps
                   if not (p := reference_path(args.workload, seed, step)).is_file()]
        if missing:
            raise BenchError(f"missing reference outputs: {missing}")
        declared = _declared_metrics(bool(args.trace))
        OUT_DIR.mkdir(exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(dir=OUT_DIR, prefix=f"{args.workload}-"))
        try:
            facts, _ = _spawn(["facts"])
            if args.trace:
                metrics, details = traced_run(args.workload, seed, run_dir)
            else:
                metrics, details = timed_run(args.workload, seed, args.seconds, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        absent = [m["name"] for m in declared if m["name"] not in metrics]
        if absent:
            raise BenchError(f"metrics not measured: {absent}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed = len(details["failures"])
    detail_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                       "cli_seed": seed, "facts": facts, "metrics": metrics,
                                       **details}, indent=1), encoding="utf-8")
    for f in details["failures"][:20]:
        print(f"FAILED {f}")
    print(f"facts: {json.dumps(facts)}")
    print(f"details: {detail_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": details["ops"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
