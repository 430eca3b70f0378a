"""Child process of the benchmark: one fresh interpreter per use.

    python -m perfbench.worker facts
    python -m perfbench.worker run <workload> <cli_seed> <out_dir> [--probe | --trace]

``run`` calls ``cqdec.cli.main`` for each step of the workload with
``--jobs 1`` and writes the step outputs into ``out_dir``.  It takes one
timestamp at the start and end of each grid point (``run_point`` and
``_verify_point``) and no other measurement.  With ``--probe`` it stops at
the first grid point, which times set-up alone.  With ``--trace`` it also
wraps each layer function where the program looks it up (the
``cqdec.cli`` and ``cqdec.experiments`` namespaces and the ``POVMSet`` and
``MaskedHermitian`` methods) in a span, and reports the per-layer metrics.
Every mode prints one JSON object as its last line of standard output.
"""


from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import traceback
from collections import Counter
from pathlib import Path

from perfbench.workloads import SRC_DIR, WORKLOADS, now_ns

# Layer functions, each wrapped where run_point, _verify_point and the cmd_*
# functions look it up: (owner, attribute, layer name).  An owner is a cqdec
# module namespace or a cqdec class.
LAYERS = (
    ("cli", "load_experiment_config", "config.load"),
    ("cli", "resolve_channel", "channel.build"),
    ("experiments", "sample_codebook", "codebook.sample_codebook"),
    ("cli", "sample_codebook", "codebook.sample_codebook"),
    ("experiments", "build_plan", "decoder.build_plan"),
    ("cli", "build_plan", "decoder.build_plan"),
    ("experiments", "simulate_trial", "decoder.simulate_trial"),
    ("experiments", "build_povm", "decoder.build_povm"),
    ("cli", "build_povm", "decoder.build_povm"),
    ("experiments", "exact_error_probability", "decoder.exact_error_probability"),
    ("cli", "verify_mixture_identity", "decoder.verify_mixture_identity"),
    ("POVMSet", "completeness_defect", "decoder.povm_completeness"),
    ("POVMSet", "min_element_eigenvalue", "decoder.povm_positivity"),
    ("cli", "average_amplitude", "decoder.average_amplitude"),
    ("cli", "build_typical_model", "typicality.build_typical_model"),
    ("cli", "build_rho_tilde", "typicality.build_rho_tilde"),
    ("MaskedHermitian", "eigenvalues", "typicality.rho_tilde_eigenvalues"),
    ("cli", "subordination_gap", "typicality.subordination_gap"),
    ("cli", "check_trace_power_bounds", "bounds.check_trace_power_bounds"),
    ("cli", "check_amplitude_lower_bound", "bounds.check_amplitude_lower_bound"),
    ("experiments", "pgm_error_probability", "pgm.pgm_error_probability"),
)
TIMED_LAYERS = tuple(dict.fromkeys(layer for _, _, layer in LAYERS))
# Spans that group layer calls and are not layers themselves.
GROUPS = (("experiments", "run_point", "point.run_point"),
          ("cli", "_verify_point", "point.verify_point"))


class _FirstPoint(BaseException):
    """Stops a set-up probe; a BaseException so that cli.main does not catch it."""


def _check_source(cqdec_module) -> None:
    where = Path(cqdec_module.__file__).resolve()
    if SRC_DIR.resolve() not in where.parents:
        raise SystemExit(f"cqdec imported from {where}, not from {SRC_DIR}")


def _real(owner, name: str):
    real = getattr(owner, name, None)
    if real is None:
        raise SystemExit(f"{owner.__name__}.{name} is gone; the benchmark needs updating")
    return real


def _hook(module, name: str, marks: dict, probe: bool) -> None:
    """Wrap ``module.name`` to timestamp each grid point it runs."""
    real = _real(module, name)
    signature = inspect.signature(real)

    @functools.wraps(real)
    def wrapper(*args, **kwargs):
        start = now_ns()
        if marks["first_point"] is None:
            marks["first_point"] = start
        if probe:
            raise _FirstPoint
        bound = signature.bind(*args, **kwargs).arguments
        try:
            return real(*args, **kwargs)
        finally:
            marks["points"].append(
                {
                    "fn": name,
                    "n": bound["n"],
                    "R": bound.get("rate"),
                    "variant": bound.get("variant"),
                    "d_n": bound["ch"].letter_dim ** bound["n"],
                    "s": (now_ns() - start) / 1e9,
                }
            )

    setattr(module, name, wrapper)


class Tracer:
    """Spans [name, parent, start_ns, end_ns, error] in memory, plus layer sizes.

    A layer's self time is its span's duration minus the part its child spans
    cover.  ``error`` names a ResourceBudgetError or ValidationError raised
    through the span.
    """

    def __init__(self, tracked_errors: tuple):
        self.tracked_errors = tracked_errors
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.totals: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.trials: list[tuple[str, int]] = []

    def call(self, name: str, fn, *args, **kwargs):
        span = [name, self._stack[-1] if self._stack else None, now_ns(), None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        except self.tracked_errors as exc:
            span[4] = type(exc).__name__
            raise
        finally:
            span[3] = now_ns()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str) -> None:
        real = _real(owner, attr)
        signature = inspect.signature(real)

        @functools.wraps(real)
        def wrapper(*args, **kwargs):
            result = self.call(name, real, *args, **kwargs)
            self._record(name, lambda: signature.bind(*args, **kwargs).arguments, result)
            return result

        setattr(owner, attr, wrapper)

    def _peak(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), int(value))

    def _record(self, layer: str, arguments, result) -> None:
        """Counts and sizes taken from a layer call, outside its span."""
        if layer == "decoder.simulate_trial":
            self.trials.append((result.outcome, result.tests_run))
        elif layer == "codebook.sample_codebook":
            self.totals["codebook.N.total"] += result.num_messages
        elif layer == "decoder.build_plan":
            self.totals["decoder.M.total"] += result.num_tests
            self._peak("typicality.dim_H.max", result.model.dim_H)
        elif layer == "typicality.build_typical_model":
            self._peak("typicality.dim_H.max", result.dim_H)
        elif layer == "decoder.build_povm":
            self._peak("decoder.povm_dim.max", result.dim)
        elif layer == "pgm.pgm_error_probability":
            bound = arguments()
            self._peak("pgm.dim.max", bound["ch"].letter_dim ** bound["codebook"].n)

    def self_times(self) -> dict[str, float]:
        child = [0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, _, start, end, _) in enumerate(self.spans):
            out[name] += (end - start - child[i]) / 1e9
        return dict(out)

    def layer_metrics(self, decoded: str, abort_atypical: str) -> dict[str, float]:
        """Per-layer metrics named <module>.<function>.<stat>."""
        import statistics

        self_s = self.self_times()
        errors = Counter(s[0] for s in self.spans if s[4] is not None)
        out: dict[str, float] = {}
        for name in TIMED_LAYERS:
            out[f"{name}.s"] = self_s.get(name, 0.0)
            out[f"{name}.errors"] = errors.get(name, 0)
        trial_us = [(end - start) / 1e3 for name, _, start, end, _ in self.spans
                    if name == "decoder.simulate_trial"]
        calls = len(trial_us)
        pct = (statistics.quantiles(trial_us, n=100, method="inclusive") if calls > 1
               else [sum(trial_us)] * 99)
        outcomes = Counter(o for o, _ in self.trials)
        per_call = 1 / max(calls, 1)
        out["decoder.simulate_trial.calls"] = calls
        out["decoder.simulate_trial.us_p50"] = pct[49]
        out["decoder.simulate_trial.us_p99"] = pct[98]
        out["decoder.simulate_trial.tests_per_trial"] = sum(t for _, t in self.trials) * per_call
        out["decoder.simulate_trial.decoded_frac"] = outcomes[decoded] * per_call
        out["decoder.simulate_trial.abort_atypical_frac"] = outcomes[abort_atypical] * per_call
        for name in ("codebook.N.total", "decoder.M.total"):
            out[name] = self.totals[name]
        for name in ("decoder.povm_dim.max", "typicality.dim_H.max", "pgm.dim.max"):
            out[name] = self.maxima.get(name, 0)
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "name": name, "start_ns": start,
                                     "end_ns": end, "error": error}) + "\n")


def run(workload: str, seed: int, out_dir: Path, probe: bool, trace: bool) -> dict:
    import cqdec
    import cqdec.cli as cli
    import cqdec.decoder as decoder
    import cqdec.experiments as experiments
    import cqdec.typicality as typicality
    from cqdec.errors import ResourceBudgetError, ValidationError

    _check_source(cqdec)
    tracer = None
    if trace:
        tracer = Tracer((ResourceBudgetError, ValidationError))
        owners = {"cli": cli, "experiments": experiments, "POVMSet": decoder.POVMSet,
                  "MaskedHermitian": typicality.MaskedHermitian}
        for owner, attr, name in LAYERS + GROUPS:
            tracer.wrap(owners[owner], attr, name)
    marks = {"first_point": None, "points": []}
    _hook(experiments, "run_point", marks, probe)
    _hook(cli, "_verify_point", marks, probe)
    steps = []
    for step in WORKLOADS[workload].steps:
        argv = [
            step.command,
            "--config", str(step.config_path),
            "--seed", str(seed),
            "--out", str(out_dir / f"{step.name}.csv"),
            "--jobs", "1",
        ]
        start = now_ns()
        try:
            rc = tracer.call(f"cli.{step.command}", cli.main, argv) if tracer else cli.main(argv)
        except _FirstPoint:
            break
        except Exception:  # a crashing step counts as a failed step, not a dead worker
            traceback.print_exc()
            rc = -1
        steps.append({"step": step.name, "command": step.command, "start_ns": start,
                      "end_ns": now_ns(), "rc": rc})
    result = {
        "first_point_ns": marks["first_point"],
        "steps": steps,
        "points": marks["points"],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.write(out_dir / "spans.jsonl")
        self_s = tracer.self_times()
        result["trace"] = {
            "total_s": (steps[-1]["end_ns"] - steps[0]["start_ns"]) / 1e9,
            "layer_self_s": sum(self_s.get(name, 0.0) for name in TIMED_LAYERS),
            "spans": len(tracer.spans),
            "layers": tracer.layer_metrics(decoder.DECODED, decoder.ABORT_ATYPICAL),
        }
    return result


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def facts() -> dict:
    """Machine facts and a fixed calibration probe; recorded, never used as metrics."""
    # imported here, so that a timed worker starts up like the plain CLI
    import platform
    import statistics

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    matmul = []
    for _ in range(20):
        start = now_ns()
        a @ a
        matmul.append((now_ns() - start) / 1e6)
    loop = []
    for _ in range(5):
        start = now_ns()
        acc = 0
        for i in range(200_000):
            acc += i * i
        loop.append((now_ns() - start) / 1e6)
    with open("/proc/loadavg", encoding="utf-8") as fh:
        loadavg = fh.read().split()[:3]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "loadavg": [float(x) for x in loadavg],
        "calib_matmul64_ms_p50": statistics.median(matmul),
        "calib_pyloop_ms_p50": statistics.median(loop),
    }


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "facts":
        result = facts()
    elif mode == "run":
        result = run(argv[1], int(argv[2]), Path(argv[3]), "--probe" in argv[4:],
                     "--trace" in argv[4:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
