"""Batch front-end: capacity, verify, simulate, compare.

Exit codes: 0 success, 1 config error, 2 resource budget error at the top
level, 3 internal invariant violation detected by verify.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

from .budgets import Budgets
from .bounds import check_amplitude_lower_bound, check_trace_power_bounds
from .channel import CQChannel, holevo_chi, parse_channel_document
from .codebook import sample_codebook
from .config import VARIANTS, ExperimentConfig, load_experiment_config, parse_kv_text
from .decoder import average_amplitude, build_plan, build_povm, verify_mixture_identity
from .errors import ConfigError, CqdecError, ResourceBudgetError, ValidationError
from .experiments import CSV_COLUMNS, point_seed, run_grid, typicality_params
from .typicality import build_rho_tilde, build_typical_model, subordination_gap


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def resolve_channel(cfg: ExperimentConfig) -> CQChannel:
    """The config's channel: a builtin takes the same path as a channel file naming it."""
    if cfg.channel != "file":
        return parse_channel_document({"builtin": cfg.channel, **cfg.channel_params})
    try:
        with open(cfg.channel_file, "r", encoding="utf-8") as fh:
            return parse_channel_document(parse_kv_text(fh.read()))
    except OSError as exc:
        raise ConfigError(f"cannot read channel file: {exc}") from exc


def _emit_table(rows: list[dict], columns: tuple[str, ...], fmt: str, out_path: str | None):
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(row.get(c)) for c in columns] for row in rows)
        text = buf.getvalue()
    else:
        blocks = []
        for i, row in enumerate(rows):
            lines = [f"[record {i}]"]
            lines.extend(f"{c} = {_fmt(row.get(c))}" for c in columns)
            blocks.append("\n".join(lines))
        text = "\n\n".join(blocks) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_VERIFY_COLUMNS = ("n", "delta", "check", "index", "lhs", "rhs", "status")
# The decoder variants of each grid command; None runs the config's.
_GRID_VARIANTS = {"simulate": None, "compare": VARIANTS}


def _verify_point(ch, cfg: ExperimentConfig, n: int, budgets: Budgets) -> list[dict]:
    rows: list[dict] = []

    def add(check, status, lhs=None, rhs=None, index=None):
        rows.append(
            {
                "n": n,
                "delta": cfg.delta,
                "check": check,
                "index": index,
                "lhs": lhs,
                "rhs": rhs,
                "status": status,
            }
        )

    params = typicality_params(cfg, n)
    try:
        model = build_typical_model(ch, params, budgets)
    except ResourceBudgetError as exc:
        add("model", f"skip:{exc.reason}")
        return rows
    cap = model.eigenvalue_cap * (1 + 1e-9)
    if model.dim_H:
        add(
            "eigv_rho_bar",
            "pass" if model.rho_bar_diag.max() <= cap else "fail",
            float(model.rho_bar_diag.max()),
            model.eigenvalue_cap,
        )
    else:
        add("eigv_rho_bar", "skip:empty_window")
    add(
        "typc_dim",
        "pass" if model.dim_H <= model.dim_cap + 1e-9 else "fail",
        model.dim_H,
        model.dim_cap,
    )
    target = 1.0 - cfg.epsilon_target  # reported, never asserted at finite n
    add("capture_target", "info" if model.trace_bar > target else "info:below_target",
        model.trace_bar, target)
    try:
        rho_tilde = build_rho_tilde(ch, params, model, budgets)
    except ResourceBudgetError as exc:
        add("rho_tilde", f"skip:{exc.reason}")
        return rows
    lam = rho_tilde.eigenvalues()
    if lam.size:
        add("eigv_rho_tilde", "pass" if lam.max() <= cap else "fail", float(lam.max()),
            model.eigenvalue_cap)
    gap = subordination_gap(rho_tilde, model)
    add("subordination", "pass" if gap <= 1e-10 else "fail", gap, 1e-10)
    try:
        dev = verify_mixture_identity(ch, params, model, rho_tilde, budgets)
        add("mixture_identity", "pass" if dev <= 1e-10 else "fail", dev, 1e-10)
    except ResourceBudgetError as exc:
        add("mixture_identity", f"skip:{exc.reason}")
    power, binomial = average_amplitude(rho_tilde, range(0, min(cfg.m_max, 20) + 1, 4))
    worst_two_forms = float(abs(power - binomial).max())
    add("amplitude_two_forms", "pass" if worst_two_forms <= 1e-9 else "fail",
        worst_two_forms, 1e-9)
    for c in check_trace_power_bounds(rho_tilde, n, cfg.delta, model.s_rho, j_max=6):
        add("trace_power", "pass" if c.ok else "fail", c.lhs, c.rhs, index=c.index)
    if model.s_rho > cfg.delta:
        m_grid = range(0, min(cfg.m_max, 16) + 1, 4)
        for c in check_amplitude_lower_bound(model, rho_tilde, m_grid).checks:
            add("amplitude_lower", "pass" if c.ok else "fail", c.rhs, c.lhs, index=c.index)
    else:
        add("amplitude_lower", "skip:delta_above_entropy")
    try:
        seed = point_seed(cfg.seed, cfg.n_grid.index(n), 0)  # simulate's (n, R_grid[0]) codebook
        codebook = sample_codebook(
            ch, n, cfg.r_grid[0], params.source_delta, seed,
            distinct=cfg.distinct_codewords, budgets=budgets,
        )
        plan = build_plan(codebook, ch, params, model=model, budgets=budgets)
        povm = build_povm(plan, budgets=budgets)
        defect = povm.completeness_defect()
        add("povm_completeness", "pass" if defect <= 1e-9 else "fail", defect, 1e-9)
        min_eig = povm.min_element_eigenvalue()
        add("povm_positivity", "pass" if min_eig >= -1e-10 else "fail", min_eig, -1e-10)
    except (ResourceBudgetError, ValidationError) as exc:
        reason = exc.reason if isinstance(exc, ResourceBudgetError) else "invalid"
        add("povm", f"skip:{reason}")
    return rows


def output_table(command: str, cfg: ExperimentConfig, jobs: int) -> tuple[list[dict], tuple]:
    """The rows and columns a command writes."""
    ch = resolve_channel(cfg)
    if command == "capacity":
        row = {
            "channel": cfg.channel if cfg.channel != "file" else cfg.channel_file,
            "chi": holevo_chi(ch),
            "S_rho": ch.avg_entropy,
            "mean_letter_entropy": ch.mean_letter_entropy,
        }
        return [row], tuple(row)
    budgets = Budgets.resolve(cfg)
    if command == "verify":
        rows = [row for n in cfg.n_grid for row in _verify_point(ch, cfg, n, budgets)]
        return rows, _VERIFY_COLUMNS
    results = run_grid(ch, cfg, _GRID_VARIANTS[command], budgets, jobs)
    return [r.csv_values() for r in results], CSV_COLUMNS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cqdec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("capacity", "verify", *_GRID_VARIANTS):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "report"), default="csv")
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_experiment_config(args.config, args.seed)
        rows, columns = output_table(args.command, cfg, max(1, args.jobs))
        _emit_table(rows, columns, args.format, args.out)
        # only verify's check rows can fail; simulate and compare rows are ok or skipped
        return 3 if any(row.get("status") == "fail" for row in rows) else 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except ResourceBudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 2
    except CqdecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
