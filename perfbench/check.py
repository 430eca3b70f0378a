"""Compare one step's CLI output with its stored reference.

Every grid point (simulate/compare row) and every verify row is one
operation.  An operation fails when its step exited nonzero, its row is
missing or unexpected, its status/reason differs from the reference, its
size or seed (``seed``, ``N_n``, ``M``, ``dim_H``, ``trials``) differs, an
exact value (``exact_*`` columns, the PGM ``err``) is more than ``EXACT_TOL``
from the reference, or a Monte Carlo ``err`` lies outside a ``Z_BOUND``-sigma
binomial band around the reference.  The band tolerates a changed RNG stream.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

EXACT_TOL = 1e-9
Z_BOUND = 5.0
_EXACT_COLUMNS = ("exact_err", "exact_abort_frac", "exact_misdecode_frac")
# What a point computes on: a program that samples another code or runs fewer
# trials does other work, whatever its err.
_IDENTITY_COLUMNS = ("seed", "N_n", "M", "dim_H", "trials")


@dataclass
class StepCheck:
    ops: int = 0
    failures: list[str] = field(default_factory=list)


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _row_key(command: str, row: dict) -> tuple:
    if command == "verify":
        return (row["n"], row["check"], row["index"])
    return (row["n"], row["R"], row["variant"])


def _close(value: str, ref: str) -> bool:
    if value == "" or ref == "":
        return value == ref
    return abs(float(value) - float(ref)) <= EXACT_TOL


def _mc_within_band(row: dict, ref: dict) -> bool:
    """|err - err_ref| within Z_BOUND sigma of the difference of two binomial fractions."""
    if row["err"] == "" or ref["err"] == "":
        return row["err"] == ref["err"]
    t, t_ref = int(row["trials"]), int(ref["trials"])
    pooled = (int(row["errors"]) + int(ref["errors"])) / (t + t_ref)
    sigma = math.sqrt(pooled * (1.0 - pooled) * (1.0 / t + 1.0 / t_ref))
    return abs(float(row["err"]) - float(ref["err"])) <= Z_BOUND * sigma + 1e-12


def _row_failure(command: str, row: dict, ref: dict) -> str | None:
    if command == "verify":
        if row["status"] != ref["status"]:
            return f"status {row['status']!r} != reference {ref['status']!r}"
        return None
    if (row["status"], row["reason"]) != (ref["status"], ref["reason"]):
        return f"status/reason {row['status']}/{row['reason']} != {ref['status']}/{ref['reason']}"
    for col in _IDENTITY_COLUMNS:
        if row[col] != ref[col]:
            return f"{col} {row[col]} != reference {ref[col]}"
    for col in _EXACT_COLUMNS:
        if not _close(row[col], ref[col]):
            return f"{col} {row[col]} != reference {ref[col]}"
    if row["variant"] == "pgm":
        if not _close(row["err"], ref["err"]):
            return f"pgm err {row['err']} != reference {ref['err']}"
    elif ref["trials"] not in ("", "0") and not _mc_within_band(row, ref):
        return f"MC err {row['err']} outside the {Z_BOUND}-sigma band of {ref['err']}"
    return None


def check_step(command: str, rc: int | None, text: str | None, ref_text: str) -> StepCheck:
    """Operations and failures of one step; ``rc`` None means the step never ran."""
    ref_rows = {_row_key(command, r): r for r in parse_csv(ref_text)}
    result = StepCheck(ops=len(ref_rows))
    if rc != 0 or text is None:
        result.failures = [f"{k}: step exit code {rc}" for k in ref_rows]
        return result
    rows = {_row_key(command, r): r for r in parse_csv(text)}
    for key, ref in ref_rows.items():
        row = rows.get(key)
        reason = "missing row" if row is None else _row_failure(command, row, ref)
        if reason:
            result.failures.append(f"{key}: {reason}")
    for key in rows.keys() - ref_rows.keys():
        result.ops += 1
        result.failures.append(f"{key}: row not in the reference")
    return result


def point_sizes(command: str, text: str) -> list[dict]:
    """N, M and dim_H of every grid point (verify: dim_H from the typc_dim row)."""
    rows = parse_csv(text)
    if command == "verify":
        return [{"n": int(r["n"]), "dim_H": int(r["lhs"])}
                for r in rows if r["check"] == "typc_dim"]
    return [
        {"n": int(r["n"]), "R": float(r["R"]), "variant": r["variant"], "N": r["N_n"],
         "M": r["M"], "dim_H": r["dim_H"], "status": r["status"]}
        for r in rows
    ]
