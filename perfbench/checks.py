"""Output checks on one training call's history."""

from __future__ import annotations

import hashlib
import json
import math


def digest(records: list[dict]) -> str:
    """SHA-256 of the history records as canonical JSON."""
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _in(x, lo: float, hi: float) -> bool:
    return _finite(x) and lo <= x <= hi


def check_records(records: list[dict], num_classes: int, n: int, m: int, epochs: int) -> list[str]:
    """Every record finite and in range; epochs numbered 1..epochs."""
    problems = []
    if [r["epoch"] for r in records] != list(range(1, epochs + 1)):
        problems.append("epochs are not numbered 1..total_epochs")
    for r in records:
        where = f"epoch {r['epoch']}"
        for key in ("acc", "macro_f1", "err_rate", "util_rate", "eps_t", "R_t"):
            if not _in(r[key], 0.0, 1.0):
                problems.append(f"{where}: {key}={r[key]!r} outside [0, 1]")
        if len(r["per_class_acc"]) != num_classes or not all(_in(v, 0.0, 1.0) for v in r["per_class_acc"]):
            problems.append(f"{where}: per_class_acc out of range")
        if r["kl"] is not None and not _in(r["kl"], -1e-12, math.inf):
            problems.append(f"{where}: kl={r['kl']!r}")
        if not _in(r["lambda_t"], -1.0, 1.0) or not _in(r["cum_eps"], 0.0, r["epoch"]):
            problems.append(f"{where}: lambda_t or cum_eps out of range")
        for key, value in r["losses"].items():
            if not _in(value, 0.0, math.inf):
                problems.append(f"{where}: {key} loss={value!r}")
        if r["pool"]["n"] != n or not 0 <= r["pool"]["m_hat"] <= m:
            problems.append(f"{where}: pool sizes {r['pool']} out of range")
        if not n <= r["O_t"] <= n + m:
            problems.append(f"{where}: O_t={r['O_t']!r} outside [n, n + m]")
        pi = r["pi"]
        if len(pi) != num_classes or not all(_in(p, 0.0, 1.0) and p > 0 for p in pi) or abs(sum(pi) - 1.0) > 1e-9:
            problems.append(f"{where}: pi is not a positive probability vector")
    return problems


def check_pool_prior(history) -> list[str]:
    """The final prior equals the final pool's census, which equals a recount."""
    pool = history.pool
    final = history.reports[-1].to_record()
    problems = []
    if list(pool.recount()) != list(pool.phi):
        problems.append("pool census differs from a recount of its labels")
    if final["pool"]["m_hat"] != pool.pseudo_size:
        problems.append("final record m_hat differs from the final pool")
    census = pool.phi / pool.phi.sum()
    if any(abs(float(a) - b) > 1e-12 for a, b in zip(census, final["pi"])):
        problems.append(f"final pi {final['pi']} differs from pool census {[float(v) for v in census]}")
    return problems
