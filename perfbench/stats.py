"""Percentiles, run-to-run spread and the parent-versus-change verdict rule."""

from __future__ import annotations

import statistics

# p90 is reported only with at least ten samples beyond it
MIN_OPS_FOR_P90 = 100
# pairs needed before a change may be called an improvement
MIN_PAIRS = 10
WIN_SHARE = 0.9


def p90(samples) -> float:
    """90th percentile; refused when fewer than ``MIN_OPS_FOR_P90`` samples."""
    if len(samples) < MIN_OPS_FOR_P90:
        raise ValueError(
            f"p90 needs at least {MIN_OPS_FOR_P90} operations, the run made {len(samples)}"
        )
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(parent, change, better: str, bound: float) -> str:
    """Verdict for one (workload, metric) pair over runs paired by seed.

    ``improved``: the change wins at least 9/10 of at least ten pairs (ties
    count for neither) and its median beats the parent's by more than the
    parent's interquartile distance.  ``regressed``: the change's median is
    worse than the parent's by more than ``bound`` of the parent's median.
    ``unresolved``: neither, and the parent's own spread is wider than the
    bound, unless every change run reads better than every parent run.
    Otherwise ``within bound``.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("parent and change need the same, non-zero number of runs")
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    gain = (p_med - c_med) if better == "lower" else (c_med - p_med)
    if len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent) and gain > p_q3 - p_q1:
        return "improved"
    if -gain > bound * abs(p_med):
        return "regressed"
    if spread(parent) > bound:
        worst_change = max(change) if better == "lower" else min(change)
        best_parent = min(parent) if better == "lower" else max(parent)
        if not _better(worst_change, best_parent, better):
            return "unresolved"
    return "within bound"
