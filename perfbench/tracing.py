"""Span tracing of perturbopt's public functions, installed from outside.

The tracer replaces each listed function, at run time and inside the
benchmark's own process, by a wrapper that records a span: its name, its
parent span and its start and end times.  The library is not edited.  A name
is patched everywhere a caller looks it up: in the defining module and in
every perturbopt module that imported it with ``from ... import``.  Spans are
kept in memory and turned into per-layer calls, self time and total time
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

# (span name, defining module, attribute; "Class.method" patches the class)
LAYERS = (
    ("btl.from_edges", "perturbopt.btl", "ComparisonGraph.from_edges"),
    ("btl.mle_exists", "perturbopt.btl", "mle_exists"),
    ("btl.sample_outcomes", "perturbopt.btl", "sample_outcomes"),
    ("btl.value", "perturbopt.btl", "BtlObjective.value"),
    ("btl.gradient", "perturbopt.btl", "BtlObjective.gradient"),
    ("btl.hessian", "perturbopt.btl", "BtlObjective.hessian"),
    ("btl.third_directional", "perturbopt.btl", "BtlObjective.third_directional"),
    ("btl.fit_penalized_mle", "perturbopt.btl", "fit_penalized_mle"),
    ("btl.constants", "perturbopt.btl", "btl_condition_constants"),
    ("btl.read_observations", "perturbopt.btl", "read_observations"),
    ("btl.write_scores", "perturbopt.btl", "write_scores"),
    ("objective.newton_minimize", "perturbopt.objective", "newton_minimize"),
    ("objective.partial_minimize", "perturbopt.objective", "partial_minimize"),
    ("numkit.spd_solve", "perturbopt.numkit", "spd_solve"),
    ("numkit.psd_power", "perturbopt.numkit", "psd_power"),
    ("numkit.contraction_matrix", "perturbopt.numkit", "contraction_matrix"),
    ("expansions.rho_dual", "perturbopt.expansions", "rho_dual"),
    ("expansions.check_linear_sup_expansion", "perturbopt.expansions",
     "check_linear_sup_expansion"),
    ("ao.ao_run", "perturbopt.ao", "ao_run"),
    ("ao.certify_convergence", "perturbopt.ao", "certify_convergence"),
    ("experiments.emit", "perturbopt.experiments", "emit"),
    ("cli.fit", "perturbopt.cli", "_cmd_fit"),
    ("cli.diagnose", "perturbopt.cli", "_cmd_diagnose"),
)


CONSTANTS = "btl.constants"
NEWTON = "objective.newton_minimize"


def _constants_span(args, kwargs) -> str:
    """``btl_condition_constants`` is two layers: the l2 and the sup-norm constants."""
    norm = kwargs["norm"] if "norm" in kwargs else (args[5] if len(args) > 5 else "linf")
    return f"{CONSTANTS}_{norm}"


SPAN_NAMES = tuple(
    part for name, _, _ in LAYERS
    for part in ((f"{CONSTANTS}_l2", f"{CONSTANTS}_linf") if name == CONSTANTS else (name,))
)


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Records spans of the wrapped functions while installed.

    Also counts, from the ``SolveReport`` that ``newton_minimize`` returns,
    Newton iterations and non-converged solves.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.newton_iterations = 0
        self.newton_not_converged = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _wrap(self, name, fn):
        split = name == CONSTANTS
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = _constants_span(args, kwargs) if split else name
            sid = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, parent, span_name, start, end))
            if name == NEWTON:
                self.newton_iterations += result.iterations
                self.newton_not_converged += not result.converged
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every function of ``LAYERS`` wherever perturbopt binds it."""
        for module_name in {module for _, module, _ in LAYERS} | {"perturbopt.cli"}:
            importlib.import_module(module_name)
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "perturbopt" or k.startswith("perturbopt.")]
        for name, module_name, attr in LAYERS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._patch(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                else:
                    self._patch(owner, attr, self._wrap(name, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# -- span arithmetic ----------------------------------------------------


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_table(spans, names=SPAN_NAMES) -> dict[str, dict[str, float]]:
    """Calls, self seconds and total seconds per span name.

    Self time is a span's duration minus the part of it that its child spans
    cover.  Total time counts only the outermost span of a name, so a
    function that re-enters itself is not counted twice.
    """
    by_id = {s.sid: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    table = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for n in names}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        duration = s.end - s.start
        row["calls"] += 1
        row["self_s"] += duration - _covered(children.get(s.sid, ()), s.start, s.end)
        ancestor = by_id.get(s.parent)
        while ancestor is not None and ancestor.name != s.name:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            row["total_s"] += duration
    return table
