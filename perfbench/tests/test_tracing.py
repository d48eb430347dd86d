"""Self-time arithmetic on synthetic spans, and the tracer's patching."""

import math

import pytest

from tracing import SPAN_NAMES, Span, Tracer, layer_table


def table(spans):
    return layer_table(spans, names=())


def test_self_time_subtracts_children():
    spans = [
        Span(1, 0, "child", 1.0, 3.0),
        Span(2, 0, "child", 4.0, 5.0),
        Span(0, None, "parent", 0.0, 10.0),
    ]
    t = table(spans)
    assert t["parent"]["calls"] == 1
    assert t["parent"]["total_s"] == pytest.approx(10.0)
    assert t["parent"]["self_s"] == pytest.approx(7.0)
    assert t["child"]["calls"] == 2
    assert t["child"]["self_s"] == pytest.approx(3.0)
    assert t["child"]["total_s"] == pytest.approx(3.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, None, "p", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 3.0, 6.0),
        Span(3, 0, "c", 8.0, 12.0),  # clipped at the parent's end
    ]
    assert table(spans)["p"]["self_s"] == pytest.approx(10.0 - 5.0 - 2.0)


def test_grandchildren_do_not_reduce_the_grandparent_twice():
    spans = [
        Span(0, None, "top", 0.0, 10.0),
        Span(1, 0, "mid", 2.0, 8.0),
        Span(2, 1, "leaf", 3.0, 5.0),
    ]
    t = table(spans)
    assert t["top"]["self_s"] == pytest.approx(4.0)
    assert t["mid"]["self_s"] == pytest.approx(4.0)
    assert t["leaf"]["self_s"] == pytest.approx(2.0)
    total_self = sum(row["self_s"] for row in t.values())
    assert total_self == pytest.approx(10.0)


def test_total_time_counts_only_the_outermost_span_of_a_name():
    spans = [
        Span(0, None, "f", 0.0, 10.0),
        Span(1, 0, "g", 1.0, 9.0),
        Span(2, 1, "f", 2.0, 6.0),
    ]
    t = table(spans)
    assert t["f"]["calls"] == 2
    assert t["f"]["total_s"] == pytest.approx(10.0)
    assert t["f"]["self_s"] == pytest.approx(2.0 + 4.0)


def test_listed_names_appear_with_zero_rows():
    t = layer_table([], names=("a.b",))
    assert t == {"a.b": {"calls": 0, "self_s": 0.0, "total_s": 0.0}}


def test_tracer_records_nested_library_calls_and_restores_them():
    import numpy as np

    from perturbopt import btl, experiments, objective

    originals = (experiments.newton_minimize, objective.newton_minimize,
                 btl.BtlObjective.hessian, btl.ComparisonGraph.__dict__["from_edges"])
    cfg = experiments.ExperimentConfig(n_list=(12,), reps=1, seed=5)
    tracer = Tracer()
    with tracer:
        record = experiments.expansion_replication(cfg, 12, 0).record
    assert (experiments.newton_minimize, objective.newton_minimize,
            btl.BtlObjective.hessian, btl.ComparisonGraph.__dict__["from_edges"]) == originals
    t = layer_table(tracer.spans)
    assert set(SPAN_NAMES) <= set(t)
    assert t["btl.from_edges"]["calls"] == 1
    assert t["btl.fit_penalized_mle"]["calls"] == 1
    # the fit's Newton solve and the polish solve
    assert t["objective.newton_minimize"]["calls"] == 2
    assert tracer.newton_iterations > 0
    assert t["btl.hessian"]["calls"] >= 1
    fit = t["btl.fit_penalized_mle"]
    assert 0.0 <= fit["self_s"] <= fit["total_s"]
    assert math.isfinite(record["lead_fish"]) or not record["converged"]
    # tracing does not change the record
    assert experiments.expansion_replication(cfg, 12, 0).record == record
    assert np.isfinite(t["btl.hessian"]["total_s"])


def test_constants_span_is_split_by_norm():
    from tracing import _constants_span

    assert _constants_span((), {"norm": "l2"}) == "btl.constants_l2"
    assert _constants_span((), {}) == "btl.constants_linf"
    assert _constants_span((None,) * 5 + ("l2",), {}) == "btl.constants_l2"
