"""The p90 guard and the parent-versus-change verdict rule on synthetic samples."""

import pytest

from stats import MIN_OPS_FOR_P90, p90, spread, verdict
from suite import compare, load_spec


def test_p90_refused_below_one_hundred_operations():
    with pytest.raises(ValueError, match="at least 100"):
        p90([1.0] * (MIN_OPS_FOR_P90 - 1))


def test_p90_of_one_hundred_operations():
    assert p90([float(i) for i in range(1, 101)]) == pytest.approx(90.1)


def test_spread_is_interquartile_distance_over_median():
    values = [8.0, 9.0, 10.0, 11.0, 12.0]
    assert spread(values) == pytest.approx((11.5 - 8.5) / 10.0)


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 100.8, 99.8, 100.1, 99.9]


def test_clear_gain_on_ten_pairs_is_improved():
    change = [v - 10.0 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "improved"
    assert verdict(PARENT, [v + 10.0 for v in PARENT], "higher", 0.1) == "improved"


def test_eight_wins_of_ten_is_not_improved():
    change = [v - 10.0 for v in PARENT]
    change[0] = PARENT[0] + 1.0
    change[1] = PARENT[1] + 1.0
    assert verdict(PARENT, change, "lower", 0.1) == "within bound"


def test_nine_wins_of_ten_is_enough():
    change = [v - 10.0 for v in PARENT]
    change[0] = PARENT[0] + 1.0
    assert verdict(PARENT, change, "lower", 0.1) == "improved"


def test_gain_within_parent_spread_is_not_improved():
    # every pair wins, but by less than the parent's interquartile distance
    change = [v - 0.05 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "within bound"


def test_fewer_than_ten_pairs_never_improve():
    change = [v - 10.0 for v in PARENT]
    assert verdict(PARENT[:9], change[:9], "lower", 0.1) == "within bound"


def test_worse_beyond_bound_is_regressed():
    assert verdict(PARENT, [v * 1.2 for v in PARENT], "lower", 0.1) == "regressed"
    assert verdict(PARENT, [v * 0.8 for v in PARENT], "higher", 0.1) == "regressed"


def test_worse_within_bound_is_within_bound():
    assert verdict(PARENT, [v * 1.05 for v in PARENT], "lower", 0.1) == "within bound"


def test_parent_spread_wider_than_bound_is_unresolved():
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    assert verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1) == "unresolved"


def test_wide_spread_but_every_change_run_better():
    noisy = [60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0, 100.0, 100.0]
    change = [56.0] * 10
    # wins all pairs, but the gain (44) is below the parent's IQR (45)
    assert verdict(noisy, change, "lower", 0.1) == "within bound"


def test_mismatched_pairs_rejected():
    with pytest.raises(ValueError):
        verdict([1.0, 2.0], [1.0], "lower", 0.1)


def _runs(values, failed):
    return [
        {"workload": "ao-study", "seed": seed, "trace": 0, "seconds": 45, "attempted": 100,
         "failed": failed,
         "metrics": {m["name"]: {"value": v} for m in load_spec()["end_to_end"]}}
        for seed, v in enumerate(values)
    ]


def test_more_failures_cancel_an_improvement():
    rows = {(w, m): v for w, m, _, _, _, v in compare(_runs(PARENT, 0),
                                                     _runs([v - 10 for v in PARENT], 0),
                                                     load_spec())}
    assert rows[("ao-study", "rep_p50_ms")] == "improved"
    assert rows[("ao-study", "failed_frac")] == "within bound"
    rows = {(w, m): v for w, m, _, _, _, v in compare(_runs(PARENT, 0),
                                                     _runs([v - 10 for v in PARENT], 1),
                                                     load_spec())}
    assert rows[("ao-study", "rep_p50_ms")] == "unresolved (more failures)"
    assert rows[("ao-study", "failed_frac")] == "regressed"


def test_runs_of_different_lengths_are_not_compared():
    change = _runs(PARENT, 0)
    change[0]["seconds"] = 20
    with pytest.raises(SystemExit, match="different lengths"):
        compare(_runs(PARENT, 0), change, load_spec())
