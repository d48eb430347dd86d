"""The reference comparison behind the correctness gates."""

from workloads import csv_matches


def _write(path, text):
    path.write_text(text)
    return path


def test_floats_within_tolerance_match_but_are_not_byte_identical(tmp_path):
    ref = _write(tmp_path / "ref.csv", "a,b,ok\n1.0,0.5,true\n")
    got = _write(tmp_path / "got.csv", "a,b,ok\n1.0000000000001,0.5,true\n")
    assert csv_matches(got, ref) == (True, False)
    assert csv_matches(ref, ref) == (True, True)


def test_booleans_nan_pattern_and_shape_must_match(tmp_path):
    ref = _write(tmp_path / "ref.csv", "a,ok\nnan,true\ninf,false\n")
    assert not csv_matches(_write(tmp_path / "b.csv", "a,ok\nnan,false\ninf,false\n"), ref)[0]
    assert not csv_matches(_write(tmp_path / "n.csv", "a,ok\n0.0,true\ninf,false\n"), ref)[0]
    assert not csv_matches(_write(tmp_path / "i.csv", "a,ok\nnan,true\n1e308,false\n"), ref)[0]
    assert not csv_matches(_write(tmp_path / "r.csv", "a,ok\nnan,true\n"), ref)[0]
    assert not csv_matches(_write(tmp_path / "f.csv", "a,ok\nnan,true\ninf,false\n"),
                           _write(tmp_path / "g.csv", "a,ok\n1.0,true\ninf,false\n"))[0]


def test_non_converged_fit_counts_as_one_failed_operation(tmp_path):
    import numpy as np

    from perturbopt import btl
    from workloads import CliFitDiagnose

    workload = CliFitDiagnose(1, tmp_path)
    graph = btl.ComparisonGraph.from_edges(3, [0, 0, 1], [1, 2, 2], [4.0, 4.0, 4.0])
    btl.write_scores(tmp_path / "truth.csv", np.array([1.0, 0.0, -1.0]))
    failed = []
    for name, wins in (("balanced", graph.counts / 2), ("one_sided", graph.counts)):
        # one-sided: the lower-index item wins every game, so no finite MLE exists
        obs = tmp_path / f"{name}.csv"
        btl.write_observations(obs, btl.BtlObservation(graph=graph, wins=wins))
        batch = workload.fit_diagnose(obs, tmp_path / "truth.csv", tmp_path / "scores.csv",
                                      tmp_path / "report.csv")
        assert batch.ops == 1
        failed.append(batch.failed)
    assert failed == [0, 1]
