"""The summary of tests/perf_pairs.py on canned perfbench result lines; no benchmark is run."""

import json

import perf_pairs

METRICS = [{"name": "wall_s", "unit": "s", "better": "lower"},
           {"name": "values_per_s", "unit": "1/s", "better": "higher"}]


def result(wall_s, values_per_s, failed=0, attempted=4):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"},
                        "values_per_s": {"value": values_per_s, "unit": "1/s"}}}


def test_result_is_the_last_line():
    out = "metric wall_s 0.1 s\nenv {}\n" + json.dumps(result(0.1, 5.0)) + "\n"
    assert perf_pairs.parse_result(out) == result(0.1, 5.0)


def test_no_result_line():
    assert perf_pairs.parse_result("") is None
    assert perf_pairs.parse_result("perfbench: a child process failed\n") is None
    assert perf_pairs.parse_result("metric wall_s 0.1 s\n[1, 2]\n") is None


def test_summary_gives_median_parent_quartiles_and_pairs_better():
    parent = [result(w, 10.0 / w) for w in (0.10, 0.12, 0.14, 0.16, 0.18)]
    change = [result(w, 10.0 / w) for w in (0.09, 0.13, 0.13, 0.15, 0.18)]
    parent[0]["failed"] = 1
    lines = perf_pairs.summarize(METRICS, parent, change)
    assert lines == [
        "wall_s: 0.14 [0.12, 0.16] -> 0.13 s (-7.1 %), better in 3/5",
        "values_per_s: 71.43 [62.5, 83.33] -> 76.92 1/s (+7.7 %), better in 3/5",
        "parent: 1 of 20 calls failed",
        "change: 0 of 20 calls failed"]


def test_one_pair_has_its_value_as_quartiles():
    lines = perf_pairs.summarize(METRICS[:1], [result(0.2, 1.0)], [result(0.1, 1.0)])
    assert lines[0] == "wall_s: 0.2 [0.2, 0.2] -> 0.1 s (-50.0 %), better in 1/1"
