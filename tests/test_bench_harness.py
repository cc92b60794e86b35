"""The benchmark harness, in process.

The ablations run at toy sizes so their built-in equality checks
(row == columnar, every shard count == one shard) gate tier 1 on their
own, and the copied ``benchmarks/conftest.py`` runs inside a throwaway
pytest session to pin what a plain run and a ``--benchmark-only`` run
each enforce.
"""

import sys
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCHMARKS) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS))


def test_columnar_ablation_asserts_equivalence():
    from bench_ablation_columnar import run_ablation

    results = run_ablation([40])  # asserts row == columnar internally
    assert set(results) == {40}
    assert set(results[40]) == {"analytic_row", "analytic_columnar"}
    assert all(seconds > 0 for seconds in results[40].values())


def test_sharding_ablation_asserts_equivalence():
    from bench_ablation_sharding import run_ablation

    results = run_ablation(sizes=[30], shard_counts=(1, 3))
    assert set(results) == {30}
    assert set(results[30]) == {1, 3}
    for timing in results[30].values():
        assert timing["facets_s"] > 0
        assert timing["analytic_s"] > 0


HARNESS_USER = """
def test_over_the_bar(benchmark, wall_clock_bar):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    wall_clock_bar(False, "overhead over the bar")


def test_writes_artifact(artifact_writer):
    artifact_writer("planted.txt", "planted\\n")
"""


@pytest.fixture()
def harness(pytester):
    pytester.syspathinsert(BENCHMARKS)
    pytester.makeconftest((BENCHMARKS / "conftest.py").read_text("utf-8"))
    pytester.makepyfile(test_harness_user=HARNESS_USER)
    return pytester


def test_wall_clock_bar_is_inert_in_a_plain_run(harness):
    harness.runpytest_inprocess("-k", "over_the_bar").assert_outcomes(
        passed=1)


def test_wall_clock_bar_gates_a_benchmark_only_run(harness):
    result = harness.runpytest_inprocess(
        "--benchmark-only", "-k", "over_the_bar")
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*overhead over the bar*"])


def test_artifacts_go_to_repro_bench_out(harness, tmp_path, monkeypatch):
    out = tmp_path / "artifacts"
    monkeypatch.setenv("REPRO_BENCH_OUT", str(out))
    monkeypatch.delitem(sys.modules, "_workload", raising=False)
    harness.runpytest_inprocess("-k", "writes_artifact").assert_outcomes(
        passed=1)
    assert (out / "planted.txt").read_text("utf-8") == "planted\n"
