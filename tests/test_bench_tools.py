"""The bench-regression gate rides tier 1.

Covers the machine-readable benchmark plumbing end to end: the JSON
artifact helper (``benchmarks/_workload.write_bench_json``), an
in-process smoke run of the columnar ablation (the importable
``run_ablation``), and ``tools/bench_compare.py`` against planted
fixtures — including a deliberate regression that must trip the gate.
"""

import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for extra in ("benchmarks", "tools"):
    path = os.path.join(REPO_ROOT, extra)
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_compare  # noqa: E402  (tools/)
from _workload import _WRITTEN, write_bench_json  # noqa: E402  (benchmarks/)


# ----------------------------------------------------------------------
# The artifact helper
# ----------------------------------------------------------------------
class TestWriteBenchJson:
    def test_writes_schema_and_registers(self, tmp_path):
        path = write_bench_json(
            "demo_suite",
            {"op_b": 2.5, "op_a": 1.23456},
            params={"sizes": [100]},
            engine="columnar",
            out_dir=str(tmp_path),
        )
        assert os.path.basename(path) == "demo_suite.json"
        data = json.loads(open(path, encoding="utf-8").read())
        assert data["version"] == 1
        assert data["name"] == "demo_suite"
        assert data["engine"] == "columnar"
        assert data["params"] == {"sizes": [100]}
        assert data["ops"]["op_a"]["median_ms"] == 1.2346  # rounded
        assert "demo_suite" in _WRITTEN  # the auto-emit hook will skip it

    def test_artifact_is_loadable_by_comparator(self, tmp_path):
        path = write_bench_json("demo_load", {"op": 1.0},
                                out_dir=str(tmp_path))
        loaded = bench_compare.load_artifact(path)
        assert loaded["ops"]["op"]["median_ms"] == 1.0


# ----------------------------------------------------------------------
# The smoke benches, in process
# ----------------------------------------------------------------------
def test_smoke_ablation_emits_comparable_json(tmp_path):
    """A tiny ``run_ablation`` run produces an artifact the comparator
    accepts as its own baseline (the self-diff has no regressions)."""
    from bench_ablation_columnar import run_ablation

    results = run_ablation([40])  # asserts row == columnar internally
    assert set(results) == {40}
    timing = results[40]
    assert set(timing) == {"analytic_row", "analytic_columnar"}
    assert all(seconds > 0 for seconds in timing.values())

    ops = {label: seconds * 1000.0 for label, seconds in timing.items()}
    path = write_bench_json("smoke_ablation", ops, params={"sizes": [40]},
                            engine="row|columnar", out_dir=str(tmp_path))
    assert bench_compare.main([path, path]) == 0


# ----------------------------------------------------------------------
# The regression gate on planted fixtures
# ----------------------------------------------------------------------
@pytest.fixture()
def planted(tmp_path):
    baseline = write_bench_json(
        "planted", {"steady": 10.0, "regressed": 10.0, "tiny": 0.001},
        out_dir=str(tmp_path / "base"))
    candidate = write_bench_json(
        "planted", {"steady": 10.5, "regressed": 31.0, "tiny": 0.04},
        out_dir=str(tmp_path / "cand"))
    return baseline, candidate


class TestBenchCompareGate:
    def test_regression_trips_the_gate(self, planted, capsys):
        baseline, candidate = planted
        assert bench_compare.main([baseline, candidate]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED regressed" in out
        assert "ok       steady" in out

    def test_sub_resolution_noise_never_regresses(self, planted, capsys):
        baseline, candidate = planted
        bench_compare.main([baseline, candidate])
        assert "below timer resolution" in capsys.readouterr().out

    def test_threshold_is_configurable(self, planted):
        baseline, candidate = planted
        assert bench_compare.main(
            ["--threshold", "2.5", baseline, candidate]) == 0

    def test_improvement_and_growth_pass(self, tmp_path, capsys):
        baseline = write_bench_json("grow", {"op": 10.0},
                                    out_dir=str(tmp_path / "base"))
        candidate = write_bench_json("grow", {"op": 4.0, "extra": 1.0},
                                     out_dir=str(tmp_path / "cand"))
        assert bench_compare.main([baseline, candidate]) == 0
        out = capsys.readouterr().out
        assert "improved op" in out
        assert "new      extra" in out

    def test_unusable_input_is_exit_2(self, planted, tmp_path, capsys):
        baseline, _ = planted
        assert bench_compare.main([baseline, str(tmp_path / "nope.json")]) == 2
        other = write_bench_json("other", {"op": 1.0},
                                 out_dir=str(tmp_path / "other"))
        assert bench_compare.main([baseline, other]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"ops": {}}', encoding="utf-8")
        assert bench_compare.main([baseline, str(bad)]) == 2
        assert "unsupported bench JSON version" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The --dir mode: every matching artifact between two trees
# ----------------------------------------------------------------------
@pytest.fixture()
def planted_dirs(tmp_path):
    base = tmp_path / "base"
    cand = tmp_path / "cand"
    write_bench_json("alpha", {"op": 10.0}, out_dir=str(base))
    write_bench_json("alpha", {"op": 10.4}, out_dir=str(cand))
    write_bench_json("beta", {"op": 5.0}, out_dir=str(base))
    write_bench_json("beta", {"op": 5.1}, out_dir=str(cand))
    return base, cand


class TestBenchCompareDirMode:
    def test_clean_trees_pass(self, planted_dirs, capsys):
        base, cand = planted_dirs
        assert bench_compare.main(["--dir", str(base), str(cand)]) == 0
        out = capsys.readouterr().out
        assert "alpha [alpha.json]" in out
        assert "beta [beta.json]" in out
        assert "no regressions" in out

    def test_any_regression_anywhere_trips_the_gate(
            self, planted_dirs, capsys):
        base, cand = planted_dirs
        write_bench_json("beta", {"op": 50.0}, out_dir=str(cand))
        assert bench_compare.main(["--dir", str(base), str(cand)]) == 1
        assert "beta.json:op" in capsys.readouterr().out

    def test_one_sided_artifacts_are_reported_not_fatal(
            self, planted_dirs, capsys):
        base, cand = planted_dirs
        write_bench_json("base_only", {"op": 1.0}, out_dir=str(base))
        write_bench_json("cand_only", {"op": 1.0}, out_dir=str(cand))
        assert bench_compare.main(["--dir", str(base), str(cand)]) == 0
        out = capsys.readouterr().out
        assert "missing artifact  base_only.json" in out
        assert "new artifact      cand_only.json" in out

    def test_unusable_pair_is_exit_2_after_full_report(
            self, planted_dirs, capsys):
        base, cand = planted_dirs
        (cand / "alpha.json").write_text('{"ops": {}}', encoding="utf-8")
        assert bench_compare.main(["--dir", str(base), str(cand)]) == 2
        captured = capsys.readouterr()
        # The sweep still reports the usable pair before failing.
        assert "beta [beta.json]" in captured.out
        assert "alpha.json" in captured.err

    def test_non_directories_are_exit_2(self, planted_dirs, capsys):
        base, _ = planted_dirs
        assert bench_compare.main(
            ["--dir", str(base), str(base / "alpha.json")]) == 2
        assert "must both be directories" in capsys.readouterr().err

    def test_threshold_applies_per_operation(self, planted_dirs):
        base, cand = planted_dirs
        write_bench_json("beta", {"op": 7.0}, out_dir=str(cand))  # +40%
        assert bench_compare.main(["--dir", str(base), str(cand)]) == 1
        assert bench_compare.main(
            ["--dir", "--threshold", "0.5", str(base), str(cand)]) == 0


def test_smoke_sharding_ablation_asserts_equivalence(tmp_path):
    """A tiny ``run_ablation`` from the sharding bench runs its built-in
    row/columnar/shard-count equality checks and yields timings for
    every variant."""
    from bench_ablation_sharding import run_ablation

    results = run_ablation(sizes=[30], shard_counts=(1, 3))
    assert set(results) == {30}
    assert set(results[30]) == {1, 3}
    for timing in results[30].values():
        assert timing["facets_s"] > 0
        assert timing["analytic_s"] > 0
