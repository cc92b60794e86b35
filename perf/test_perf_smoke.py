"""In-process smoke test of the interaction benchmark.

Runs all four workloads (untraced and traced) on a 300-laptop graph with
two sessions each, and checks names, units, correctness and digest
determinism — never a wall-clock value or a ratio of two.
"""

import copy
import json
from pathlib import Path

import pytest

from perf import run
from perf.trial import LAYER_METRICS, run_trial
from perf.workloads import WORKLOADS

CONTRACT = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
SMALL = ["--laptops", "300", "--trials", "1", "--sessions", "2"]


def refused(persona):
    return -1


def in_process(spec, index):
    return run_trial(spec)


def full_run(out):
    status = run.main(SMALL + ["--out", str(out)], spawn=in_process,
                      personality=refused)
    return status, json.loads((out / "result.json").read_text())


@pytest.fixture(scope="module")
def result(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf")
    status, document = full_run(out)
    assert status == 0
    return out, document


def test_every_workload_is_correct_and_reports_the_contract_metrics(result):
    _, document = result
    assert list(document["workloads"]) == [w["name"] for w in CONTRACT["workloads"]]
    assert document["layout_randomised"] is True  # the stub refused
    end_to_end = {m["name"]: (m["unit"], m["better"], m["bound"])
                  for m in CONTRACT["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in CONTRACT["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == {name: (unit, better) for name, unit, better, _ in LAYER_METRICS}
    for name, entry in document["workloads"].items():
        assert entry["failed_share"] == 0, (name, entry["failures"])
        assert entry["traced_failed"] == 0
        assert entry["digest"] is not None
        assert {m: v["unit"] for m, v in entry["metrics"].items()} == {
            m: unit for m, (unit, _, _) in end_to_end.items()}
        assert set(entry["layers"]) == set(per_layer)


def test_each_workload_reaches_its_own_layers_and_bypasses_the_others(result):
    _, document = result
    layers = {name: entry["layers"] for name, entry in document["workloads"].items()}
    for name in ("explore", "analytics"):  # read-only: no store write at all
        assert layers[name]["rdf.graph.generation_bumps"] == 0
        assert layers[name]["sparql.evaluate.p50_ms"] == 0
        assert layers[name]["facets.sparql_backend.temp_triples"] == 0
    assert layers["explore"]["hifun.evaluate.self_ms"] == 0
    assert layers["explore"]["caching.facets.hit_rate"] > 0
    assert layers["analytics"]["hifun.evaluate.self_ms"] > 0
    assert layers["sparql"]["sparql.self_ms"] > 0
    assert layers["sparql"]["facets.sparql_backend.temp_triples"] > 0
    assert layers["sparql"]["endpoint.retries"] == 0
    assert layers["update"]["rdf.graph.add_per_s"] > 0
    assert layers["update"]["rdf.graph.generation_bumps"] > 0


def test_a_rerun_gives_the_same_digests(result, tmp_path):
    _, first = result
    _, second = full_run(tmp_path)
    for name in WORKLOADS:
        assert first["workloads"][name]["digest"] == second["workloads"][name]["digest"]


def test_single_workload_run_ends_with_the_contract_line(result, capsys):
    out, _ = result
    args = SMALL + ["--out", str(out), "--workload", "sparql"]
    for trace, metrics in ((0, CONTRACT["end_to_end"]), (1, CONTRACT["per_layer"])):
        assert run.main(args + ["--trace", str(trace)], spawn=in_process,
                        personality=refused) == 0
        line = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert {m: v["unit"] for m, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in metrics}


def test_compare_exit_codes(result, tmp_path):
    out, document = result
    same = str(out / "result.json")
    assert run.main(["compare", same, same]) == 0

    slower = copy.deepcopy(document)
    metric = slower["workloads"]["explore"]["metrics"]["step_p50_ms"]
    planted = 1 + metric["bound"] + 0.05
    metric["value"] *= planted
    metric["leave_one_out"] = [v * planted for v in metric["leave_one_out"]]
    (tmp_path / "slower.json").write_text(json.dumps(slower))
    assert run.main(["compare", same, str(tmp_path / "slower.json")]) == 1

    drifted = copy.deepcopy(document)
    drifted["workloads"]["update"]["digest"] = "0" * 64
    (tmp_path / "drifted.json").write_text(json.dumps(drifted))
    assert run.main(["compare", same, str(tmp_path / "drifted.json")]) == 2
    assert run.main(["compare", same, str(tmp_path / "missing.json")]) == 2


def test_refused_personality_falls_back_to_five_randomised_trials(result, tmp_path):
    out, _ = result
    canned = run_trial({"workload": "explore", "seed": run.SEED, "sessions": 1,
                        "kg": str(run.make_input(out, 300, run.SEED)),
                        "trace": False, "verify": True, "out": str(tmp_path)})
    calls = []

    def fake(spec, index):
        calls.append(index)
        return canned

    def granted(persona):
        return 0

    args = ["--laptops", "300", "--out", str(out), "--workload", "explore"]
    assert run.fix_layout(refused) is False and run.fix_layout(granted) is True
    run.main(args, spawn=fake, personality=refused)
    assert calls == [0, 1, 2, 3, 4]
    del calls[:]
    run.main(args, spawn=fake, personality=granted)
    assert calls == [0, 1, 2]
