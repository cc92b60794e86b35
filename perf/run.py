"""The interaction benchmark's runner.

    python perf/run.py                       every workload, then the traced trials
    python perf/run.py --workload explore    one workload (last line: one JSON object)
    python perf/run.py --workload explore --trace
    python perf/run.py compare A.json B.json

Each workload runs in fresh trial subprocesses with address-space
randomisation off and ``PYTHONHASHSEED`` = trial index: three fixed,
different layouts, so a number repeats without being one lucky layout.
A reported end-to-end value is the median over the trials.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    # Script use: make the program and this package importable.
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf import compare  # noqa: E402
from perf.trial import LAYER_METRICS, end_to_end, run_trial  # noqa: E402
from perf.workloads import COMPANIES, CONTINENTS, COUNTRIES, DRIVES, WORKLOADS  # noqa: E402

from repro.datasets.synthetic import SyntheticConfig, synthetic_graph  # noqa: E402
from repro.rdf.ntriples import serialize  # noqa: E402

#: The contract's size, seed and measuring time (BENCHMARK.json).
LAPTOPS, SEED, RUN_SECONDS = 16_000, 11, 10

#: name → (unit, better, bound): the share of the parent's median by
#: which the metric may get worse before a change is a regression.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "step_p50_ms": ("ms", "lower", 0.20),
    "step_p90_ms": ("ms", "lower", 0.25),
    "steps_per_s": ("1/s", "higher", 0.20),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

LAYER_UNITS = {metric: unit for metric, unit, *_ in LAYER_METRICS}
ADDR_NO_RANDOMIZE = 0x0040000
Spawn = Callable[[dict, int], dict]


def fix_layout(personality: Optional[Callable[[int], int]] = None) -> bool:
    """Turn address-space randomisation off for every process this one
    execs from now on; ``False`` when the kernel refuses."""
    if personality is None:
        try:
            personality = ctypes.CDLL(None, use_errno=True).personality
        except (OSError, AttributeError):
            return False
    current = personality(0xFFFFFFFF)
    return current != -1 and personality(current | ADDR_NO_RANDOMIZE) != -1


def make_input(out: Path, laptops: int, seed: int) -> Path:
    """Generate the KG and write it as N-Triples (benchmark-side,
    untimed); the program only ever sees this file."""
    path = out / "cache" / f"kg-{laptops}-{seed}.nt"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        graph = synthetic_graph(SyntheticConfig(
            laptops=laptops, companies=COMPANIES, countries=COUNTRIES,
            continents=CONTINENTS, drives_per_laptop_pool=DRIVES, seed=seed))
        partial = path.with_suffix(".partial")
        partial.write_text(serialize(graph), encoding="utf-8")
        partial.replace(path)
    return path


def spawn_trial(spec: dict, index: int) -> dict:
    """One trial in a fresh interpreter; its last stdout line is the result."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "trial", json.dumps(spec)],
        env={**os.environ, "PYTHONHASHSEED": str(index)},
        stdout=subprocess.PIPE, text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def sessions_for(name: str, seconds: int) -> int:
    """The script length: the workload's own (its ≥ 100-step floor) at
    the contract's ``run_seconds``, longer in proportion beyond it."""
    base = WORKLOADS[name].sessions
    return max(base, round(base * seconds / RUN_SECONDS))


def run_workload(name: str, spec: dict, trials: int, traced: bool,
                 spawn: Spawn) -> dict:
    """The untraced trials of one workload (or its one traced trial)."""
    spec = {**spec, "workload": name, "trace": traced}
    # The first trial also runs the costly checks; the others must
    # reproduce its output digest, which carries the verdict over.
    results = [spawn({**spec, "verify": index == 0}, index)
               for index in range(1 if traced else trials)]
    digests = sorted({r["digest"] for r in results})
    out = {
        "steps": results[0]["steps"],
        "attempted": sum(r["steps"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "failures": sorted({f for r in results for f in r["failures"]}),
        "digest": digests[0] if len(digests) == 1 else None,
    }
    out["failed_share"] = out["failed"] / out["attempted"]
    out["host_slowdown"] = [r["host_slowdown"] for r in results]
    if traced:
        out["layers"] = results[0]["layers"]
        return out
    values = end_to_end(results)
    # What each metric would read without one of the trials: how much
    # the value hangs on any single trial (compare's "unresolved" test).
    without = [end_to_end(results[:i] + results[i + 1:]) for i in range(trials)
               ] if trials > 1 else [values]
    out["metrics"] = {
        metric: {"value": values[metric], "unit": unit, "better": better,
                 "bound": bound, "leave_one_out": [w[metric] for w in without]}
        for metric, (unit, better, bound) in END_TO_END.items()
    }
    return out


def report(name: str, result: dict) -> None:
    print(f"\n== {name}: {result['steps']} steps per trial, "
          f"failed_share {result['failed_share']:.4f}, "
          f"output_digest {result['digest']}")
    print("   host ran at " + " ".join(f"{s:.2f}" for s in result["host_slowdown"])
          + " × the reference kernel's quiet time (divided out below)")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")
    for metric, m in result.get("metrics", {}).items():
        without = " ".join(f"{v:.4g}" for v in m["leave_one_out"])
        print(f"   {metric:<14}{m['value']:>12.4f} {m['unit']:<4} "
              f"spread {compare.spread(m):6.1%}  leave-one-out [{without}]")
    for metric, value in result.get("layers", {}).items():
        if value:
            print(f"   {metric:<48}{value:>16.4f} {LAYER_UNITS[metric]}")


def contract_line(result: dict) -> str:
    """The one JSON object a single-workload run ends with."""
    if "layers" in result:
        metrics = {metric: {"value": value, "unit": LAYER_UNITS[metric]}
                   for metric, value in result["layers"].items()}
    else:
        metrics = {metric: {"value": m["value"], "unit": m["unit"]}
                   for metric, m in result["metrics"].items()}
    return json.dumps({
        "correct": result["failed"] == 0 and result["digest"] is not None,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv: Optional[Sequence[str]] = None, spawn: Spawn = spawn_trial,
         personality: Optional[Callable[[int], int]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    if argv[:1] == ["trial"]:
        print(json.dumps(run_trial(json.loads(argv[1]))))
        return 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--laptops", type=int, default=LAPTOPS)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--sessions", type=int,
                        help="scripted sessions per pass (smoke test only)")
    parser.add_argument("--out", type=Path, default=ROOT / "perf" / "out")
    args = parser.parse_args(argv)

    fixed = fix_layout(personality)
    trials = args.trials or (3 if fixed else 5)
    kg = make_input(args.out, args.laptops, args.seed)
    spec = {"seed": args.seed, "kg": str(kg), "out": str(args.out)}

    def one(name: str, traced: bool) -> dict:
        sessions = args.sessions or sessions_for(name, args.seconds)
        result = run_workload(name, {**spec, "sessions": sessions}, trials,
                              traced, spawn)
        report(name, result)
        return result

    if args.workload:
        result = one(args.workload, bool(args.trace))
        print(contract_line(result))
        return 0

    document = {
        "version": 1, "seed": args.seed, "laptops": args.laptops,
        "trials": trials, "layout_randomised": not fixed,
        # which end-to-end metric each per-layer metric should move
        "per_layer": {metric: {"unit": unit, "better": better, "moves": moves}
                      for metric, unit, better, moves in LAYER_METRICS},
        "workloads": {},
    }
    for name in WORKLOADS:
        document["workloads"][name] = one(name, traced=False)
    for name in WORKLOADS:
        traced = one(name, traced=True)
        entry = document["workloads"][name]
        entry["layers"] = traced["layers"]
        entry["traced_failed"] = traced["failed"]
        if traced["digest"] != entry["digest"]:
            entry["digest"] = None
    path = args.out / "result.json"
    path.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"\nwrote {path}")
    bad = [name for name, entry in document["workloads"].items()
           if entry["failed"] or entry["traced_failed"] or entry["digest"] is None]
    if bad:
        print("NOT CORRECT: " + ", ".join(bad))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
