"""Compare two ``result.json`` files of the same benchmark.

One row per (workload, metric): both medians, both per-trial spreads,
and a verdict under the metric's own bound and direction.  A pair whose
spread (how far a value moves when any one trial is left out) exceeds
its bound is *unresolved*, not unchanged — unless every leave-one-out
value of B reads better than every one of A.

Exit status: 0 ok · 1 at least one regression · 2 unusable input or an
``output_digest`` mismatch (the answers drifted, so timings do not
compare).
"""

from __future__ import annotations

import json
import sys
from typing import List, Sequence


def spread(metric: dict) -> float:
    """How far the value moves when any one trial is left out, as a
    share of the value."""
    without = metric["leave_one_out"]
    return (max(without) - min(without)) / metric["value"]


def worse_by(a: float, b: float, better: str) -> float:
    """By what share of ``a`` is ``b`` worse (negative: better)?"""
    change = (b - a) / a if a else 0.0
    return change if better == "lower" else -change


def all_better(a: Sequence[float], b: Sequence[float], better: str) -> bool:
    return max(b) < min(a) if better == "lower" else min(b) > max(a)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    try:
        a, b = (json.load(open(path, encoding="utf-8")) for path in argv)
        for key in ("version", "seed", "laptops"):
            if a[key] != b[key]:
                print(f"unusable: {key} differs ({a[key]} vs {b[key]})")
                return 2
        status, unresolved = 0, 0
        for name, left in a["workloads"].items():
            right = b["workloads"][name]
            if left["digest"] is None or left["digest"] != right["digest"]:
                print(f"{name}: output_digest mismatch")
                return 2
            if right["failed_share"] > left["failed_share"]:
                print(f"{name:<10}failed_share   {left['failed_share']:.4f} → "
                      f"{right['failed_share']:.4f}  REGRESSION")
                status = 1
            for metric, m in left["metrics"].items():
                n = right["metrics"][metric]
                worse = worse_by(m["value"], n["value"], m["better"])
                noisy = max(spread(m), spread(n)) > m["bound"]
                if noisy and not all_better(m["leave_one_out"], n["leave_one_out"],
                                            m["better"]):
                    verdict, unresolved = "unresolved", unresolved + 1
                elif worse > m["bound"]:
                    verdict, status = "REGRESSION", 1
                else:
                    verdict = "ok"
                print(f"{name:<10}{metric:<14}{m['value']:>11.4f} → "
                      f"{n['value']:>11.4f} {m['unit']:<4}{worse:>+8.1%} worse "
                      f"(bound {m['bound']:.0%}; spread {spread(m):.1%} / "
                      f"{spread(n):.1%})  {verdict}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"unusable: {exc!r}")
        return 2
    print(f"{'regression' if status else 'ok'}; {unresolved} pair(s) unresolved")
    return status
