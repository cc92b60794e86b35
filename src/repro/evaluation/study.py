"""Simulated task-based user study (§8.1, Figs 8.1/8.2).

The dissertation ran the eight tasks with two user cohorts (with and
without an IT background) and reports, per task, the completion
percentage and the mean 1–5 ease-of-use rating; overall both were high,
with harder tasks (paths, nesting) scoring somewhat lower, and the IT
cohort slightly ahead.

We regenerate that *shape* with a seeded stochastic model: each
simulated user attempts each task; the success probability and rating
decrease with task difficulty, increase with user expertise, and carry
individual noise.  The defaults are calibrated so totals land in the
high-80s/low-90s completion and ≈4/5 rating the paper reports.  (See
DESIGN.md, *Substitutions* — this replaces human participants, which a
code reproduction cannot have.)
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.evaluation.tasks import EVALUATION_TASKS, Task


@dataclass(frozen=True)
class CohortConfig:
    """One user cohort: size and expertise level (0..1)."""

    name: str
    size: int
    expertise: float

    def __post_init__(self):
        if not 0.0 <= self.expertise <= 1.0:
            raise ValueError("expertise must be within [0, 1]")
        if self.size <= 0:
            raise ValueError("cohort size must be positive")


#: The paper's two cohorts: 10 users each, with/without IT background.
DEFAULT_COHORTS = (
    CohortConfig("IT background", 10, 0.85),
    CohortConfig("no IT background", 10, 0.55),
)


@dataclass(frozen=True)
class TaskOutcome:
    """Aggregated outcome of one task across all users of a cohort."""

    task_id: str
    cohort: str
    attempts: int
    completions: int
    mean_rating: float

    @property
    def completion_rate(self) -> float:
        return self.completions / self.attempts if self.attempts else 0.0


@dataclass
class StudyResult:
    """The full study outcome, with the Fig. 8.1/8.2 aggregations."""

    outcomes: List[TaskOutcome]
    tasks: Tuple[Task, ...]

    def per_task(self) -> List[Tuple[str, float, float]]:
        """Fig. 8.1 rows: (task, completion %, mean rating), cohorts merged."""
        rows = []
        for task in self.tasks:
            task_outcomes = [o for o in self.outcomes if o.task_id == task.task_id]
            attempts = sum(o.attempts for o in task_outcomes)
            completions = sum(o.completions for o in task_outcomes)
            rating = sum(o.mean_rating * o.attempts for o in task_outcomes) / attempts
            rows.append((task.task_id, 100.0 * completions / attempts, rating))
        return rows

    def per_cohort_task(self, cohort: str) -> List[Tuple[str, float, float]]:
        rows = []
        for task in self.tasks:
            for outcome in self.outcomes:
                if outcome.task_id == task.task_id and outcome.cohort == cohort:
                    rows.append(
                        (task.task_id, 100.0 * outcome.completion_rate,
                         outcome.mean_rating)
                    )
        return rows

    def totals(self) -> Tuple[float, float]:
        """Fig. 8.2: (total completion %, total mean rating)."""
        attempts = sum(o.attempts for o in self.outcomes)
        completions = sum(o.completions for o in self.outcomes)
        rating = sum(o.mean_rating * o.attempts for o in self.outcomes) / attempts
        return (100.0 * completions / attempts, rating)


def run_user_study(
    cohorts: Sequence[CohortConfig] = DEFAULT_COHORTS,
    tasks: Sequence[Task] = EVALUATION_TASKS,
    seed: int = 2023,
) -> StudyResult:
    """Simulate the study: every user of every cohort attempts every task.

    Model: ``P(success) = clamp(0.72 + 0.35·expertise − 0.05·(difficulty−1)
    + noise)``; the rating of a successful attempt is
    ``5 − 0.30·(difficulty−1) + 0.8·(expertise−0.5) + noise`` clamped to
    [1, 5]; failures rate 1–3.  All draws come from one seeded RNG, so
    results are exactly reproducible.
    """
    rng = random.Random(seed)
    outcomes: List[TaskOutcome] = []
    for cohort in cohorts:
        for task in tasks:
            completions = 0
            ratings: List[float] = []
            for _user in range(cohort.size):
                individual = rng.gauss(0.0, 0.06)
                p_success = _clamp(
                    0.72
                    + 0.35 * cohort.expertise
                    - 0.05 * (task.difficulty - 1)
                    + individual,
                    0.05,
                    1.0,
                )
                succeeded = rng.random() < p_success
                if succeeded:
                    completions += 1
                    rating = (
                        5.0
                        - 0.30 * (task.difficulty - 1)
                        + 0.8 * (cohort.expertise - 0.5)
                        + rng.gauss(0.0, 0.25)
                    )
                else:
                    rating = 2.0 + rng.random()
                ratings.append(_clamp(rating, 1.0, 5.0))
            outcomes.append(
                TaskOutcome(
                    task_id=task.task_id,
                    cohort=cohort.name,
                    attempts=cohort.size,
                    completions=completions,
                    mean_rating=sum(ratings) / len(ratings),
                )
            )
    return StudyResult(outcomes=outcomes, tasks=tuple(tasks))


def _clamp(value: float, low: float, high: float) -> float:
    return max(low, min(high, value))
