"""Fig 1: CDF of the queue-time / execution-time ratio on a shared cluster.

The paper's headline statistics from production Microsoft clusters:
"more than 80% of the jobs spend as much time waiting for resources in
the queue as in the actual job execution. More than 20% of the jobs spend
at least 4 times their execution time waiting."

We regenerate the distribution from the synthetic bursty trace of
:mod:`repro.cluster.trace` driven through the FIFO resource manager.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.cluster.trace import (
    TraceConfig,
    fraction_with_ratio_at_least,
    ratio_cdf,
    simulate_trace,
)
from repro.experiments.claims import EXACT, Claim, Figure, Table

#: CDF fractions reported in the output series.
REPORT_FRACTIONS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95)


@dataclass(frozen=True)
class QueueCdfResult:
    """The Fig 1 series plus the paper's two headline statistics."""

    cdf: Tuple[Tuple[float, float], ...]  # (fraction of jobs, ratio)
    fraction_ratio_ge_1: float
    fraction_ratio_ge_4: float
    num_jobs: int


def run(
    config: TraceConfig = TraceConfig(), seed: int = 7
) -> QueueCdfResult:
    """Simulate the trace and compute the CDF."""
    rng = np.random.default_rng(seed)
    records = simulate_trace(config, rng)
    fractions, ratios = ratio_cdf(records)
    points: List[Tuple[float, float]] = []
    for target in REPORT_FRACTIONS:
        index = min(
            int(round(target * len(ratios))), len(ratios) - 1
        )
        points.append((float(fractions[index]), float(ratios[index])))
    return QueueCdfResult(
        cdf=tuple(points),
        fraction_ratio_ge_1=fraction_with_ratio_at_least(records, 1.0),
        fraction_ratio_ge_4=fraction_with_ratio_at_least(records, 4.0),
        num_jobs=len(records),
    )


FIGURE = Figure(
    "fig01",
    run,
    tables=(
        Table(
            "Fig 1: queue-time/runtime ratio CDF",
            ("fraction of jobs", "queue/runtime ratio"),
            lambda r: [(f"{frac:.2f}", ratio) for frac, ratio in r.cdf],
        ),
    ),
    claims=(
        Claim(
            "fig01.ratio_ge_1", "jobs with queue/runtime >= 1", "> 80%",
            lambda r: r.fraction_ratio_ge_1, ">=", 0.80, EXACT,
        ),
        Claim(
            "fig01.ratio_ge_4", "jobs with queue/runtime >= 4", "> 20%",
            lambda r: r.fraction_ratio_ge_4, ">=", 0.20, EXACT,
        ),
    ),
)
