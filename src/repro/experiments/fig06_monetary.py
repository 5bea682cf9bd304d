"""Fig 6: monetary cost of BHJ vs SMJ over varying resources in Hive.

Serverless dollar costs of the Fig 3 sweeps. "Again, we see that either
of SMJ and BHJ could be cost effective based on the available resources.
Interestingly, while the switching points remain the same, the absolute
values of monetary value change very differently." (At a fixed
configuration, dollars are time x memory, so the winner flips exactly
where the time winner flips -- but the *gap* and the cheapest
configuration move.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.cluster.pricing import PriceModel
from repro.core.monetary import MonetaryComparison, monetary_cost_curve
from repro.engine.profiles import EngineProfile, HIVE_PROFILE
from repro.experiments import workload
from repro.experiments.claims import EXACT, Claim, Figure, Table


@dataclass(frozen=True)
class MonetaryResult:
    """Both Fig 6 sweeps as dollar-cost comparisons."""

    container_size_sweep: Tuple[MonetaryComparison, ...]
    container_count_sweep: Tuple[MonetaryComparison, ...]


def run(
    profile: EngineProfile = HIVE_PROFILE,
    price_model: PriceModel = PriceModel(),
) -> MonetaryResult:
    """Price both Fig 3 sweeps."""
    size_sweep = tuple(
        monetary_cost_curve(
            workload.ORDERS_LARGE_GB,
            workload.LINEITEM_GB,
            workload.container_size_configs(),
            profile,
            price_model,
        )
    )
    count_sweep = tuple(
        monetary_cost_curve(
            workload.ORDERS_SMALL_GB,
            workload.LINEITEM_GB,
            workload.container_count_configs(),
            profile,
            price_model,
        )
    )
    return MonetaryResult(
        container_size_sweep=size_sweep,
        container_count_sweep=count_sweep,
    )


def _cheaper_implementations(result: MonetaryResult) -> int:
    """How many implementations are the cheaper one somewhere."""
    return len(
        {
            p.cheaper
            for p in result.container_size_sweep
            + result.container_count_sweep
            if math.isfinite(p.bhj_dollars)
        }
    )


FIGURE = Figure(
    "fig06",
    run,
    tables=(
        Table(
            "Fig 6(a): monetary cost over container size "
            f"(orders={workload.ORDERS_LARGE_GB} GB, nc=10)",
            ("container size (GB)", "SMJ ($)", "BHJ ($)", "cheaper"),
            lambda r: [
                (
                    p.config.container_gb,
                    p.smj_dollars,
                    p.bhj_dollars,
                    str(p.cheaper),
                )
                for p in r.container_size_sweep
            ],
        ),
        Table(
            "Fig 6(b): monetary cost over #containers "
            f"(orders={workload.ORDERS_SMALL_GB} GB, cs=3 GB)",
            ("#containers", "SMJ ($)", "BHJ ($)", "cheaper"),
            lambda r: [
                (
                    p.config.num_containers,
                    p.smj_dollars,
                    p.bhj_dollars,
                    str(p.cheaper),
                )
                for p in r.container_count_sweep
            ],
        ),
    ),
    claims=(
        Claim(
            "fig06.cheaper_implementations",
            "implementations that are the cheaper one somewhere", "both",
            _cheaper_implementations, "==", 2, EXACT,
        ),
    ),
)
