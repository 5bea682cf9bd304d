"""Physical-unit NewTypes for the cost and resource models.

The paper's cost model mixes four measurement scales -- data sizes in
gigabytes, predicted times in seconds, cardinalities in rows, and
cluster capacity in containers (plus derived monetary rates for the
cloud-cost discussion).  Plain ``float`` erases the distinction, so a
transposed ``predict(large, small, ...)`` call or a ``seconds + gb``
sum type-checks and silently corrupts plans.

These ``NewType`` wrappers restore the distinction at zero runtime
cost.  They are mypy annotations: mypy rejects passing a bare float,
or another unit, where ``GB`` is expected.  Arithmetic erases them
(``Seconds + GB`` is a plain ``float``), so constructor calls are the
sanctioned cast points::

    elapsed = Seconds(raw_measurement)   # explicit entry

Derived quantities (``GB / Seconds`` throughput, ``GB * Seconds``
memory-time integrals) need no dedicated NewType, but the two common
ones are named below for signature readability.
"""

from __future__ import annotations

from typing import NewType

#: Wall-clock or predicted execution time, in seconds.
Seconds = NewType("Seconds", float)

#: Data volume, in gigabytes (the paper's relation-size unit).
GB = NewType("GB", float)

#: Relation cardinality, in rows.
Rows = NewType("Rows", float)

#: Monetary cost, in dollars.
Dollars = NewType("Dollars", float)

#: Cluster capacity, in container slots.
Containers = NewType("Containers", int)

#: Cloud price rate (dollars per hour of a container).
DollarsPerHour = NewType("DollarsPerHour", float)

#: Memory-time integral (the YARN-style resource-seconds charge unit).
GBSeconds = NewType("GBSeconds", float)

__all__ = [
    "Containers",
    "Dollars",
    "DollarsPerHour",
    "GB",
    "GBSeconds",
    "Rows",
    "Seconds",
]
