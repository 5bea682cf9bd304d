"""The paper's claims, every figure and every kind.

Each figure's driver runs once under pytest-benchmark
(``test_figure``), prints the figure's declared tables and claims, and
records each measured value in ``extra_info``. ``test_claim`` then
checks one claim against that cached result, so one failing claim masks
no other. A claim with a ``deviation`` is one the reproduction is known
not to meet yet; it is a strict xfail, so the bench fails once it holds
and the mark must go with the fix.

Run with ``pytest benchmarks/bench_claims.py --benchmark-disable`` (all
figures, ~25-40 s on 2 cores) or ``-k fig03`` for one figure.
"""

import importlib

import pytest
from _bench_utils import run_once

from repro.cli import FIGURE_MODULES
from repro.experiments.claims import render

FIGURES = [
    importlib.import_module(path).FIGURE for path in FIGURE_MODULES.values()
]

_results = {}


def _result(figure):
    if figure.name not in _results:
        _results[figure.name] = figure.run()
    return _results[figure.name]


@pytest.mark.parametrize("figure", FIGURES, ids=lambda f: f.name)
def test_figure(benchmark, figure):
    result = run_once(benchmark, figure.run)
    _results[figure.name] = result
    print()
    print(render(figure, result))
    for claim in figure.claims:
        benchmark.extra_info[claim.key] = claim.measure(result)


@pytest.mark.parametrize(
    "figure, claim",
    [
        pytest.param(
            figure,
            claim,
            id=claim.key,
            marks=[pytest.mark.xfail(strict=True, reason=claim.deviation)]
            if claim.deviation
            else [],
        )
        for figure in FIGURES
        for claim in figure.claims
    ],
)
def test_claim(figure, claim):
    value = claim.measure(_result(figure))
    assert claim.holds(value), (
        f"{claim.key}: measured {value}, claim {claim.describe_bound()}"
    )
