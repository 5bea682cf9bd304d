"""Tier-1 checks of the paper-claim registry (repro.experiments.claims).

Every ``exact`` and ``shape`` claim is checked on its figure's full,
default run, each figure run once per session. Figs 12 and 15 are timed
sweeps (seconds each), so their claims run only in
``benchmarks/bench_claims.py``; ``test_planning_figures.py`` keeps
reduced-size runs of them. EXPERIMENTS.md's "paper | measured" rows are
checked against the registry: one claim per row, one row per claim of
Figs 1-15, and each ``exact`` claim's measured cell shows the value.
"""

import importlib
import re
from pathlib import Path

import pytest

from repro.cli import FIGURE_MODULES
from repro.experiments.claims import EXACT, SHAPE, TIMING
from repro.experiments.report import format_cell

FIGURES = [
    importlib.import_module(path).FIGURE for path in FIGURE_MODULES.values()
]
CLAIMS = {claim.key: claim for f in FIGURES for claim in f.claims}
TIMED_SWEEPS = {"fig12", "fig15"}
EXPERIMENTS_MD = Path(__file__).parents[2] / "EXPERIMENTS.md"
PAPER_FIGURES = {f"fig{n:02d}" for n in range(1, 16)}

_results = {}


def _result(figure):
    if figure.name not in _results:
        _results[figure.name] = figure.run()
    return _results[figure.name]


def _tier1_claims(kinds):
    return [
        pytest.param(figure, claim, id=claim.key)
        for figure in FIGURES
        if figure.name not in TIMED_SWEEPS
        for claim in figure.claims
        if claim.kind in kinds
    ]


def _experiments_rows():
    """(claim cell, measured cell, whole row) of every "paper |
    measured" table row in EXPERIMENTS.md."""
    rows, in_table = [], False
    for line in EXPERIMENTS_MD.read_text().splitlines():
        if line.startswith("| | paper | measured | claim |"):
            in_table = True
        elif in_table and line.startswith("|") and not line.startswith("|-"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows.append((cells[3], cells[2], line))
        elif not line.startswith("|"):
            in_table = False
    return rows


@pytest.mark.parametrize("figure, claim", _tier1_claims({EXACT, SHAPE}))
def test_claim_holds(figure, claim):
    value = claim.measure(_result(figure))
    assert claim.holds(value), (
        f"{claim.key}: measured {value}, claim {claim.describe_bound()}"
    )


def test_claim_keys_are_unique_and_named_by_figure():
    keys = [claim.key for f in FIGURES for claim in f.claims]
    assert len(keys) == len(set(keys))
    for figure in FIGURES:
        for claim in figure.claims:
            assert claim.key.startswith(f"{figure.name}.")
            assert claim.kind in (EXACT, SHAPE, TIMING)


def test_every_experiments_row_names_one_claim():
    for claim_cell, _, line in _experiments_rows():
        keys = re.findall(r"fig\d\d\.\w+", claim_cell)
        assert len(keys) == 1 and keys[0] in CLAIMS, line


def test_every_paper_claim_has_one_experiments_row():
    named = [
        re.findall(r"fig\d\d\.\w+", cell)[0]
        for cell, _, _ in _experiments_rows()
    ]
    for key in CLAIMS:
        if key.split(".")[0] in PAPER_FIGURES:
            assert named.count(key) == 1, key


@pytest.mark.parametrize("figure, claim", _tier1_claims({EXACT}))
def test_experiments_shows_exact_value(figure, claim):
    (measured_cell,) = [
        measured
        for cell, measured, _ in _experiments_rows()
        if f"`{claim.key}`" in cell
    ]
    value = claim.measure(_result(figure))
    for element in value if isinstance(value, tuple) else (value,):
        assert format_cell(element) in measured_cell, claim.key
