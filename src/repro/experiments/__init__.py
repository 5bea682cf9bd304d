"""Experiment drivers: one module per figure of the paper's evaluation.

Each module exposes ``run(...)`` returning a structured result object and
one ``FIGURE`` (:class:`repro.experiments.claims.Figure`) declaring the
tables it prints and the paper claims its result must meet.
``python -m repro figure figNN`` renders that declaration,
``benchmarks/bench_claims.py`` checks every claim, and EXPERIMENTS.md
records paper-vs-measured for every claim of Figs 1-15.

| Module | Paper figure |
|---|---|
| :mod:`repro.experiments.fig01_queue_cdf`       | Fig 1  |
| :mod:`repro.experiments.fig02_potential_gains` | Fig 2  |
| :mod:`repro.experiments.fig03_operator_switch` | Fig 3  |
| :mod:`repro.experiments.fig04_data_switch`     | Fig 4  |
| :mod:`repro.experiments.fig05_join_order`      | Fig 5  |
| :mod:`repro.experiments.fig06_monetary`        | Fig 6  |
| :mod:`repro.experiments.fig07_monetary_switch` | Fig 7  |
| :mod:`repro.experiments.fig08_architecture`    | Fig 8  |
| :mod:`repro.experiments.fig09_switch_space`    | Fig 9  |
| :mod:`repro.experiments.fig10_default_trees`   | Fig 10 |
| :mod:`repro.experiments.fig11_raqo_trees`      | Fig 11 |
| :mod:`repro.experiments.fig12_tpch_planning`   | Fig 12 |
| :mod:`repro.experiments.fig13_hill_climbing`   | Fig 13 |
| :mod:`repro.experiments.fig14_plan_cache`      | Fig 14 |
| :mod:`repro.experiments.fig15_scalability`     | Fig 15 |
| :mod:`repro.experiments.fig16_robustness`      | Fig 16 (extension) |
| :mod:`repro.experiments.fig17_pareto_frontier` | Fig 17 (extension) |

Figs 8, 16 and 17 declare tables and no claims.
"""
