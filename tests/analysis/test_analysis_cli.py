"""Exit-code contract and output formats of the linter front ends.

Covers ``repro.analysis.cli.main`` in-process, one real
``python -m repro.analysis`` subprocess, the ``repro lint`` subcommand,
and the meta-test that the live ``src/`` tree is lint-clean.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import run_analysis
from repro.analysis.cli import main as lint_main
from repro.cli import main as repro_main

BAD_SOURCE = """\
import random


def pick(items):
    return random.choice(items)
"""

CLEAN_SOURCE = """\
import numpy as np


def pick(items: list, rng: np.random.Generator) -> object:
    index = int(rng.integers(len(items)))
    return items[index]
"""


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(BAD_SOURCE)
    return path


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN_SOURCE)
    return path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, clean_file, capsys):
        assert lint_main([str(clean_file)]) == 0
        assert "invariants clean: 0 findings" in capsys.readouterr().out

    def test_findings_exit_one_with_file_line_output(
        self, bad_file, capsys
    ):
        assert lint_main([str(bad_file)]) == 1
        out = capsys.readouterr().out
        # pick() is unannotated (x2) and draws from the global RNG.
        assert f"{bad_file}:5:" in out
        assert "RAQO001" in out
        assert "RAQO008" in out
        assert "3 finding(s)" in out

    def test_unknown_rule_selector_exits_two(self, clean_file, capsys):
        assert lint_main(["--rule", "RAQO999", str(clean_file)]) == 2
        assert "error:" in capsys.readouterr().out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().out


class TestOutputModes:
    def test_list_rules_prints_the_catalog(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for index in range(1, 9):
            assert f"RAQO00{index}" in out
        assert "scope:" in out  # scoped rules advertise their roots

    def test_json_format_is_machine_readable(self, bad_file, capsys):
        assert lint_main(["--format", "json", str(bad_file)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {entry["rule_id"] for entry in payload} == {
            "RAQO001",
            "RAQO008",
        }
        assert all(
            entry["path"] == str(bad_file) and entry["line"] >= 1
            for entry in payload
        )

    def test_rule_filter_limits_findings(self, bad_file, capsys):
        assert lint_main(["--rule", "RAQO001", str(bad_file)]) == 1
        out = capsys.readouterr().out
        assert "RAQO001" in out
        assert "RAQO008" not in out

    def test_no_suppress_reveals_pragmad_findings(self, tmp_path, capsys):
        path = tmp_path / "hushed.py"
        path.write_text(
            "CACHE = {}  # lint: disable=RAQO005\n"
        )
        assert lint_main([str(path)]) == 0
        capsys.readouterr()
        assert lint_main(["--no-suppress", str(path)]) == 1
        assert "RAQO005" in capsys.readouterr().out


class TestRuleSelectorErrors:
    def test_typo_gets_a_did_you_mean_hint(self, clean_file, capsys):
        assert lint_main(["--rule", "RAQO10", str(clean_file)]) == 2
        out = capsys.readouterr().out
        assert "did you mean RAQO010?" in out

    def test_error_lists_every_valid_selector(self, clean_file, capsys):
        assert lint_main(["--rule", "bogus", str(clean_file)]) == 2
        out = capsys.readouterr().out
        assert "Valid selectors:" in out
        # RAQO009 retired with the positional-axis shims; RAQO011,
        # RAQO013 and RAQO014 with the whole-program call graph.
        retired = (9, 11, 13, 14)
        for index in range(1, 16):
            if index in retired:
                assert f"RAQO{index:03d}" not in out
                continue
            assert f"RAQO{index:03d}" in out
        assert "RAQO012/unverified-lock-guard" in out


class TestEntryPoints:
    def test_python_dash_m_repro_analysis(self, bad_file, repo_root):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo_root / "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(bad_file)],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(bad_file.parent),
        )
        assert result.returncode == 1
        assert "RAQO001" in result.stdout

    def test_repro_lint_subcommand(self, clean_file, bad_file, capsys):
        assert repro_main(["lint", str(clean_file)]) == 0
        capsys.readouterr()
        assert repro_main(["lint", str(bad_file)]) == 1
        assert "RAQO001" in capsys.readouterr().out

    def test_repro_lint_forwards_the_new_flags(self, bad_file, capsys):
        argv = ["--format", "json", "--rule", "RAQO001", str(bad_file)]
        assert repro_main(["lint", *argv]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {entry["rule_id"] for entry in payload} == {"RAQO001"}

    @pytest.mark.parametrize("flag", ["--sarif=out.sarif", "--graph"])
    def test_retired_flags_exit_two_on_both_entry_points(
        self, flag, clean_file, capsys
    ):
        for entry in (lint_main, lambda argv: repro_main(["lint", *argv])):
            with pytest.raises(SystemExit) as excinfo:
                entry([flag, str(clean_file)])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


class TestLiveTree:
    def test_src_tree_is_lint_clean(self, repo_root):
        """The shipped source must satisfy its own invariants."""
        findings = run_analysis([repo_root / "src"])
        rendered = "\n".join(f.render() for f in findings)
        assert findings == [], f"src/ violates its invariants:\n{rendered}"
