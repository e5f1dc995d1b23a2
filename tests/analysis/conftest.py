"""Shared helpers for the repro-lint test suite."""

import textwrap
import time
from typing import NamedTuple

import pytest

from repro.analysis import Analyzer, all_rules
from repro.analysis.callgraph import Project
from repro.analysis.core import FileContext, LintReport
from tests.analysis.test_lint_clean_support import REPO_ROOT, SRC_REPRO


class FullScan(NamedTuple):
    analyzer: Analyzer
    report: LintReport
    seconds: float


@pytest.fixture(scope="session")
def full_repo_scan() -> FullScan:
    """One timed, uncached scan of ``src/repro`` with every rule,
    shared by the lint gate and the budget test so tier-1 pays for the
    full-repo scan once."""
    analyzer = Analyzer(root=REPO_ROOT)
    started = time.perf_counter()
    report = analyzer.run([SRC_REPRO])
    return FullScan(analyzer, report, time.perf_counter() - started)


def lint(source: str, rule: str | None = None,
         rel_path: str = "src/repro/pkg/mod.py") -> list:
    """Run the analyzer over a synthetic source string.

    ``rule`` restricts the run to one rule (the per-rule unit tests);
    None runs the full registry (the integration-style tests).
    """
    rules = all_rules()
    if rule is not None:
        rules = [r for r in rules if r.name == rule]
        assert rules, f"unknown rule {rule!r}"
    analyzer = Analyzer(rules=rules)
    return analyzer.check_source(textwrap.dedent(source), rel_path)


def project_of(files: dict[str, str]) -> Project:
    """Build a :class:`Project` from ``rel_path -> source`` pairs."""
    contexts = [FileContext.parse(textwrap.dedent(source), rel_path)
                for rel_path, source in files.items()]
    return Project(contexts)


def lint_project(files: dict[str, str], rule: str, tmp_path) -> list:
    """End-to-end analyzer run over synthetic files on disk, restricted
    to one project rule (exercises the pragma/suppression path)."""
    for rel_path, source in files.items():
        target = tmp_path / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source), encoding="utf-8")
    rules = [r for r in all_rules() if r.name == rule]
    assert rules, f"unknown rule {rule!r}"
    analyzer = Analyzer(rules=rules, root=tmp_path)
    return analyzer.run([tmp_path]).findings
