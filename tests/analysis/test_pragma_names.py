"""Every ``# repro-lint: disable=`` pragma names a registered rule.

The engine matches pragma names against findings and nothing else, so
a pragma naming a retired or misspelt rule silences nothing and says
nothing: the exemption it documents is gone without a trace.  This
check reads the comments (not strings) of every scanned tree.
"""

import tokenize
from pathlib import Path

from repro.analysis import all_rules
from repro.analysis.core import PRAGMA
from tests.analysis.test_lint_clean_support import REPO_ROOT

SCANNED = ("src", "benchmarks", "examples", "tests/analysis/fixtures")


def unknown_pragma_names(paths: list[Path]) -> list[str]:
    """``path:line: name`` for each pragma name that is neither a
    registered rule nor ``all``."""
    known = {rule.name for rule in all_rules()} | {"all"}
    unknown = []
    for path in paths:
        with tokenize.open(path) as handle:
            for token in tokenize.generate_tokens(handle.readline):
                if token.type != tokenize.COMMENT:
                    continue
                match = PRAGMA.search(token.string)
                if match is None:
                    continue
                for name in match.group(1).split(","):
                    name = name.strip()
                    if name and name not in known:
                        unknown.append(f"{path}:{token.start[0]}: {name}")
    return unknown


def test_every_pragma_names_a_registered_rule():
    paths = [path for top in SCANNED
             for path in sorted((REPO_ROOT / top).rglob("*.py"))]
    assert len(paths) > 100
    assert unknown_pragma_names(paths) == []


def test_retired_name_is_reported(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        'x = "# repro-lint: disable=in-a-string-is-not-a-pragma"\n'
        "y = 1  # repro-lint: disable=wall-clock, stale-read-across-rpc\n"
        "z = 2  # repro-lint: disable=all\n")
    assert unknown_pragma_names([source]) == [
        f"{source}:2: stale-read-across-rpc"]
