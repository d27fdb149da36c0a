"""Doc-sync gates: the docs must list exactly what the code registers.

Two contracts:

* every metric in the live registry has a row in the
  ``docs/OBSERVABILITY.md`` catalogue table (and no stale rows linger);
* every lint rule in ``ALL_RULES`` (plus the REP000 meta diagnostic) has
  a row in the ``docs/LINTING.md`` catalogue table, and vice versa;
* every place that quotes the rule-id range (``repro lint`` help,
  ``python -m repro.devtools.lint --help``, ``docs/README.md``) quotes
  the first and last registered ids.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import obs
from repro.cli import build_parser
from repro.devtools.lint import ALL_RULES
from repro.devtools.lint import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_observability_doc_lists_every_registered_metric():
    from repro.obs import instruments  # noqa: F401  (import registers)

    doc = (REPO_ROOT / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
    catalogue = doc.split("## Metric catalogue", 1)[1].split("\n## ", 1)[0]
    documented = set(
        re.findall(r"^\| `([a-z_.]+)` \|", catalogue, flags=re.MULTILINE)
    )
    registered = set(obs.REGISTRY.names())

    missing = registered - documented
    stale = documented - registered
    assert not missing, f"metrics missing from docs/OBSERVABILITY.md: {sorted(missing)}"
    assert not stale, f"stale metric rows in docs/OBSERVABILITY.md: {sorted(stale)}"


def test_linting_doc_lists_every_lint_rule():
    doc = (REPO_ROOT / "docs" / "LINTING.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"^\| (REP\d{3}) \|", doc, flags=re.MULTILINE))
    registered = {rule.id for rule in ALL_RULES} | {"REP000"}

    missing = registered - documented
    stale = documented - registered
    assert not missing, f"rules missing from docs/LINTING.md: {sorted(missing)}"
    assert not stale, f"stale rule rows in docs/LINTING.md: {sorted(stale)}"


def test_linting_doc_examples_match_rule_registry():
    """The per-rule sections carry each rule's summary verbatim."""
    doc = (REPO_ROOT / "docs" / "LINTING.md").read_text(encoding="utf-8")
    headings = set(
        re.findall(r"^### (REP\d{3}) —", doc, flags=re.MULTILINE)
    )
    registered = {rule.id for rule in ALL_RULES}
    missing = registered - headings
    assert not missing, f"rules without a detail section: {sorted(missing)}"


def test_sarif_help_uris_anchor_into_linting_doc():
    """Every SARIF helpUri must land on a real LINTING.md heading.

    ``rule_help_uri`` slugs ``### REPNNN — summary``; the anchor only
    resolves if the doc heading carries the rule's summary *verbatim*,
    so that stronger property is what this asserts.
    """
    from repro.devtools.report import LINT_DOC_URI, rule_help_uri

    doc = (REPO_ROOT / "docs" / "LINTING.md").read_text(encoding="utf-8")
    for rule_cls in ALL_RULES:
        rule = rule_cls()
        heading = f"### {rule.id} — {rule.summary}"
        assert heading in doc, (
            f"docs/LINTING.md heading for {rule.id} does not match the "
            f"rule summary verbatim; expected {heading!r}"
        )
        uri = rule_help_uri(rule)
        assert uri.startswith(f"{LINT_DOC_URI}#rep"), uri


def test_linting_doc_describes_memory_contracts():
    """REP605/REP606 lean on the decorator protocol; the doc must keep
    the 'Memory contracts' section that defines it."""
    doc = (REPO_ROOT / "docs" / "LINTING.md").read_text(encoding="utf-8")
    assert "## Memory contracts" in doc
    for token in ("@bounded_memory", "@audited_in_ram", "O(chunk + n)"):
        assert token in doc, f"memory-contracts section lost {token!r}"


def _rule_id_bounds() -> tuple[str, str]:
    ids = sorted(rule.id for rule in ALL_RULES)
    return ids[0], ids[-1]


def test_rule_id_range_quoted_everywhere(capsys):
    first, last = _rule_id_bounds()

    cli_help = build_parser().format_help()
    assert f"(rules {first}-{last})" in cli_help

    with pytest.raises(SystemExit):
        lint_main(["--help"])
    assert f"(rules {first}-{last})" in capsys.readouterr().out

    index = (REPO_ROOT / "docs" / "README.md").read_text(encoding="utf-8")
    assert f"rule catalogue {first}–{last}" in index
