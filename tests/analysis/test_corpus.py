"""The seeded-defect corpus is exactly what the analyzer reports.

Every file under ``examples/buggy/`` annotates each planted defect with
an ``EXPECT: kind`` comment on the offending line; every file under
``examples/c/`` is clean.  The analyzer must report precisely the
annotated (line, kind) pairs — no false positives, no false negatives —
which is the acceptance bar the E13 bench then expresses as
precision/recall.
"""

from pathlib import Path

import pytest

from repro.analysis.cli import analyze_file
from repro.analysis.corpus import expected_findings, reported_findings

REPO = Path(__file__).resolve().parent.parent.parent
BUGGY = sorted((REPO / "examples" / "buggy").glob("*"))
CLEAN = sorted((REPO / "examples" / "c").glob("*"))

EXPECTED_KINDS = {
    "uninitialized-read", "dead-store", "unreachable-code",
    "const-oob-index", "const-div-zero", "missing-return",
    "race-candidate", "lock-order-cycle",
    "asm-unreachable", "asm-arity", "asm-immediate-dest",
    "asm-undefined-label", "asm-duplicate-label",
    "asm-unknown-mnemonic", "asm-self-move", "asm-dead-store",
    "asm-syntax", "asm-two-memory", "asm-address-operand",
    "asm-instruction-in-data", "asm-data-in-text",
}


def test_corpus_is_present():
    assert len(BUGGY) >= 8
    assert len(CLEAN) >= 3


@pytest.mark.parametrize("path", BUGGY, ids=lambda p: p.name)
def test_buggy_file_reports_exactly_the_annotations(path):
    expected = expected_findings(path.read_text())
    assert expected, f"{path.name} has no EXPECT annotations"
    reported = reported_findings(analyze_file(path).findings)
    assert reported == expected


@pytest.mark.parametrize("path", CLEAN, ids=lambda p: p.name)
def test_clean_file_has_zero_findings(path):
    assert expected_findings(path.read_text()) == set()
    assert analyze_file(path).findings == []


def test_corpus_covers_every_planted_kind():
    seen = set()
    for path in BUGGY:
        seen |= {kind for _, kind in expected_findings(path.read_text())}
    assert seen == EXPECTED_KINDS
