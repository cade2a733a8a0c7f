"""The shared finding vocabulary for every static checker.

Each checker in :mod:`repro.analysis` — the C-subset dataflow checks,
the static concurrency analysis, and the assembler lint — reports
:class:`Finding` records rather than raising, so one program can carry
many diagnostics and the CLI can render them uniformly.  The severity
split mirrors the course's tooling: ``error`` for defects that corrupt a
run (Valgrind-grade), ``warning`` for code-quality findings a compiler
``-Wall`` would show.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace

SEVERITIES = ("error", "warning")

#: every finding kind the subsystem can emit, with its default severity
KINDS: dict[str, str] = {
    # C-subset dataflow checks (checks.py)
    "parse-error": "error",
    "uninitialized-read": "error",
    "dead-store": "warning",
    "unreachable-code": "warning",
    "const-oob-index": "error",
    "const-div-zero": "error",
    "missing-return": "warning",
    # static concurrency (concurrency.py)
    "race-candidate": "error",
    "lock-order-cycle": "error",
    "lock-order-violation": "warning",
    # assembler lint (asmlint.py)
    "asm-syntax": "error",
    "asm-unknown-mnemonic": "error",
    "asm-arity": "error",
    "asm-duplicate-label": "error",
    "asm-undefined-label": "error",
    "asm-immediate-dest": "error",
    "asm-two-memory": "error",
    "asm-address-operand": "error",
    "asm-instruction-in-data": "error",
    "asm-data-in-text": "error",
    "asm-unreachable": "warning",
    "asm-self-move": "warning",
    "asm-dead-store": "warning",
}


@dataclass(frozen=True)
class Finding:
    """One static-analysis diagnostic, anchored to a source line."""
    kind: str
    severity: str
    function: str          # enclosing function/thread body ('' if none)
    line: int              # 1-based source line (0 if unknown)
    message: str
    path: str = ""         # source file, filled in by the CLI driver

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.kind, self.message)

    def __str__(self) -> str:
        where = f"{self.path}:{self.line}" if self.path else f"line {self.line}"
        scope = f" (in {self.function})" if self.function else ""
        return f"{where}: {self.severity}: [{self.kind}] {self.message}{scope}"


def finding(kind: str, function: str, line: int, message: str,
            *, path: str = "", severity: str | None = None) -> Finding:
    """Build a :class:`Finding` with the kind's default severity."""
    return Finding(kind, severity or KINDS.get(kind, "error"),
                   function, line, message, path)


def with_path(findings: list[Finding], path: str) -> list[Finding]:
    """Stamp ``path`` onto findings that don't carry one yet."""
    return [replace(f, path=path) if not f.path else f for f in findings]


def render_text(findings: list[Finding]) -> str:
    """One diagnostic per line, sorted by (path, line), plus a summary."""
    ordered = sorted(findings, key=Finding.sort_key)
    lines = [str(f) for f in ordered]
    errors = sum(1 for f in ordered if f.severity == "error")
    warnings = len(ordered) - errors
    lines.append(f"{len(ordered)} finding(s): "
                 f"{errors} error(s), {warnings} warning(s)")
    return "\n".join(lines)


def render_json(findings: list[Finding]) -> str:
    """A JSON array of finding dicts (stable field order, sorted)."""
    ordered = sorted(findings, key=Finding.sort_key)
    return json.dumps([asdict(f) for f in ordered], indent=1)


@dataclass
class FileReport:
    """Findings for one analyzed file (what the CLI accumulates)."""
    path: str
    findings: list[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings
