"""Small shared helpers used across subsystems."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.errors import ReproError


def is_power_of_two(n: int) -> bool:
    """True iff ``n`` is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def log2_exact(n: int) -> int:
    """Return ``k`` such that ``2**k == n``; raise ValueError otherwise."""
    if not is_power_of_two(n):
        raise ValueError(f"{n} is not a power of two")
    return n.bit_length() - 1


def mask(width: int) -> int:
    """Bit mask of ``width`` low bits (``mask(8) == 0xFF``)."""
    if width < 0:
        raise ValueError("width must be non-negative")
    return (1 << width) - 1


def read_source(path: str | Path) -> str:
    """A source file's text, decoded as UTF-8 whatever the locale; a
    file that is not UTF-8 raises a :class:`ReproError` naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ReproError(f"{path} is not UTF-8 text (byte "
                         f"{exc.object[exc.start]:#04x} at offset "
                         f"{exc.start})") from None


def chunked(seq: Sequence, size: int) -> Iterator[Sequence]:
    """Yield consecutive slices of ``seq`` of at most ``size`` elements."""
    if size <= 0:
        raise ValueError("chunk size must be positive")
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 *, align_right: Sequence[bool] | None = None) -> str:
    """Render a plain-text table, the format every bench harness prints.

    ``align_right[i]`` right-justifies column *i* (defaults to left for
    strings and is typically set for numeric columns by callers).
    """
    str_rows = [[str(c) for c in row] for row in rows]
    cols = len(headers)
    for r in str_rows:
        if len(r) != cols:
            raise ValueError("row width does not match headers")
    widths = [len(h) for h in headers]
    for r in str_rows:
        for i, cell in enumerate(r):
            widths[i] = max(widths[i], len(cell))
    if align_right is None:
        align_right = [False] * cols

    def fmt(cells: Sequence[str]) -> str:
        out = []
        for i, cell in enumerate(cells):
            out.append(cell.rjust(widths[i]) if align_right[i] else cell.ljust(widths[i]))
        return "  ".join(out).rstrip()

    lines = [fmt(headers), "  ".join("-" * w for w in widths)]
    lines.extend(fmt(r) for r in str_rows)
    return "\n".join(lines)
