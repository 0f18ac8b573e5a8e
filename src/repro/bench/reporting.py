"""Shared reporting utilities for the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


def arithmetic_mean(values: Sequence[float]) -> float:
    """Arithmetic mean; infinite values (failed runs) are ignored."""
    finite = [v for v in values if v != float("inf")]
    if not finite:
        return float("inf")
    return sum(finite) / len(finite)


def geometric_mean(values: Sequence[float]) -> float:
    finite = [v for v in values if v != float("inf") and v > 0]
    if not finite:
        return float("inf")
    return math.exp(sum(math.log(v) for v in finite) / len(finite))


def format_runtime(milliseconds: float) -> str:
    """Render a runtime like the paper's tables (ms, 'F' for failed runs)."""
    if milliseconds == float("inf"):
        return "F"
    if milliseconds >= 100:
        return f"{milliseconds:.0f}"
    return f"{milliseconds:.1f}"


@dataclass
class ExperimentReport:
    """Rows of one experiment plus rendering helpers."""

    name: str
    description: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: Any) -> None:
        self.rows.append(values)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def column(self, name: str) -> List[Any]:
        return [row.get(name) for row in self.rows]

    def row_for(self, **match: Any) -> Optional[Dict[str, Any]]:
        """First row whose values match all the given key/value pairs."""
        for row in self.rows:
            if all(row.get(key) == value for key, value in match.items()):
                return row
        return None

    def to_text(self, max_width: int = 28) -> str:
        """Render the report as a fixed-width text table."""

        def render(value: Any) -> str:
            if value is None:
                return ""
            if isinstance(value, float):
                if value == float("inf"):
                    return "F"
                return f"{value:.3g}" if abs(value) < 1000 else f"{value:.0f}"
            return str(value)[:max_width]

        widths = {c: len(c) for c in self.columns}
        rendered_rows = []
        for row in self.rows:
            rendered = {c: render(row.get(c)) for c in self.columns}
            rendered_rows.append(rendered)
            for c in self.columns:
                widths[c] = max(widths[c], len(rendered[c]))
        lines = [f"== {self.name} ==", self.description, ""]
        lines.append(" | ".join(c.ljust(widths[c]) for c in self.columns))
        lines.append("-+-".join("-" * widths[c] for c in self.columns))
        for rendered in rendered_rows:
            lines.append(" | ".join(rendered[c].ljust(widths[c]) for c in self.columns))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.rows)
