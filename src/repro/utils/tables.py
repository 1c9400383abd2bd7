"""Plain-text table rendering for experiment reports.

The experiment drivers print their reproduced tables and figure series as monospaced
text so that the benchmark harness output can be compared with the paper directly,
without requiring a plotting stack.  :class:`Table` is a tiny column-aligned renderer;
it intentionally supports only what the reports need (headers, float formatting, a
title line) to stay dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence


def _format_cell(value: object, float_format: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        text = format(value, float_format)
        # Round-off that rounds to zero prints unsigned, not as "-0.0000".
        if text.startswith("-") and not any(digit in text for digit in "123456789"):
            return text[1:]
        return text
    return str(value)


@dataclass
class Table:
    """A simple column-aligned text table."""

    headers: Sequence[str]
    rows: list[list[str]] = field(default_factory=list)
    title: str = ""
    float_format: str = ".4f"

    def add_row(self, *values: object) -> None:
        """Append a row; floats are formatted with :attr:`float_format`."""
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells but the table has {len(self.headers)} columns"
            )
        self.rows.append([_format_cell(value, self.float_format) for value in values])

    def render(self) -> str:
        """Render the table as a multi-line string."""
        widths = [len(header) for header in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))

        def render_line(cells: Sequence[str]) -> str:
            return "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells)).rstrip()

        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        lines.append(render_line(list(self.headers)))
        lines.append("  ".join("-" * width for width in widths))
        lines.extend(render_line(row) for row in self.rows)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str = "",
    float_format: str = ".4f",
) -> str:
    """One-shot helper: build and render a :class:`Table`."""
    table = Table(headers=list(headers), title=title, float_format=float_format)
    for row in rows:
        table.add_row(*row)
    return table.render()
