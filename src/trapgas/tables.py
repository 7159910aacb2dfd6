"""Rectangular sweep results serialized as deterministic CSV.

Dialect: comma separator, '.' decimal point, scientific notation with nine
significant digits (round-trips binary64 closely while staying
diff-friendly).  Metadata rides in leading '#' comment lines and carries a
fixed tool version, never a timestamp, so identical invocations produce
byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from .errors import DomainError

FLOAT_FMT = "%.8e"


def meta(**extra: object) -> dict[str, str]:
    """Header metadata: the tool version, then ``extra`` in keyword order."""
    return {"tool": f"trapgas {__version__}", **{k: str(v) for k, v in extra.items()}}


def format_cell(value) -> str:
    if value is None:
        return ""
    return FLOAT_FMT % float(value)


@dataclass
class SweepTable:
    columns: list[str]
    metadata: dict[str, str] = field(default_factory=dict)
    rows: list[list] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise DomainError("column names must be unique")
        if not self.columns:
            raise DomainError("a sweep table needs at least one column")

    def add_row(self, *values) -> None:
        if len(values) != len(self.columns):
            raise DomainError(
                f"row has {len(values)} cells for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def to_csv(self) -> str:
        lines = [f"# {key}={value}" for key, value in self.metadata.items()]
        lines.append(",".join(self.columns))
        for row in self.rows:
            lines.append(",".join(format_cell(v) for v in row))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> Path:
        path = Path(path)
        path.write_text(self.to_csv(), encoding="ascii", newline="\n")
        return path
