"""Relations: schemas plus row storage for the mini relational engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator


@dataclass(frozen=True)
class Schema:
    """Ordered column names.

    Examples
    --------
    >>> s = Schema(("a", "b"))
    >>> s.index("b")
    1
    >>> s.merge(Schema(("b", "c"))).columns
    ('a', 'b', 'c')
    """

    columns: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise ValueError(f"duplicate column names in {self.columns}")

    def index(self, column: str) -> int:
        """Position of ``column``; raises KeyError if absent."""
        try:
            return self.columns.index(column)
        except ValueError:
            raise KeyError(f"no column {column!r} in {self.columns}") from None

    def __contains__(self, column: str) -> bool:
        return column in self.columns

    def merge(self, other: "Schema") -> "Schema":
        """Union schema for a join output (shared names collapse)."""
        merged = list(self.columns)
        for column in other.columns:
            if column not in merged:
                merged.append(column)
        return Schema(tuple(merged))


class Relation:
    """A named, schema-carrying bag of tuples.

    Rows are plain tuples aligned with the schema; dict access goes
    through :meth:`row_value`.
    """

    def __init__(
        self, name: str, schema: Schema, rows: Iterable[tuple] | None = None
    ) -> None:
        self.name = name
        self.schema = schema
        self.rows: list[tuple] = [tuple(r) for r in (rows or [])]
        for row in self.rows:
            if len(row) != len(schema.columns):
                raise ValueError(
                    f"row arity {len(row)} != schema arity {len(schema.columns)}"
                )

    @classmethod
    def from_dicts(cls, name: str, records: list[dict[str, Any]]) -> "Relation":
        """Build a relation from dict records (column order = first record)."""
        if not records:
            raise ValueError("from_dicts needs at least one record")
        schema = Schema(tuple(records[0].keys()))
        rows = [tuple(rec[c] for c in schema.columns) for rec in records]
        return cls(name, schema, rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def row_value(self, row: tuple, column: str) -> Any:
        """Value of ``column`` in ``row``."""
        return row[self.schema.index(column)]

    def column(self, column: str) -> list[Any]:
        """All values of one column."""
        idx = self.schema.index(column)
        return [row[idx] for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Relation({self.name!r}, {len(self.rows)} rows)"
