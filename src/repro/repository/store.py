"""A small JSON-backed keyed table.

All four site-repository databases (paper section 2: user-accounts,
resource-performance, task-performance, task-constraints) persist through
this primitive: an in-memory dict of JSON-serialisable records with
optional save/load to disk, standing in for the paper's "web-based
repository" storage.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path
from typing import Any, Callable, TypeVar

from repro.util.errors import NotRegisteredError, RepositoryError

_R = TypeVar("_R")


class Table:
    """Keyed records with JSON persistence.

    Keys are strings (composite keys are joined with ``"|"`` by callers);
    values must be JSON-serialisable.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._rows: dict[str, Any] = {}

    # -- CRUD ---------------------------------------------------------------
    def put(self, key: str, value: Any) -> None:
        """Insert or replace a record."""
        self._rows[key] = value

    def get(self, key: str) -> Any:
        """Fetch a record; raises NotRegisteredError when missing."""
        try:
            return self._rows[key]
        except KeyError:
            raise NotRegisteredError(
                f"{self.name}: no record for key {key!r}") from None

    def get_or(self, key: str, default: Any = None) -> Any:
        """Fetch a record or return *default*."""
        return self._rows.get(key, default)

    def delete(self, key: str) -> None:
        """Remove a record; raises when missing."""
        if key not in self._rows:
            raise NotRegisteredError(
                f"{self.name}: cannot delete missing key {key!r}")
        del self._rows[key]

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def keys(self) -> list[str]:
        """All record keys."""
        return list(self._rows)

    def items(self) -> list[tuple[str, Any]]:
        """All (key, record) pairs."""
        return list(self._rows.items())

    # -- persistence ---------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the table to *path* as JSON."""
        path = Path(path)
        try:
            payload = json.dumps({"table": self.name, "rows": self._rows},
                                 indent=2, sort_keys=True)
        except TypeError as exc:
            raise RepositoryError(
                f"{self.name}: non-JSON-serialisable record: {exc}") from exc
        path.write_text(payload)

    @classmethod
    def load(cls, path: str | Path) -> "Table":
        path = Path(path)
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise RepositoryError(f"cannot load table from {path}: {exc}") from exc
        if not isinstance(doc, dict) or "table" not in doc or "rows" not in doc:
            raise RepositoryError(f"{path} is not a saved table")
        table = cls(doc["table"])
        table._rows = dict(require_object(doc["rows"], path, "section 'rows'"))
        return table


def composite_key(*parts: str) -> str:
    """Join key components; components may not contain the separator."""
    for p in parts:
        if "|" in p:
            raise RepositoryError(f"key component {p!r} contains '|'")
    return "|".join(parts)


def require_object(value: Any, path: str | Path,
                   where: str) -> dict[str, Any]:
    """*value* when it is a JSON object; else a :class:`RepositoryError`
    naming the file and *where* in it (a section or a row)."""
    if not isinstance(value, dict):
        raise RepositoryError(f"{path}: {where} is not an object")
    return value


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: a record field's annotation -> whether a JSON value fits it (JSON
#: writes whole floats as ints, so a float field takes an int; no
#: number field takes a bool)
_FIELD_CHECKS: dict[str, Callable[[Any], bool]] = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": _is_number,
    "float | None": lambda v: v is None or _is_number(v),
    "list[float]": lambda v: isinstance(v, list)
    and all(_is_number(x) for x in v),
}


def record_from_row(factory: Callable[..., _R], row: Any,
                    path: str | Path, key: str) -> _R:
    """Build one record from a saved row, naming the bad row and field.

    *factory* is the record class; the row must be an object holding
    every field the class requires, no field it lacks, and each value of
    its field's type.
    """
    require_object(row, path, f"row {key!r}")
    params = inspect.signature(factory).parameters
    for name, value in row.items():
        param = params.get(name)
        if param is None:
            raise RepositoryError(
                f"{path}: row {key!r} has unknown field {name!r}")
        if not _FIELD_CHECKS[param.annotation](value):
            raise RepositoryError(
                f"{path}: row {key!r} field {name!r} is not "
                f"{param.annotation}: {value!r}")
    for name, param in params.items():
        if param.default is param.empty and name not in row:
            raise RepositoryError(
                f"{path}: row {key!r} is missing field {name!r}")
    return factory(**row)
