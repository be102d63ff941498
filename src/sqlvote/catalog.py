"""Database catalogs (schema, keys, db file handle) and evaluation examples.

Loads the Spider on-disk layout: a ``tables.json``-style manifest describing
every database, a ``dev.json``-style list of (question, gold SQL, db_id)
records, and one SQLite file per database under ``db_dir/<db_id>/<db_id>.sqlite``.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import (
    DbUnreadable,
    KeyIndexOutOfRange,
    MalformedDataset,
    MalformedManifest,
    MissingDbFile,
    UnknownDbId,
)


class ColumnType(str, Enum):
    NUMBER = "number"
    TEXT = "text"
    TIME = "time"
    BOOLEAN = "boolean"
    OTHERS = "others"

    @classmethod
    def from_string(cls, raw: str) -> "ColumnType":
        try:
            return cls(raw.lower())
        except ValueError:
            return cls.OTHERS


@dataclass(frozen=True)
class ColumnSchema:
    """One column: original-cased name and type word."""

    name: str
    data_type: ColumnType

    def __post_init__(self):
        if not self.name:
            raise MalformedManifest("empty column name")


@dataclass(frozen=True)
class TableSchema:
    name: str
    columns: tuple[ColumnSchema, ...]

    def __post_init__(self):
        if not self.name:
            raise MalformedManifest("empty table name")
        if not self.columns:
            raise MalformedManifest(f"table '{self.name}' has no columns")
        lowered = [c.name.lower() for c in self.columns]
        if len(set(lowered)) != len(lowered):
            raise MalformedManifest(f"duplicate column name in table '{self.name}'")

    def column_index(self, name: str) -> int:
        lowered = name.lower()
        for i, col in enumerate(self.columns):
            if col.name.lower() == lowered:
                return i
        raise KeyError(name)


# (table index, column index within table)
KeyRef = tuple[int, int]
# ((child table, child column), (parent table, parent column))
ForeignKey = tuple[KeyRef, KeyRef]


@dataclass(frozen=True)
class DatabaseCatalog:
    db_id: str
    tables: tuple[TableSchema, ...]
    primary_keys: tuple[KeyRef, ...]
    foreign_keys: tuple[ForeignKey, ...]
    db_path: Path

    def column(self, ref: KeyRef) -> ColumnSchema:
        return self.tables[ref[0]].columns[ref[1]]


@dataclass(frozen=True)
class ExampleItem:
    example_id: str
    question: str
    gold_sql: str | None
    db_id: str

    def __post_init__(self):
        if not self.question:
            raise MalformedDataset(f"example {self.example_id} has empty question")


def quote_identifier(name: str) -> str:
    """`name` as an SQL identifier: in double quotes, each `"` in it doubled."""
    return '"' + name.replace('"', '""') + '"'


def _catalog_from_entry(entry: dict, db_dir: Path) -> DatabaseCatalog:
    db_id = entry["db_id"]
    table_names = entry["table_names_original"]
    column_names = entry["column_names_original"]
    column_types = entry["column_types"]
    if len(column_names) != len(column_types):
        raise MalformedManifest(f"{db_id}: column name/type length mismatch")

    per_table: list[list[ColumnSchema]] = [[] for _ in table_names]
    refs: dict[int, KeyRef] = {}  # manifest column index -> (table, column); '*' is index 0
    for index, ((tab_idx, col_name), col_type) in enumerate(zip(column_names, column_types)):
        if tab_idx == -1:  # the '*' pseudo-column
            continue
        if type(tab_idx) is not int or not 0 <= tab_idx < len(table_names):
            raise MalformedManifest(f"{db_id}: column '{col_name}' cites table {tab_idx!r}")
        refs[index] = (tab_idx, len(per_table[tab_idx]))
        per_table[tab_idx].append(ColumnSchema(col_name, ColumnType.from_string(col_type)))
    tables = tuple(TableSchema(name, tuple(cols)) for name, cols in zip(table_names, per_table))

    lowered = [t.name.lower() for t in tables]
    if len(set(lowered)) != len(lowered):
        raise MalformedManifest(f"{db_id}: duplicate table name")

    def ref(index: int) -> KeyRef:
        if type(index) is not int:
            raise MalformedManifest(f"{db_id}: key column index {index!r} is not an integer")
        if index not in refs:
            raise KeyIndexOutOfRange(db_id, index)
        return refs[index]

    raw_pks = entry.get("primary_keys", [])  # an index, or a list of them for a composite key
    pks = tuple(ref(index) for raw in raw_pks for index in (raw if isinstance(raw, list) else [raw]))
    fks = tuple((ref(child), ref(parent)) for child, parent in entry.get("foreign_keys", []))

    db_path = db_dir / db_id / f"{db_id}.sqlite"
    if not db_path.is_file():
        raise MissingDbFile(db_id, str(db_path))
    return DatabaseCatalog(db_id, tables, pks, fks, db_path)


def load_catalogs(manifest_path: Path | str, db_dir: Path | str) -> list[DatabaseCatalog]:
    """Load one catalog per manifest entry, in manifest order."""
    manifest_path = Path(manifest_path)
    db_dir = Path(db_dir)
    try:
        entries = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8 or JSON, or nested too deep
        raise MalformedManifest(str(exc)) from exc
    if not isinstance(entries, list):
        raise MalformedManifest("manifest root is not a list")
    # One guard for every field: a missing field or a wrong type anywhere is a MalformedManifest.
    try:
        return [_catalog_from_entry(entry, db_dir) for entry in entries]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise MalformedManifest(f"{type(exc).__name__}: {exc}") from exc


def load_examples(
    dataset_path: Path | str,
    catalogs: list[DatabaseCatalog] | None = None,
) -> list[ExampleItem]:
    """Load dataset records in file order; cross-check db ids when catalogs given."""
    dataset_path = Path(dataset_path)
    try:
        records = json.loads(dataset_path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:  # not UTF-8 or JSON, or nested too deep
        raise MalformedDataset(str(exc)) from exc
    if not isinstance(records, list):
        raise MalformedDataset("dataset root is not a list")
    known = {c.db_id for c in catalogs} if catalogs is not None else None

    examples: list[ExampleItem] = []
    for pos, record in enumerate(records):
        if not isinstance(record, dict):
            raise MalformedDataset(f"record {pos} is not an object")
        question, db_id, query = record.get("question"), record.get("db_id"), record.get("query")
        if not question:
            raise MalformedDataset(f"record {pos} missing question")
        if not db_id:
            raise MalformedDataset(f"record {pos} missing db_id")
        if not all(isinstance(value, str) for value in (question, db_id, "" if query is None else query)):
            raise MalformedDataset(f"record {pos}: question, db_id and query must be strings")
        if known is not None and db_id not in known:
            raise UnknownDbId(db_id)
        example_id = str(record.get("example_id") or f"{pos:06d}")
        examples.append(ExampleItem(example_id, question, query, db_id))
    return examples


def catalog_from_sqlite(db_path: Path | str, db_id: str) -> DatabaseCatalog:
    """Build a catalog by introspecting a SQLite file (PRAGMA metadata).

    Opened here, not by `execution.connect_readonly`: its authorizer denies PRAGMA.
    """
    db_path = Path(db_path)
    if not db_path.is_file():
        raise MissingDbFile(db_id, str(db_path))
    conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    try:
        names = [
            row[0]
            for row in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table' "
                "AND name NOT LIKE 'sqlite_%' ORDER BY rowid"
            )
        ]
        tables: list[TableSchema] = []
        pks: list[KeyRef] = []
        for t, name in enumerate(names):
            cols = []
            info = conn.execute(f"PRAGMA table_info({quote_identifier(name)})")
            for _, col_name, decl_type, _, _, pk in info:
                cols.append(ColumnSchema(col_name, _affinity_type(decl_type)))
                if pk:
                    pks.append((t, len(cols) - 1))
            tables.append(TableSchema(name, tuple(cols)))
        index = {t.name.lower(): i for i, t in enumerate(tables)}
        fks: list[ForeignKey] = []
        for t, table in enumerate(tables):
            for row in conn.execute(f"PRAGMA foreign_key_list({quote_identifier(table.name)})"):
                _, _, parent_table, child_col, parent_col = row[0], row[1], row[2], row[3], row[4]
                p = index.get(str(parent_table).lower())
                if p is None or child_col is None or parent_col is None:
                    continue
                try:
                    fks.append(((t, table.column_index(child_col)), (p, tables[p].column_index(parent_col))))
                except KeyError:
                    continue
    except sqlite3.Error as exc:  # e.g. a file that is not SQLite, found on the first read
        raise DbUnreadable(str(db_path), str(exc)) from exc
    finally:
        conn.close()
    return DatabaseCatalog(db_id, tuple(tables), tuple(pks), tuple(fks), db_path)


def _affinity_type(decl_type: str | None) -> ColumnType:
    decl = (decl_type or "").lower()
    if any(tok in decl for tok in ("int", "real", "floa", "doub", "num", "dec")):
        return ColumnType.NUMBER
    if any(tok in decl for tok in ("char", "text", "clob", "var")):
        return ColumnType.TEXT
    if any(tok in decl for tok in ("date", "time")):
        return ColumnType.TIME
    if "bool" in decl:
        return ColumnType.BOOLEAN
    return ColumnType.OTHERS
