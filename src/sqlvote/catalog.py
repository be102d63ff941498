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
    """One column: original-cased name, type word, global manifest ordinal."""

    name: str
    data_type: ColumnType
    ordinal: int

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


def _check_key_ref(db_id: str, tables: tuple[TableSchema, ...], ref: KeyRef, raw_index: int) -> None:
    t, c = ref
    if t < 0 or t >= len(tables) or c < 0 or c >= len(tables[t].columns):
        raise KeyIndexOutOfRange(db_id, raw_index)


def _resolve_global_column(
    db_id: str,
    spans: list[tuple[int, int]],
    global_index: int,
) -> KeyRef:
    """Map a Spider global column index (with '*' at 0) to (table, column)."""
    for t, (start, end) in enumerate(spans):
        if start <= global_index < end:
            return (t, global_index - start)
    raise KeyIndexOutOfRange(db_id, global_index)


def _catalog_from_entry(entry: dict, db_dir: Path) -> DatabaseCatalog:
    try:
        db_id = entry["db_id"]
        table_names = entry["table_names_original"]
        column_names = entry["column_names_original"]
        column_types = entry["column_types"]
        raw_pks = entry.get("primary_keys", [])
        raw_fks = entry.get("foreign_keys", [])
    except (KeyError, TypeError) as exc:
        raise MalformedManifest(f"missing field {exc}") from exc
    if len(column_names) != len(column_types):
        raise MalformedManifest(f"{db_id}: column name/type length mismatch")

    per_table: list[list[ColumnSchema]] = [[] for _ in table_names]
    spans: list[tuple[int, int]] = [(0, 0)] * len(table_names)
    for ordinal, ((tab_idx, col_name), col_type) in enumerate(zip(column_names, column_types)):
        if tab_idx == -1:  # the '*' pseudo-column
            continue
        if tab_idx < 0 or tab_idx >= len(table_names):
            raise MalformedManifest(f"{db_id}: column '{col_name}' cites table {tab_idx}")
        per_table[tab_idx].append(ColumnSchema(col_name, ColumnType.from_string(col_type), ordinal))

    # Global indices are contiguous per table in the Spider layout.
    tables: list[TableSchema] = []
    for name, cols in zip(table_names, per_table):
        tables.append(TableSchema(name, tuple(cols)))
        if cols:
            spans[len(tables) - 1] = (cols[0].ordinal, cols[-1].ordinal + 1)
    tables_t = tuple(tables)

    lowered = [t.name.lower() for t in tables_t]
    if len(set(lowered)) != len(lowered):
        raise MalformedManifest(f"{db_id}: duplicate table name")

    pks: list[KeyRef] = []
    for raw in raw_pks:
        for idx in raw if isinstance(raw, list) else [raw]:
            ref = _resolve_global_column(db_id, spans, idx)
            _check_key_ref(db_id, tables_t, ref, idx)
            pks.append(ref)
    fks: list[ForeignKey] = []
    for pair in raw_fks:
        try:
            child_raw, parent_raw = pair
        except (TypeError, ValueError) as exc:
            raise MalformedManifest(f"{db_id}: bad foreign key entry {pair!r}") from exc
        child = _resolve_global_column(db_id, spans, child_raw)
        parent = _resolve_global_column(db_id, spans, parent_raw)
        _check_key_ref(db_id, tables_t, child, child_raw)
        _check_key_ref(db_id, tables_t, parent, parent_raw)
        fks.append((child, parent))

    db_path = db_dir / db_id / f"{db_id}.sqlite"
    if not db_path.is_file():
        raise MissingDbFile(db_id, str(db_path))
    return DatabaseCatalog(db_id, tables_t, tuple(pks), tuple(fks), db_path)


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
    return [_catalog_from_entry(entry, db_dir) for entry in entries]


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
        question = record.get("question")
        if not question:
            raise MalformedDataset(f"record {pos} missing question")
        db_id = record.get("db_id")
        if not db_id:
            raise MalformedDataset(f"record {pos} missing db_id")
        if known is not None and db_id not in known:
            raise UnknownDbId(db_id)
        example_id = str(record.get("example_id") or f"{pos:06d}")
        examples.append(ExampleItem(example_id, question, record.get("query"), db_id))
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
        ordinal = 1
        for t, name in enumerate(names):
            cols = []
            info = conn.execute(f"PRAGMA table_info({quote_identifier(name)})")
            for _, col_name, decl_type, _, _, pk in info:
                cols.append(ColumnSchema(col_name, _affinity_type(decl_type), ordinal))
                if pk:
                    pks.append((t, len(cols) - 1))
                ordinal += 1
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
