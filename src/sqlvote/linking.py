"""Question-relevant cell value selection for prompt construction.

Scans text-typed columns of the question's database and keeps the values
whose longest-common-substring overlap with the question clears a threshold,
so prompts carry only content the question actually mentions.

Each database file is scanned once per process: its distinct text values and
their lowercased forms stay in memory, keyed by the file's path, and are read
again only when the file's stat signature (`execution.db_signature`) changes.
The scan also keeps each lowered value's core: the middle characters that
every window `could_match` accepts covers. A question tests each value's core
with one substring search, calls `could_match` only for the values whose core
it holds, and scores only the values that pass.
"""

from __future__ import annotations

import sqlite3
import threading
from dataclasses import dataclass
from difflib import SequenceMatcher
from functools import lru_cache

from .catalog import ColumnType, DatabaseCatalog, quote_identifier
from .execution import connect_readonly, db_signature

MATCH_THRESHOLD = 0.85
DEFAULT_MAX_PER_COLUMN = 3
SCAN_CAP = 100_000


@dataclass(frozen=True)
class ValueMatch:
    table_name: str
    column_name: str
    value: str
    score: float


@dataclass(frozen=True)
class _ColumnValues:
    table_name: str
    column_name: str
    values: tuple[str, ...]  # distinct, in row order
    lowered: tuple[str, ...]  # value.lower() at the same positions
    cores: tuple[str, ...]  # low[len(low) - n:n], n = _window(len(low)): each window could_match accepts covers it


# db path -> ((db_signature, text columns), scanned columns)
_scans: dict[str, tuple[tuple, tuple[_ColumnValues, ...]]] = {}
_scans_lock = threading.Lock()


def score_match(question: str, value: str) -> float:
    """Longest common contiguous substring of the lowercased pair, over len(value)."""
    q = question.lower()
    v = value.lower()
    if not q or not v:
        return 0.0
    block = SequenceMatcher(None, q, v, autojunk=False).find_longest_match(0, len(q), 0, len(v))
    return block.size / len(v)


@lru_cache(maxsize=None)
def _window(length: int) -> int:
    """Smallest n with n / length >= MATCH_THRESHOLD, by the division score_match uses."""
    n = 1
    while n / length < MATCH_THRESHOLD:
        n += 1
    return n


def could_match(question_lower: str, value_lower: str) -> bool:
    """Exactly `score_match(question, value) >= MATCH_THRESHOLD`, on lowercased inputs.

    The score reaches the threshold iff the longest common substring has at
    least `_window(len(value))` characters, that is, iff some window of that
    many characters of the value occurs in the question.
    """
    length = len(value_lower)
    if not length:
        return False
    need = _window(length)
    return any(value_lower[i:i + need] in question_lower for i in range(length - need + 1))


def _distinct_column_values(conn: sqlite3.Connection, table: str, column: str, cap: int) -> list[str]:
    """First `cap` distinct non-empty values in row order, rendered as text."""
    seen: dict[str, None] = {}
    cursor = conn.execute(f"SELECT {quote_identifier(column)} FROM {quote_identifier(table)}")
    for (raw,) in cursor:
        if raw is None:
            continue
        value = raw if isinstance(raw, str) else str(raw)
        if not value or value in seen:
            continue
        seen[value] = None
        if len(seen) >= cap:
            break
    return list(seen)


def _scan(catalog: DatabaseCatalog, columns: tuple[tuple[str, str], ...]) -> tuple[_ColumnValues, ...]:
    conn = connect_readonly(catalog)
    scanned = []
    try:
        for table, column in columns:
            try:
                values = _distinct_column_values(conn, table, column, SCAN_CAP)
            except sqlite3.Error:
                continue  # column missing from the file (manifest drift): skip it
            lowered, cores = [], []
            for value in values:
                low = value.lower()
                lowered.append(value if low == value else low)  # share unchanged strings
                need = _window(len(low))
                cores.append(low[len(low) - need:need])
            scanned.append(_ColumnValues(table, column, tuple(values), tuple(lowered), tuple(cores)))
    finally:
        conn.close()
    return tuple(scanned)


def _text_columns(catalog: DatabaseCatalog) -> tuple[_ColumnValues, ...]:
    """The catalog's scanned text columns, from memory unless the file changed."""
    db_path = str(catalog.db_path)
    columns = tuple(
        (table.name, column.name)
        for table in catalog.tables
        for column in table.columns
        if column.data_type is ColumnType.TEXT
    )
    stamp = (db_signature(db_path), columns)
    with _scans_lock:
        entry = _scans.get(db_path)
        if entry is None or entry[0] != stamp:
            entry = (stamp, _scan(catalog, columns))
            _scans[db_path] = entry
    return entry[1]


def link_values(
    question: str,
    catalog: DatabaseCatalog,
    max_per_column: int = DEFAULT_MAX_PER_COLUMN,
) -> list[ValueMatch]:
    """Top matching distinct values per text column, in schema order.

    Per column, matches are ordered by descending score then value; at most
    `max_per_column` are kept and only scores >= MATCH_THRESHOLD qualify.
    """
    q = question.lower()
    matches: list[ValueMatch] = []
    for column in _text_columns(catalog):
        kept = sorted(
            (
                (score_match(question, value), value)
                for value, low, core in zip(column.values, column.lowered, column.cores)
                if core in q and could_match(q, low)
            ),
            key=lambda pair: (-pair[0], pair[1]),
        )[:max_per_column]
        matches.extend(
            ValueMatch(column.table_name, column.column_name, value, score) for score, value in kept
        )
    return matches
