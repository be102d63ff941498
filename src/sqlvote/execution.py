"""Sandboxed SQL execution and outcome canonicalization.

Statements run on a read-only, query-only SQLite connection with a
wall-clock deadline and a row cap; all failures come back as classified
outcomes, never exceptions. A caller may pass one connection from
`connect_readonly` for many statements (a voting pool does); otherwise each
statement opens and closes its own. Success outcomes reduce to stable keys so
voting and evaluation can compare result sets across candidates.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import sqlite3
import time
from dataclasses import dataclass
from enum import Enum

from .catalog import DatabaseCatalog

DEFAULT_TIMEOUT = 5.0
MAX_ROWS = 100_000  # larger results are TOO_LARGE errors, bounding result memory
_PROGRESS_GRANULARITY = 500  # VM steps between deadline checks

# Operations a candidate statement is never allowed to perform; everything
# else is still write-blocked by mode=ro + query_only.
_DENIED_ACTIONS = [
    name
    for name in (
        "SQLITE_ATTACH", "SQLITE_DETACH", "SQLITE_PRAGMA",
        "SQLITE_INSERT", "SQLITE_UPDATE", "SQLITE_DELETE",
        "SQLITE_CREATE_INDEX", "SQLITE_CREATE_TABLE", "SQLITE_CREATE_TRIGGER",
        "SQLITE_CREATE_VIEW", "SQLITE_CREATE_TEMP_INDEX", "SQLITE_CREATE_TEMP_TABLE",
        "SQLITE_CREATE_TEMP_TRIGGER", "SQLITE_CREATE_TEMP_VIEW", "SQLITE_CREATE_VTABLE",
        "SQLITE_DROP_INDEX", "SQLITE_DROP_TABLE", "SQLITE_DROP_TRIGGER",
        "SQLITE_DROP_VIEW", "SQLITE_DROP_TEMP_INDEX", "SQLITE_DROP_TEMP_TABLE",
        "SQLITE_DROP_TEMP_TRIGGER", "SQLITE_DROP_TEMP_VIEW", "SQLITE_DROP_VTABLE",
        "SQLITE_ALTER_TABLE", "SQLITE_REINDEX",
    )
    if hasattr(sqlite3, name)
]
_DENIED_CODES = {getattr(sqlite3, name) for name in _DENIED_ACTIONS}

_SYNTAX_MARKERS = ("syntax error", "unrecognized token", "incomplete input")

# First keywords that always signal write intent; rejected before execution so
# even no-op forms (e.g. DROP TABLE IF EXISTS on a missing table) fail.
_WRITE_VERBS = frozenset(
    "insert update delete replace drop create alter vacuum reindex attach detach "
    "pragma analyze begin commit rollback savepoint release end".split()
)
# The first word after any leading comments; a hidden BEGIN would otherwise
# leave a pool's shared connection inside a transaction.
_FIRST_WORD = re.compile(r"(?:\s|--[^\n]*(?:\n|$)|/\*(?:[^*]|\*(?!/))*(?:\*/|$))*([A-Za-z]+)")


class ErrorKind(str, Enum):
    SYNTAX = "syntax"
    RUNTIME = "runtime"
    TIMEOUT = "timeout"
    EMPTY_SQL = "empty_sql"
    TOO_LARGE = "too_large"


@dataclass(frozen=True)
class ExecutionOutcome:
    kind: str  # "success" or "error"
    rows: tuple[tuple, ...] | None = None
    error_kind: ErrorKind | None = None
    elapsed: float = 0.0
    detail: str = ""

    @property
    def is_success(self) -> bool:
        return self.kind == "success"

    @staticmethod
    def success(rows: list[tuple], elapsed: float) -> "ExecutionOutcome":
        return ExecutionOutcome("success", tuple(tuple(r) for r in rows), None, elapsed)

    @staticmethod
    def error(error_kind: ErrorKind, elapsed: float = 0.0, detail: str = "") -> "ExecutionOutcome":
        return ExecutionOutcome("error", None, error_kind, elapsed, detail)


@dataclass(frozen=True)
class OutcomeKey:
    key: str


def _scan_unquoted(sql: str):
    """Yield (index, char, depth) for chars outside literals, quoted identifiers and comments.

    Skipped spans: '...' strings, "..." / `...` / [...] identifiers, -- line
    comments (up to the newline) and /* */ block comments; an unterminated
    span runs to the end of the text.
    """
    depth = 0
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in "'\"`":
            quote = ch
            i += 1
            while i < n:
                if sql[i] == quote:
                    if i + 1 < n and sql[i + 1] == quote:  # doubled-quote escape
                        i += 2
                        continue
                    break
                i += 1
            i += 1
            continue
        if ch == "[":
            end = sql.find("]", i + 1)
            i = n if end == -1 else end + 1
            continue
        if ch == "-" and sql.startswith("-", i + 1):
            end = sql.find("\n", i + 2)
            i = n if end == -1 else end
            continue
        if ch == "/" and sql.startswith("*", i + 1):
            end = sql.find("*/", i + 2)
            i = n if end == -1 else end + 2
            continue
        if ch == "(":
            yield i, ch, depth
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
            yield i, ch, depth
        else:
            yield i, ch, depth
        i += 1


def extract_sql(completion_text: str, prefix_select: bool = False) -> str:
    """Pull a single SQL statement out of a raw completion.

    Strips code fences, trims whitespace, and cuts at the first semicolon
    outside literals, quoted identifiers and comments. `prefix_select`
    restores the SELECT that the baseline design keeps in the prompt itself.
    """
    text = completion_text
    if "```" in text:
        start = text.index("```") + 3
        end = text.find("```", start)
        body = text[start:] if end == -1 else text[start:end]
        first_line, _, rest = body.partition("\n")
        if first_line.strip().isalpha():  # language tag like ``sql``
            body = rest
        text = body
    text = text.strip()
    for i, ch, _ in _scan_unquoted(text):
        if ch == ";":
            text = text[:i].strip()
            break
    if not text:
        return ""
    if prefix_select and not text.lower().startswith("select"):
        text = "SELECT " + text
    return text


def is_order_sensitive(sql: str) -> bool:
    """True iff the statement has a top-level ORDER BY outside literals and comments."""
    top = [" "] * len(sql)
    for i, ch, depth in _scan_unquoted(sql):
        if depth == 0 and ch not in "()":
            top[i] = ch
    return re.search(r"\border\s+by\b", "".join(top), re.IGNORECASE) is not None


def _classify_error(exc: Exception, timed_out: bool) -> tuple[ErrorKind, str]:
    message = str(exc)
    if timed_out and "interrupt" in message.lower():
        return ErrorKind.TIMEOUT, message
    if isinstance(exc, sqlite3.OperationalError):
        lowered = message.lower()
        if any(marker in lowered for marker in _SYNTAX_MARKERS):
            return ErrorKind.SYNTAX, message
    return ErrorKind.RUNTIME, message


def _authorize(action, *_):
    return sqlite3.SQLITE_DENY if action in _DENIED_CODES else sqlite3.SQLITE_OK


def connect_readonly(catalog: DatabaseCatalog) -> sqlite3.Connection:
    """Open the catalog's database for untrusted statements.

    The file is opened read-only, the connection is set query-only, and
    schema/attach/pragma/write operations are denied by an authorizer.
    Raises sqlite3.Error when the database cannot be opened. The caller
    closes the connection; keep it no longer than the file stays unchanged.
    """
    conn = sqlite3.connect(f"file:{catalog.db_path}?mode=ro", uri=True)
    try:
        conn.text_factory = lambda b: b.decode("utf-8", "replace")
        conn.execute("PRAGMA query_only = ON")
        conn.set_authorizer(_authorize)
    except sqlite3.Error:
        conn.close()
        raise
    return conn


def execute(
    sql: str,
    catalog: DatabaseCatalog,
    timeout: float = DEFAULT_TIMEOUT,
    conn: sqlite3.Connection | None = None,
) -> ExecutionOutcome:
    """Run one statement read-only against the catalog's database.

    `conn`, when given, must come from `connect_readonly(catalog)` and stays
    open; without it the statement gets its own connection. The database
    file is never modified. The deadline counts from this call; results
    over MAX_ROWS rows are TOO_LARGE errors. All failures are encoded in the
    outcome.
    """
    start = time.monotonic()
    statement = sql.strip()
    if not statement:
        return ExecutionOutcome.error(ErrorKind.EMPTY_SQL)
    first = _FIRST_WORD.match(statement)
    if first and first.group(1).lower() in _WRITE_VERBS:
        return ExecutionOutcome.error(
            ErrorKind.RUNTIME, time.monotonic() - start, "write statements are not allowed"
        )
    if conn is not None:
        return _run(conn, statement, start, timeout)
    try:
        conn = connect_readonly(catalog)
    except sqlite3.Error as exc:
        return ExecutionOutcome.error(ErrorKind.RUNTIME, time.monotonic() - start, str(exc))
    try:
        return _run(conn, statement, start, timeout)
    finally:
        conn.close()


def _run(conn: sqlite3.Connection, statement: str, start: float, timeout: float) -> ExecutionOutcome:
    deadline = start + timeout
    timed_out = False

    def _progress():
        nonlocal timed_out
        if time.monotonic() > deadline:
            timed_out = True
            return 1
        return 0

    conn.set_progress_handler(_progress, _PROGRESS_GRANULARITY)
    cursor = conn.cursor()
    try:
        cursor.execute(statement)
        rows = cursor.fetchmany(MAX_ROWS + 1)  # builds the list row by row, stops at the cap
    except (sqlite3.Error, sqlite3.Warning) as exc:
        kind, detail = _classify_error(exc, timed_out)
        return ExecutionOutcome.error(kind, time.monotonic() - start, detail)
    finally:
        cursor.close()
    if len(rows) > MAX_ROWS:
        return ExecutionOutcome.error(
            ErrorKind.TOO_LARGE, time.monotonic() - start, f"result exceeds {MAX_ROWS} rows"
        )
    return ExecutionOutcome.success(rows, time.monotonic() - start)


def _canonical_scalar(value) -> object:
    if value is None:
        return None
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, (int, float)):
        v = float(value)
        if not math.isfinite(v):
            return f"n:{v}"
        v = round(v, 6)
        if v == 0:
            v = 0.0
        return f"n:{v:.6f}"
    if isinstance(value, bytes):
        return f"b:{value.hex()}"
    return f"t:{value}"


def canonical_key(outcome: ExecutionOutcome, order_sensitive: bool) -> OutcomeKey | None:
    """Stable key for a success outcome; None for errors.

    Numbers unify across int/float at 1e-6 rounding, text stays verbatim,
    NULL is its own token. Order-insensitive keys compare rows as multisets.
    """
    if not outcome.is_success:
        return None
    serialized = [
        json.dumps([_canonical_scalar(v) for v in row], ensure_ascii=False, separators=(",", ":"))
        for row in outcome.rows or ()
    ]
    if not order_sensitive:
        serialized.sort()
    digest = hashlib.sha256("\n".join(serialized).encode("utf-8")).hexdigest()
    return OutcomeKey(digest)
