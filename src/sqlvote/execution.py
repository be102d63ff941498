"""Sandboxed SQL execution and outcome canonicalization.

One tokenizer (`_tokens`) reads the SQL text for all three lexical
decisions: where a completion's statement ends (the first `;`), whether it
has a top-level ORDER BY, and whether it starts with a write verb. It knows
string literals, quoted identifiers and comments.

Statements run on a read-only, query-only SQLite connection with a
wall-clock deadline and a row cap; all failures come back as classified
outcomes, never exceptions. A caller may pass one connection from
`connect_readonly` for many statements (a voting pool does); otherwise each
statement opens and closes its own. Success outcomes reduce to stable keys so
voting and evaluation can compare result sets across candidates; both keep
only that key, or the error outcome, never the rows (`KeyOrError`). Keys are
built a column at a time, and each equals the digest of the row-at-a-time
JSON serialization.
"""

from __future__ import annotations

import hashlib
import math
import re
import sqlite3
import time
from dataclasses import dataclass
from enum import Enum
from json.encoder import encode_basestring as _encode_text

from .catalog import DatabaseCatalog
from .errors import DbUnreadable

DEFAULT_TIMEOUT = 5.0
MAX_ROWS = 100_000  # larger results are TOO_LARGE errors, bounding result memory
_PROGRESS_GRANULARITY = 500  # VM steps between deadline checks

# Operations a candidate statement is never allowed to perform; everything
# else is still write-blocked by the read-only open and query_only.
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
# The one SQL tokenizer. Each match is the whitespace and comments before a
# token, then the token; the token is missing only after trailing comments.
_TOKEN = re.compile(
    r"""
    (?: \s+ | --[^\n]* | /\*.*?(?:\*/|\Z) )*
    ( '(?:[^']|'')*'? | "(?:[^"]|"")*"? | `(?:[^`]|``)*`? | \[[^\]]*\]? | \w+ | . )?
    """,
    re.DOTALL | re.VERBOSE,
)
_QUOTES = "'\"`["


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


KeyOrError = OutcomeKey | ExecutionOutcome  # what voting and evaluation keep of a statement


def _tokens(sql: str):
    """Yield (index, text, depth) for each token outside whitespace and comments.

    A token is a '...' string, a "..." / `...` / [...] identifier, a word or
    one other character; doubled quotes escape, and an unterminated literal
    or comment runs to the end of the text. `depth` counts the parentheses
    open before the token; a ")" carries the depth it closes to.
    """
    depth = 0
    for match in _TOKEN.finditer(sql):
        text = match.group(1)
        if text is None:
            continue
        if text == ")":
            depth = max(0, depth - 1)
        yield match.start(1), text, depth
        if text == "(":
            depth += 1


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
    cut = next((i for i, token, _ in _tokens(text) if token == ";"), None)
    if cut is not None:
        text = text[:cut].strip()
    if not text:
        return ""
    if prefix_select and not text.lower().startswith("select"):
        text = "SELECT " + text
    return text


def is_order_sensitive(sql: str) -> bool:
    """True iff the statement has a top-level ORDER BY outside literals and comments.

    Parenthesized spans and quoted tokens between the two words are skipped.
    """
    previous = ""
    for _, token, depth in _tokens(sql):
        if depth or token in "()" or token[0] in _QUOTES:
            continue
        token = token.lower()
        if previous == "order" and token == "by":
            return True
        previous = token
    return False


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
    Reading `sqlite_master` once proves the file is an SQLite database.
    Raises DbUnreadable for any sqlite3.Error. The caller closes the
    connection; keep it no longer than the file stays unchanged.
    """
    try:
        conn = sqlite3.connect(f"file:{catalog.db_path}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        raise DbUnreadable(str(catalog.db_path), str(exc)) from exc
    try:
        conn.text_factory = lambda b: b.decode("utf-8", "replace")
        conn.execute("PRAGMA query_only = ON")
        conn.execute("SELECT count(*) FROM sqlite_master").fetchone()
        conn.set_authorizer(_authorize)
    except sqlite3.Error as exc:
        conn.close()
        raise DbUnreadable(str(catalog.db_path), str(exc)) from exc
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
    # The first token after any comments; a hidden BEGIN would otherwise leave
    # a pool's shared connection inside a transaction. SQLite keywords are ASCII.
    first = next((token for _, token, _ in _tokens(statement)), "")
    if first.isascii() and first.lower() in _WRITE_VERBS:
        return ExecutionOutcome.error(
            ErrorKind.RUNTIME, time.monotonic() - start, "write statements are not allowed"
        )
    if conn is not None:
        return _run(conn, statement, start, timeout)
    try:
        conn = connect_readonly(catalog)
    except DbUnreadable as exc:
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


def _encoded_column(column: tuple) -> list[str]:
    """Each value's canonical scalar as JSON text, as `json.dumps` writes it inside a row.

    A column of exactly `str` or exactly `int` values is mapped in one pass;
    an int's float is integral, so rounding and the -0.0 fold leave it as is.
    Any other column goes value by value through `_canonical_scalar`.
    """
    types = set(map(type, column))
    if types == {str}:
        return list(map(_encode_text, map("t:".__add__, column)))
    if types == {int}:
        return list(map('"n:%.6f"'.__mod__, column))
    return ["null" if s is None else _encode_text(s) for s in map(_canonical_scalar, column)]


def canonical_key(outcome: ExecutionOutcome, order_sensitive: bool) -> OutcomeKey | None:
    """Stable key for a success outcome; None for errors.

    Numbers unify across int/float at 1e-6 rounding, text stays verbatim,
    NULL is its own token. Order-insensitive keys compare rows as multisets.
    The digest covers each row's compact JSON list of canonical scalars, one
    line per row; the lists are built a column at a time.
    """
    if not outcome.is_success:
        return None
    columns = map(_encoded_column, zip(*outcome.rows or ()))
    serialized = ["[" + ",".join(row) + "]" for row in zip(*columns)]
    if not order_sensitive:
        serialized.sort()
    digest = hashlib.sha256("\n".join(serialized).encode("utf-8")).hexdigest()
    return OutcomeKey(digest)
