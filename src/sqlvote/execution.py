"""Sandboxed SQL execution and outcome canonicalization.

One tokenizer (`_tokens`) reads the SQL text for all four lexical
decisions: where a completion's statement ends (the first `;`), whether it
has a top-level ORDER BY, what its first token other than `;` is (a write
verb is refused, and a statement of nothing but comments and `;` is
EMPTY_SQL), and where its trailing `;`s begin (they are dropped before it
runs). It knows string literals, quoted identifiers and comments.

Statements run on a read-only, query-only SQLite connection with a
wall-clock deadline, a row cap and a byte budget; all failures come back as
classified outcomes, never exceptions. A caller may pass one connection from
`connect_readonly` for many statements (a voting pool does); otherwise each
statement opens and closes its own.

SQLite builds no string, blob or row longer than MAX_VALUE_BYTES, and rows
are fetched in chunks of which even one full of such values fits in
MAX_RESULT_BYTES. A result over MAX_ROWS rows, or over MAX_RESULT_BYTES
bytes (each value's `marshal` form plus a fixed overhead), is TOO_LARGE, so
a statement never holds much more than three budgets (a chunk's `marshal`
copy included). Text goes through SQLite's own UTF-8 decoder; only a result
holding invalid UTF-8 is fetched again, under the same deadline, with the
lenient decoder `connect_readonly` installs (invalid bytes read as U+FFFD).
Either way the rows are the same.

Success outcomes reduce to stable keys so voting and evaluation can compare
result sets across candidates; both keep only that key, never the rows. Of
an error, voting keeps the kind and evaluation the outcome (`KeyOrError`).
Each column adds one piece to a %-format, chosen once from its value types:
plain text goes in verbatim, ints within ±2**53 as `%d`, other columns
encoded value by value. Each row's line is then one `row_format % row`, and
the digest equals that of the row-at-a-time JSON serialization.
"""

from __future__ import annotations

import hashlib
import marshal
import math
import os
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
MAX_RESULT_BYTES = 64 * 2**20  # so are results over this many bytes, as `_fetch` counts them
MAX_VALUE_BYTES = 2**20  # SQLITE_LIMIT_LENGTH: longer strings, blobs and rows are TOO_LARGE
_PROGRESS_GRANULARITY = 500  # VM steps between deadline checks
_VALUE_OVERHEAD = 64  # bytes a fetched value holds besides its data: object header, tuple slot

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
_DECODE_FAILURE = "Could not decode to UTF-8"  # how the C decoder rejects a text cell

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
    detail: str = ""

    @property
    def is_success(self) -> bool:
        return self.kind == "success"

    @staticmethod
    def success(rows: list[tuple]) -> "ExecutionOutcome":
        return ExecutionOutcome("success", tuple(map(tuple, rows)))

    @staticmethod
    def error(error_kind: ErrorKind, detail: str = "") -> "ExecutionOutcome":
        return ExecutionOutcome("error", None, error_kind, detail)


@dataclass(frozen=True)
class OutcomeKey:
    key: str


KeyOrError = OutcomeKey | ExecutionOutcome  # what evaluation keeps of a statement; it reports a gold error


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
    restores the SELECT that the baseline design keeps in the prompt itself,
    unless the first token is already SELECT. Pool records hold the result:
    a change to what this returns for a text must bump gateway._POOL_FORMAT.
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
    if prefix_select and next((token for _, token, _ in _tokens(text)), "").lower() != "select":
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
    if isinstance(exc, sqlite3.DataError):  # SQLITE_TOOBIG: over MAX_VALUE_BYTES
        return ErrorKind.TOO_LARGE, message
    if isinstance(exc, sqlite3.OperationalError):
        lowered = message.lower()
        if any(marker in lowered for marker in _SYNTAX_MARKERS):
            return ErrorKind.SYNTAX, message
    return ErrorKind.RUNTIME, message


def _authorize(action, *_):
    return sqlite3.SQLITE_DENY if action in _DENIED_CODES else sqlite3.SQLITE_OK


def _decode_leniently(raw: bytes) -> str:
    return raw.decode("utf-8", "replace")


def db_signature(db_path) -> tuple[int, int, int, int, int]:
    """The database file's (device, inode, size, mtime_ns, ctime_ns), which moves when its bytes do.

    A rewrite that restores the mtime still moves the ctime. Raises
    DbUnreadable if the file cannot be stat'ed.
    """
    try:
        st = os.stat(db_path)
    except OSError as exc:
        raise DbUnreadable(str(db_path), str(exc)) from exc
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def connect_readonly(catalog: DatabaseCatalog) -> sqlite3.Connection:
    """Open the catalog's database for untrusted statements.

    The file is opened read-only, the connection is set query-only, and
    schema/attach/pragma/write operations are denied by an authorizer.
    Values longer than MAX_VALUE_BYTES are refused by SQLite itself, and
    text decodes leniently (invalid UTF-8 reads as U+FFFD).
    Reading `sqlite_master` once proves the file is an SQLite database.
    Raises DbUnreadable for any sqlite3.Error. The caller closes the
    connection; keep it no longer than the file stays unchanged.
    """
    try:
        conn = sqlite3.connect(f"file:{catalog.db_path}?mode=ro", uri=True)
    except sqlite3.Error as exc:
        raise DbUnreadable(str(catalog.db_path), str(exc)) from exc
    try:
        conn.setlimit(sqlite3.SQLITE_LIMIT_LENGTH, MAX_VALUE_BYTES)
        conn.text_factory = _decode_leniently
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
    file is never modified. The deadline counts from the statement's start;
    results over MAX_ROWS rows or MAX_RESULT_BYTES bytes, and values over
    MAX_VALUE_BYTES, are TOO_LARGE errors. All failures are encoded in the
    outcome.
    """
    statement = sql.strip()
    # The first token other than `;` after any comments: with none, SQLite runs nothing and succeeds;
    # a hidden BEGIN would leave a pool's shared connection inside a transaction. Keywords are ASCII.
    # The same pass finds where the trailing `;`s start: Python's sqlite3 refuses any tail after
    # a statement's `;` but whitespace and comments, so `SELECT 1;;` runs as `SELECT 1`.
    first = end = None
    for index, token, _ in _tokens(statement):
        if token != ";":
            first, end = first or token, None
        elif end is None:
            end = index
    if first is None:
        return ExecutionOutcome.error(ErrorKind.EMPTY_SQL)
    if first.isascii() and first.lower() in _WRITE_VERBS:
        return ExecutionOutcome.error(ErrorKind.RUNTIME, "write statements are not allowed")
    statement = statement[:end]
    if conn is not None:
        return _run(conn, statement, timeout)
    try:
        conn = connect_readonly(catalog)
    except DbUnreadable as exc:
        return ExecutionOutcome.error(ErrorKind.RUNTIME, str(exc))
    try:
        return _run(conn, statement, timeout)
    finally:
        conn.close()


def _run(conn: sqlite3.Connection, statement: str, timeout: float) -> ExecutionOutcome:
    deadline = time.monotonic() + timeout
    timed_out = False

    def _progress():
        nonlocal timed_out
        if time.monotonic() > deadline:
            timed_out = True
            return 1
        return 0

    conn.set_progress_handler(_progress, _PROGRESS_GRANULARITY)
    factory = conn.text_factory
    try:
        conn.text_factory = str  # SQLite's C decoder: no Python call per text cell
        try:
            rows, size = _fetch(conn, statement)
        except sqlite3.OperationalError as exc:
            if not str(exc).startswith(_DECODE_FAILURE):
                raise
            conn.text_factory = _decode_leniently
            rows, size = _fetch(conn, statement)
    except (sqlite3.Error, sqlite3.Warning, UnicodeEncodeError) as exc:  # the last: a lone surrogate
        return ExecutionOutcome.error(*_classify_error(exc, timed_out))
    finally:
        conn.text_factory = factory
        conn.set_progress_handler(None, 0)  # no deadline outlives its statement
    if len(rows) > MAX_ROWS:
        return ExecutionOutcome.error(ErrorKind.TOO_LARGE, f"result exceeds {MAX_ROWS} rows")
    if size > MAX_RESULT_BYTES:
        return ExecutionOutcome.error(ErrorKind.TOO_LARGE, f"result exceeds {MAX_RESULT_BYTES} bytes")
    return ExecutionOutcome.success(rows)


def _fetch(conn: sqlite3.Connection, statement: str) -> tuple[list[tuple], int]:
    """The statement's rows and their size, fetched until past MAX_ROWS or MAX_RESULT_BYTES.

    A chunk of values each at the length limit still fits in the budget.
    """
    cursor = conn.cursor()
    try:
        cursor.execute(statement)
        columns = len(cursor.description or ()) or 1
        step = max(1, MAX_RESULT_BYTES // (MAX_VALUE_BYTES * columns))
        rows: list[tuple] = []
        size = 0
        while len(rows) <= MAX_ROWS and size <= MAX_RESULT_BYTES:
            chunk = cursor.fetchmany(step)
            if not chunk:
                break
            size += len(marshal.dumps(chunk)) + _VALUE_OVERHEAD * columns * len(chunk)  # one C pass
            rows += chunk
    finally:
        cursor.close()
    return rows, size


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


_JSON_ESCAPED = bytes(range(0x20)) + b'"\\'  # the ASCII characters `_encode_text` escapes
_EXACT_INT = 2**53  # ints strictly within ±_EXACT_INT are exact as floats


def _column_format(column: tuple) -> tuple[str, tuple | list]:
    """One column's %-format piece and the values it formats.

    The piece writes each value as `json.dumps` writes its canonical scalar
    inside a row. Text without a character JSON escapes goes in verbatim; an
    exact int's float is integral, so rounding and the -0.0 fold leave it as
    is. Other text is escaped in one pass, and any other column goes value by
    value through `_canonical_scalar`.
    """
    types = set(map(type, column))
    if types == {str}:
        # UTF-8 puts an ASCII byte only for an ASCII character; lone surrogates pass too
        joined = "".join(column).encode("utf-8", "surrogatepass")
        if len(joined.translate(None, _JSON_ESCAPED)) == len(joined):
            return '"t:%s"', column
        return "%s", list(map(_encode_text, map("t:".__add__, column)))
    if types == {int} and -_EXACT_INT < min(column) and max(column) < _EXACT_INT:
        return '"n:%d.000000"', column
    return "%s", ["null" if s is None else _encode_text(s) for s in map(_canonical_scalar, column)]


def canonical_key(outcome: ExecutionOutcome, order_sensitive: bool) -> OutcomeKey | None:
    """Stable key for a success outcome; None for errors.

    Numbers unify across int/float at 1e-6 rounding, text stays verbatim,
    NULL is its own token. Order-insensitive keys compare rows as multisets.
    The digest covers each row's compact JSON list of canonical scalars, one
    line per row; each line is one `row_format % row`.
    """
    if not outcome.is_success:
        return None
    formats = [_column_format(column) for column in zip(*outcome.rows)]
    row_format = "[" + ",".join(piece for piece, _ in formats) + "]"
    serialized = list(map(row_format.__mod__, zip(*(values for _, values in formats))))
    if not order_sensitive:
        serialized.sort()
    digest = hashlib.sha256("\n".join(serialized).encode("utf-8")).hexdigest()
    return OutcomeKey(digest)
