from __future__ import annotations

import random
import re
import sqlite3
import time
from contextlib import closing
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlvote import evaluation, execution, linking
from sqlvote.catalog import catalog_from_sqlite
from sqlvote.errors import DbUnreadable
from sqlvote.execution import (
    MAX_ROWS,
    ErrorKind,
    ExecutionOutcome,
    canonical_key,
    connect_readonly,
    db_signature,
    execute,
    extract_sql,
    is_order_sensitive,
)

import oracles
from oracles import rows_equal


# --- extract_sql ----------------------------------------------------------------


def test_extract_plain():
    sql = "SELECT name FROM singer WHERE birth_year = 1948 OR birth_year = 1949"
    assert extract_sql(sql) == sql


def test_extract_fenced_with_trailing_prose():
    assert extract_sql("```sql\nSELECT 1;\n``` explanation follows") == "SELECT 1"


def test_extract_blank():
    assert extract_sql("   ") == ""


def test_extract_semicolon_inside_literal():
    assert extract_sql("SELECT ';' FROM t; DROP TABLE t") == "SELECT ';' FROM t"


def test_extract_baseline_prefix():
    assert extract_sql(" name FROM singer", prefix_select=True) == "SELECT name FROM singer"
    assert extract_sql("SELECT 1", prefix_select=True) == "SELECT 1"
    assert extract_sql("selected FROM t", prefix_select=True) == "SELECT selected FROM t"
    assert extract_sql("", prefix_select=True) == ""


def test_extract_bare_fence():
    assert extract_sql("```\nSELECT 2\n```") == "SELECT 2"


def test_extract_semicolon_inside_line_comment():
    sql = "SELECT a -- pick a; then b\nFROM t"
    assert extract_sql(sql) == sql
    assert extract_sql(sql + "; DROP TABLE t") == sql


def test_extract_semicolon_inside_block_comment():
    assert extract_sql("SELECT a /* x; y */ FROM t; SELECT 2") == "SELECT a /* x; y */ FROM t"


def test_extract_semicolon_inside_bracket_identifier():
    assert extract_sql("SELECT [a;b] FROM t") == "SELECT [a;b] FROM t"


def test_extract_semicolon_inside_backtick_identifier():
    assert extract_sql("SELECT `a;b` FROM t; x") == "SELECT `a;b` FROM t"


# --- is_order_sensitive ---------------------------------------------------------


def test_order_by_top_level():
    assert is_order_sensitive("SELECT Name FROM singer ORDER BY Net_Worth_Millions DESC LIMIT 1")


def test_order_by_subquery_only():
    assert not is_order_sensitive("SELECT a FROM t WHERE b IN (SELECT b FROM u ORDER BY b)")


def test_order_by_in_string_literal():
    assert not is_order_sensitive("SELECT 'ORDER BY' FROM t")


def test_order_by_case_and_whitespace():
    assert is_order_sensitive("select x from t order\n by x")


def test_order_by_in_line_comment():
    assert not is_order_sensitive("SELECT a FROM t -- no order by here")


def test_order_by_in_block_comment():
    assert not is_order_sensitive("SELECT a FROM t /* order by x */")


def test_order_by_in_quoted_identifiers():
    assert not is_order_sensitive("SELECT `order by` FROM t")
    assert not is_order_sensitive("SELECT [order by] FROM t")


def test_comments_between_order_and_by_still_count():
    assert is_order_sensitive("SELECT a FROM t ORDER /* c */ BY a")
    assert is_order_sensitive("SELECT a FROM t ORDER -- c\nBY a")
    assert is_order_sensitive("SELECT a FROM t -- c\nORDER BY a")


# --- execute --------------------------------------------------------------------


def test_execute_count(features_catalog):
    outcome = execute("SELECT count(*) FROM Other_Available_Features", features_catalog)
    assert outcome.is_success
    assert outcome.rows == ((3,),)


def test_execute_syntax_error(singer_catalog):
    outcome = execute("SELEC 1", singer_catalog)
    assert outcome.kind == "error"
    assert outcome.error_kind is ErrorKind.SYNTAX


def test_execute_empty(singer_catalog):
    outcome = execute("", singer_catalog)
    assert outcome.error_kind is ErrorKind.EMPTY_SQL


def _on_own_and_shared_connection(sql, catalog):
    conn = connect_readonly(catalog)
    try:
        outcomes = [execute(sql, catalog, conn=c) for c in (None, conn)]
        assert not conn.in_transaction
    finally:
        conn.close()
    return outcomes


@pytest.mark.parametrize("sql", ["-- c", "/* c */", ";"])
def test_comments_and_semicolons_alone_are_empty(singer_catalog, sql):
    for outcome in _on_own_and_shared_connection(sql, singer_catalog):
        assert outcome.error_kind is ErrorKind.EMPTY_SQL


@pytest.mark.parametrize("sql", [";BEGIN", " ; COMMIT", "/**/;SAVEPOINT s"])
def test_leading_semicolon_hides_no_write(singer_catalog, sql):
    for outcome in _on_own_and_shared_connection(sql, singer_catalog):
        assert (outcome.error_kind, outcome.detail) == (ErrorKind.RUNTIME, "write statements are not allowed")


@pytest.mark.parametrize("sql", ["SELECT 1;", "SELECT 1;;", "SELECT 1; ;", "SELECT 1; /* c */ ;"])
def test_trailing_semicolons_are_dropped(singer_catalog, sql):
    for outcome in _on_own_and_shared_connection(sql, singer_catalog):
        assert outcome.rows == ((1,),)


def test_a_second_statement_is_a_runtime_error(singer_catalog):
    for outcome in _on_own_and_shared_connection("SELECT 1; SELECT 2", singer_catalog):
        assert outcome.error_kind is ErrorKind.RUNTIME


def test_execute_runtime_error(singer_catalog):
    outcome = execute("SELECT * FROM no_such_table", singer_catalog)
    assert outcome.error_kind is ErrorKind.RUNTIME


def test_statement_that_does_not_encode_is_a_runtime_error(singer_catalog):
    conn = connect_readonly(singer_catalog)
    try:
        outcomes = [execute("SELECT '\ud800'", singer_catalog, conn=c) for c in (None, conn)]
        assert execute("SELECT 1", singer_catalog, conn=conn).rows == ((1,),)  # the connection still works
    finally:
        conn.close()
    for outcome in outcomes:
        assert outcome.error_kind is ErrorKind.RUNTIME
        assert "surrogates not allowed" in outcome.detail
        outcome.detail.encode("utf-8")  # the detail itself can be written anywhere


def test_db_signature_of_a_missing_file_raises(tmp_path):
    with pytest.raises(DbUnreadable):
        db_signature(tmp_path / "missing.sqlite")


def test_write_rejected_and_file_untouched(singer_catalog):
    before = singer_catalog.db_path.read_bytes()
    for sql in (
        "INSERT INTO singer VALUES (99, 'X', 2000, 1.0, 'Y')",
        "UPDATE singer SET Name = 'X'",
        "DELETE FROM song",
        "DROP TABLE singer",
        "CREATE TABLE z (a)",
        "PRAGMA query_only = OFF",
        "ATTACH '/tmp/evil.db' AS evil",
    ):
        outcome = execute(sql, singer_catalog)
        assert outcome.kind == "error", sql
        assert outcome.error_kind is ErrorKind.RUNTIME, sql
    assert singer_catalog.db_path.read_bytes() == before


def test_timeout_infinite_query(singer_catalog):
    start = time.monotonic()
    outcome = execute(
        "WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM r) SELECT count(*) FROM r",
        singer_catalog,
        timeout=1.0,
    )
    elapsed = time.monotonic() - start
    assert outcome.error_kind is ErrorKind.TIMEOUT
    assert elapsed < 2.0


_COUNT_TO = "WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM r WHERE x < {n}) SELECT x FROM r"


def test_row_cap(singer_catalog):
    at_cap = execute(_COUNT_TO.format(n=MAX_ROWS), singer_catalog)
    assert at_cap.is_success and len(at_cap.rows) == MAX_ROWS
    over = execute(_COUNT_TO.format(n=MAX_ROWS + 1), singer_catalog)
    assert over.kind == "error"
    assert over.error_kind is ErrorKind.TOO_LARGE
    assert over.rows is None


def test_shared_connection_usable_after_timeout(singer_catalog):
    conn = connect_readonly(singer_catalog)
    try:
        endless = "WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM r) SELECT count(*) FROM r"
        assert execute(endless, singer_catalog, timeout=0.2, conn=conn).error_kind is ErrorKind.TIMEOUT
        after = execute("SELECT count(*) FROM song", singer_catalog, timeout=0.2, conn=conn)
        assert after.is_success
        assert after.rows == execute("SELECT count(*) FROM song", singer_catalog).rows
        over = execute(_COUNT_TO.format(n=MAX_ROWS + 1), singer_catalog, conn=conn)
        assert over.error_kind is ErrorKind.TOO_LARGE
        assert execute("SELECT 1", singer_catalog, conn=conn).rows == ((1,),)
    finally:
        conn.close()


def test_deadline_does_not_outlive_its_statement(singer_catalog):
    conn = connect_readonly(singer_catalog)
    try:
        assert execute("SELECT 1", singer_catalog, timeout=0.05, conn=conn).is_success
        time.sleep(0.1)
        count_to = f"SELECT count(*) FROM ({_COUNT_TO.format(n=100_000)})"  # far over one progress step
        assert conn.execute(count_to).fetchone() == (100_000,)
    finally:
        conn.close()


def test_shared_connection_denies_writes(singer_catalog):
    before = singer_catalog.db_path.read_bytes()
    conn = connect_readonly(singer_catalog)
    try:
        for sql in (
            "-- hidden verb\nDELETE FROM song",
            "/* c */ PRAGMA query_only = OFF",
            "-- c\nBEGIN",
            "/* a */ -- b\n /* c */ SAVEPOINT s",
            "WITH x AS (SELECT 1) DELETE FROM song",
        ):
            outcome = execute(sql, singer_catalog, conn=conn)
            assert outcome.error_kind is ErrorKind.RUNTIME, sql
        assert not conn.in_transaction
        assert execute("SELECT count(*) FROM song", singer_catalog, conn=conn).is_success
    finally:
        conn.close()
    assert singer_catalog.db_path.read_bytes() == before


_BLOBS = (
    "WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM r WHERE x < {n}) "
    "SELECT zeroblob({size}) FROM r"
)


def test_byte_budget(singer_catalog, monkeypatch):
    monkeypatch.setattr(execution, "MAX_RESULT_BYTES", 64 * 1024)
    conn = connect_readonly(singer_catalog)
    try:
        within = execute(_BLOBS.format(n=50, size=1000), singer_catalog, conn=conn)
        assert within.is_success and len(within.rows) == 50
        over = execute(_BLOBS.format(n=200, size=1000), singer_catalog, conn=conn)
        assert over.error_kind is ErrorKind.TOO_LARGE and over.rows is None
        assert "bytes" in over.detail
        assert execute(_COUNT_TO.format(n=500), singer_catalog, conn=conn).is_success
        # small values count by the memory they hold, not only by their data
        many = execute(_COUNT_TO.format(n=2000), singer_catalog, conn=conn)
        assert many.error_kind is ErrorKind.TOO_LARGE
        assert execute("SELECT 1", singer_catalog, conn=conn).rows == ((1,),)
    finally:
        conn.close()


def test_value_length_limit(singer_catalog, monkeypatch):
    monkeypatch.setattr(execution, "MAX_VALUE_BYTES", 64 * 1024)
    assert execute("SELECT zeroblob(60000)", singer_catalog).is_success
    for sql in ("SELECT zeroblob(70000)", "SELECT randomblob(70000)", "SELECT hex(zeroblob(40000))"):
        outcome = execute(sql, singer_catalog)
        assert outcome.error_kind is ErrorKind.TOO_LARGE, sql


@pytest.fixture()
def invalid_utf8(tmp_path):
    """A catalog whose one TEXT cell holds invalid UTF-8, beside a valid one."""
    path = tmp_path / "bad.sqlite"
    conn = sqlite3.connect(path)
    conn.execute("CREATE TABLE t (a TEXT, b INTEGER)")
    conn.execute("INSERT INTO t VALUES (CAST(x'ff41c3' AS TEXT), 1)")
    conn.execute("INSERT INTO t VALUES ('fine', 2)")
    conn.commit()
    conn.close()
    return catalog_from_sqlite(path, "bad")


def test_invalid_utf8_reads_as_replacement_characters(invalid_utf8, monkeypatch):
    decoded = []

    def counting(raw):
        decoded.append(raw)
        return raw.decode("utf-8", "replace")

    monkeypatch.setattr(execution, "_decode_leniently", counting)
    conn = connect_readonly(invalid_utf8)
    try:
        outcome = execute("SELECT a FROM t", invalid_utf8, conn=conn)
        assert outcome.rows == (("\ufffdA\ufffd",), ("fine",))
        # the rows and digest the per-cell lenient decoder gave
        assert canonical_key(outcome, False).key == (
            "f938acc3b5b516ba1dd28e266311588fcc919ce7b89c15c4e15b716898510f52"
        )
        assert decoded == [b"\xffA\xc3", b"fine"]  # only the retry decodes in Python
        assert conn.text_factory is counting  # left as connect_readonly set it
        after = execute("SELECT a, b FROM t WHERE b = 2", invalid_utf8, conn=conn)
        assert after.rows == (("fine", 2),)
        assert len(decoded) == 2  # the next statement used SQLite's decoder
    finally:
        conn.close()


def test_invalid_utf8_is_read_by_linking_and_suites(invalid_utf8):
    with closing(connect_readonly(invalid_utf8)) as conn:
        assert "\ufffdA\ufffd" in evaluation._observed_values(invalid_utf8, conn)[(0, 0)]
    matches = linking.link_values("is the value \ufffdA\ufffd there?", invalid_utf8)
    assert ("t", "a", "\ufffdA\ufffd") in [(m.table_name, m.column_name, m.value) for m in matches]


def test_execute_deterministic_keys(singer_catalog):
    sql = "SELECT Name, Net_Worth_Millions FROM singer WHERE Citizenship = 'France'"
    key_a = canonical_key(execute(sql, singer_catalog), order_sensitive=False)
    key_b = canonical_key(execute(sql, singer_catalog), order_sensitive=False)
    assert key_a == key_b


def test_every_completion_maps_to_one_outcome(singer_catalog):
    completions = [
        "SELECT Name FROM singer",
        "garbage text, no sql at all",
        "",
        "```sql\nSELECT count(*) FROM song;\n```",
        "SELECT * FROM missing_table",
    ]
    for completion in completions:
        outcome = execute(extract_sql(completion), singer_catalog)
        assert outcome.kind in ("success", "error")
        if outcome.kind == "error":
            assert outcome.error_kind is not None
        else:
            assert outcome.rows is not None


# --- canonical_key --------------------------------------------------------------


def _success(rows):
    return ExecutionOutcome.success(rows)


def test_multiset_vs_sequence_semantics():
    a = _success([(1, "a"), (2, "b")])
    b = _success([(2, "b"), (1, "a")])
    assert canonical_key(a, order_sensitive=False) == canonical_key(b, order_sensitive=False)
    assert canonical_key(a, order_sensitive=True) != canonical_key(b, order_sensitive=True)


def test_float_rounding_unifies():
    assert canonical_key(_success([(1.0000004,)]), False) == canonical_key(_success([(1.0,)]), False)
    assert canonical_key(_success([(1.0,)]), False) == canonical_key(_success([(1,)]), False)
    assert canonical_key(_success([(1.00001,)]), False) != canonical_key(_success([(1.0,)]), False)


def test_null_vs_text_vs_number_distinct():
    keys = {
        canonical_key(_success([(None,)]), False).key,
        canonical_key(_success([("None",)]), False).key,
        canonical_key(_success([("1.0",)]), False).key,
        canonical_key(_success([(1.0,)]), False).key,
    }
    assert len(keys) == 4


def test_error_outcome_has_no_key():
    assert canonical_key(ExecutionOutcome.error(ErrorKind.SYNTAX), False) is None


def test_rounding_matches_decimal_oracle():
    """Randomized floats: key equality must agree with an independent
    Decimal-quantization normalization."""
    rng = random.Random(99)
    for _ in range(500):
        base = rng.uniform(-10, 10)
        jitter = rng.choice([0.0, 1e-9, 4e-7, 6e-7, 1e-5, 0.1])
        rows_a = [(base,)]
        rows_b = [(base + jitter,)]
        ours = canonical_key(_success(rows_a), False) == canonical_key(_success(rows_b), False)
        oracle = rows_equal(rows_a, rows_b, order_sensitive=False)
        assert ours == oracle, (base, jitter)


def test_negative_zero_normalized():
    assert canonical_key(_success([(-0.0,)]), False) == canonical_key(_success([(0,)]), False)


# Digests computed with the row-at-a-time serialization; an audit file's
# `outcome_key` is such a digest, so these must never drift.
_PINNED = [
    ([], False, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ([(2, "b"), (1, "a"), (2, "b")], False, "c0bc7b505529fc2cb99fa3d7aef0c1460cce221a1cceffdfbdf85a403163492f"),
    ([(2, "b"), (1, "a"), (2, "b")], True, "25482f15784954c08ff919955d05ebee15da70d100134c804f17e8f60bec68ae"),
    (
        [
            (None, 1.5, b"\x00\xff", True),
            ("t:1", -0.0, float("nan"), 2**63),
            ("null", float("-inf"), 4.9999995e-7, -(2**63)),
        ],
        False,
        "7dc50841843c4dfd4d067b21c6e0e14234a71d3d3731b1ec5352af0aee0e8da3",
    ),
    (
        [('say "hi"\\', "é\x01\n日本"), ("", "a,b]")],
        True,
        "40e919861c0714ee82b121ff070818e90e033a42e13cf72e7ab174351c8dc965",
    ),
    (
        [("100% sure", 2**53 - 1), ("%s and %%d", -(2**53 - 1)), ("plain", 0)],
        False,
        "ec73fa4d707754b4587c94deaa9b4dea218c885960c87f7dc182b3c44ee1cbd2",
    ),
    (
        [(2**53 + 1,), (-(2**53 + 1),), (2**53,)],
        False,
        "280dbd9f8eef64b2675426c3a68e7a24b9ee1c46606dcc7654fc59ef1cefb469",
    ),
]


@pytest.mark.parametrize("char", ['"', "\\", "\x00", "\n", "\x1f"])
def test_a_character_json_escapes_sends_its_column_down_the_escaped_path(char):
    rows = [(f"a{char}b", "plain"), ("", "%s")]
    for order_sensitive in (False, True):
        assert canonical_key(_success(rows), order_sensitive).key == oracles.canonical_digest(
            rows, order_sensitive
        )


def test_canonical_key_digests_are_pinned():
    for rows, order_sensitive, digest in _PINNED:
        assert canonical_key(_success(rows), order_sensitive).key == digest, (rows, order_sensitive)


_exact_int_edges = [2**53 - 1, -(2**53 - 1), 2**53, -(2**53), 2**53 + 1, -(2**53 + 1)]
# printable ASCII with %-format directives; as often as not a column holds no
# character JSON escapes, else one or more kinds of them
_plain_chars = st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters='"\\')
_ascii_text = st.lists(
    st.one_of(
        st.sampled_from(["%", "%s", "%%", "%d", "%(a)s", '"', "\\", "\n", "\x1f"]),
        st.text(_plain_chars, max_size=3),
    ),
    max_size=4,
).map("".join)
_edge_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, -1, 2**63 - 1, -(2**63), 2**63, 10**15 + 1] + _exact_int_edges),
    st.integers(),
    st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan"), 5e-7, 4.9999995e-7, 1.0000005, -2.5e-7]),
    st.floats(),
    st.binary(max_size=4),
    st.sampled_from(["t:1", "null", "n:1.000000", '"', "\\", "\x00\x1f\x7f", "a,b]", "é", "日本", "\u2028"]),
    st.text(max_size=6),
)
# each column draws from one of: exactly str, ASCII str, exactly int, ints near 2**53, or anything
_column_values = st.sampled_from([
    st.text(max_size=6),
    _ascii_text,
    st.integers(),
    st.one_of(st.sampled_from(_exact_int_edges), st.integers(-100, 100)),
    _edge_scalars,
])


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_canonical_key_equals_row_at_a_time_reference(data):
    columns = data.draw(st.lists(_column_values, min_size=1, max_size=4))
    rows = data.draw(st.lists(st.tuples(*columns), max_size=8))
    for order_sensitive in (False, True):
        assert canonical_key(_success(rows), order_sensitive).key == oracles.canonical_digest(
            rows, order_sensitive
        )


# --- one tokenizer against the reference scanners ---------------------------------

_FRAGMENTS = [
    "'", "''", '"', '""', "`", "```", "```sql\n", "[", "]", "--", "/*", "*/", "*", "/", "-",
    "(", ")", ";", " ", "\n", "\t", "\u00a0", ".", ",", "order", "ORDER", "by", "By",
    "select", "SELECT", "drop", "begin", "Rollback", "delete", "1", "_", "x", "é", "ß",
    "İ", "\u212a",
]
_sql_texts = st.lists(
    st.one_of(st.sampled_from(_FRAGMENTS), st.text(max_size=2)), max_size=24
).map("".join)


@settings(max_examples=400, deadline=None)
@given(_sql_texts, st.booleans())
def test_extract_sql_equals_reference_scanner(text, prefix_select):
    assert extract_sql(text, prefix_select) == oracles.extract_sql(text, prefix_select)


# words alternate with what may stand between them, so ORDER and BY meet often
_order_texts = st.lists(
    st.tuples(
        st.sampled_from(["order", "ORDER", "by", "BY", "a"]),
        st.sampled_from([" ", "\n", "(", ")", "'x'", "'", "[z]", "-- c\n", "--", "/* c */", "/*", "."]),
    ),
    max_size=8,
).map(lambda pairs: "".join(word + gap for word, gap in pairs))


@settings(max_examples=400, deadline=None)
@given(st.one_of(_sql_texts, _order_texts))
def test_order_sensitivity_equals_reference_scanner(sql):
    assert is_order_sensitive(sql) == oracles.is_order_sensitive(sql)


def _unopenable(catalog):
    # statements that pass the write check fail to open this file, so nothing runs
    return replace(catalog, db_path=Path("no-such-dir") / "missing.sqlite")


_statements = st.one_of(
    _sql_texts,
    st.tuples(
        st.sampled_from(["", " ", "-- c\n", "/* c */", "/**/\n", ";", " ;-- c\n;"]),
        st.sampled_from(sorted(oracles.WRITE_VERBS) + ["BEGIN", "Drop", "ROLLBAC\u212a"]),
        _sql_texts,
    ).map("".join),
)


@settings(max_examples=400, deadline=None)
@given(_statements)
def test_write_check_equals_reference_regex(singer_catalog, sql):
    outcome = execute(sql, _unopenable(singer_catalog))
    rejected = outcome.detail == "write statements are not allowed"
    statement = sql.strip()
    first = oracles.FIRST_WORD.match(statement)
    reference = first is not None and first.group(1).lower() in oracles.WRITE_VERBS
    glued = reference and re.match(r"\w", statement[first.end(1):first.end(1) + 1]) is not None
    # the reference reads only the ASCII letters of "begin1", "drop_x" or "dropé"
    assert rejected == (reference and not glued), sql


def test_verb_glued_to_a_word_is_an_identifier(singer_catalog):
    for sql in ("begin1", "drop_x", "dropé", "-- c\nbegin1"):
        assert execute(sql, singer_catalog).error_kind is ErrorKind.SYNTAX, sql


# --- properties -------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(_sql_texts, st.booleans())
def test_extract_sql_is_idempotent(text, prefix_select):
    once = extract_sql(text, prefix_select)
    assert extract_sql(once, prefix_select) == once


_int_rows = st.lists(
    st.lists(st.integers(-(10**15), 10**15), min_size=1, max_size=3).map(tuple), max_size=8
)


@given(_int_rows)
def test_canonical_key_unifies_int_and_float(rows):
    as_float = [tuple(float(v) for v in row) for row in rows]
    for order_sensitive in (False, True):
        assert canonical_key(_success(rows), order_sensitive) == canonical_key(
            _success(as_float), order_sensitive
        )


@given(st.data())
def test_canonical_key_ignores_row_order_when_order_insensitive(data):
    rows = data.draw(
        st.lists(st.tuples(st.one_of(st.none(), st.integers(), st.floats(), st.text())), max_size=8)
    )
    permuted = data.draw(st.permutations(rows))
    assert canonical_key(_success(rows), False) == canonical_key(_success(permuted), False)


# quotes, brackets, comment markers, ';' and words: SQLite's own end-of-statement test is a
# second oracle that shares no code with the tokenizer or the reference scanners
_END_FRAGMENTS = [
    "'", "''", '"', '""', "`", "[", "]", "--", "/*", "*/", "*", "/", "-", "(", ")", ";", " ", "\n",
    "select", "x", "1",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_END_FRAGMENTS), max_size=24).map("".join))
def test_first_semicolon_token_is_where_sqlite_completes_a_statement(text):
    first = next((i for i, token, _ in execution._tokens(text) if token == ";"), None)
    complete = next(
        (i for i, char in enumerate(text) if char == ";" and sqlite3.complete_statement(text[: i + 1])), None
    )
    assert first == complete
