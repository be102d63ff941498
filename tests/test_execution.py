from __future__ import annotations

import random
import time

from sqlvote.execution import (
    MAX_ROWS,
    ErrorKind,
    ExecutionOutcome,
    canonical_key,
    connect_readonly,
    execute,
    extract_sql,
    is_order_sensitive,
)

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


def test_execute_runtime_error(singer_catalog):
    outcome = execute("SELECT * FROM no_such_table", singer_catalog)
    assert outcome.error_kind is ErrorKind.RUNTIME


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
    return ExecutionOutcome.success(rows, 0.0)


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
