from __future__ import annotations

import hashlib
import json
import sqlite3
from collections import Counter
from contextlib import closing
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from sqlvote import evaluation, execution
from sqlvote.catalog import (
    ColumnSchema,
    ColumnType,
    DatabaseCatalog,
    TableSchema,
    catalog_from_sqlite,
    load_catalogs,
)
from sqlvote.linking import link_values
from sqlvote.errors import GenerationFailed, GoldExecutionFailed, MissingDbFile, MissingPrediction
from sqlvote.evaluation import SuiteSpec, evaluate_file, exec_match, generate_suite_db, ts_match

# (gold, pred, expected EX) pairs; the two provable anchors are marked.
EX_PAIRS = [
    (  # lowercase rewrite
        "SELECT Name FROM singer WHERE Birth_Year  =  1948 OR Birth_Year  =  1949",
        "SELECT name FROM singer WHERE birth_year = 1948 OR birth_year = 1949",
        True,
    ),
    (  # alias-only rewrite of the net-worth query: provably 1
        "SELECT Name FROM singer ORDER BY Net_Worth_Millions DESC LIMIT 1",
        "SELECT T1.name FROM singer AS T1 ORDER BY T1.net_worth_millions Desc LIMIT 1",
        True,
    ),
    (  # stray join on song
        "SELECT Name FROM singer ORDER BY Net_Worth_Millions DESC LIMIT 1",
        "SELECT T1.name FROM singer AS T1 JOIN song AS T2 ON T1.singer_id  =  T2.singer_id "
        "ORDER BY T1.net_worth_millions Desc LIMIT 1",
        True,
    ),
    (  # aliased group-by
        "SELECT Citizenship ,  COUNT(*) FROM singer GROUP BY Citizenship",
        "SELECT T1.citizenship ,  count(*) FROM singer AS T1 GROUP BY T1.citizenship",
        True,
    ),
    (  # aliased max per group
        "SELECT Citizenship ,  max(Net_Worth_Millions) FROM singer GROUP BY Citizenship",
        "SELECT T1.citizenship ,  max(T1.net_worth_millions) FROM singer AS T1 GROUP BY T1.citizenship",
        True,
    ),
    (  # join written from the other side
        "SELECT T2.Title ,  T1.Name FROM singer AS T1 JOIN song AS T2 ON T1.Singer_ID  =  T2.Singer_ID",
        "SELECT T1.title ,  T2.name FROM song AS T1 JOIN singer AS T2 ON T1.singer_id = T2.singer_id",
        True,
    ),
    (  # missing DISTINCT, coincidentally harmless on this data
        "SELECT DISTINCT T1.Name FROM singer AS T1 JOIN song AS T2 ON "
        "T1.Singer_ID  =  T2.Singer_ID WHERE T2.Sales  >  300000",
        "SELECT T1.name FROM singer AS T1 JOIN song AS T2 ON "
        "T1.singer_id = T2.singer_id WHERE T2.sales  >  300000",
        True,
    ),
    (  # grouping by id instead of name
        "SELECT T1.Name FROM singer AS T1 JOIN song AS T2 ON T1.Singer_ID  =  T2.Singer_ID "
        "GROUP BY T1.Name HAVING COUNT(*)  >  1",
        "SELECT T1.name FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id "
        "GROUP BY T1.singer_id HAVING COUNT(*)  >  1",
        True,
    ),
    (  # inner join can never produce the NULLs NOT IN finds: provably 0
        "SELECT Name FROM singer WHERE Singer_ID NOT IN (SELECT Singer_ID FROM song)",
        "SELECT T1.name FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id "
        "WHERE T2.singer_id IS NULL",
        False,
    ),
    (  # intersect needlessly restricted to singers with songs
        "SELECT Citizenship FROM singer WHERE Birth_Year  <  1945 INTERSECT "
        "SELECT Citizenship FROM singer WHERE Birth_Year  >  1955",
        "SELECT T1.citizenship FROM singer AS T1 JOIN song AS T2 ON T1.singer_id  =  T2.singer_id "
        "WHERE T1.birth_year  <  1945 INTERSECT "
        "SELECT T1.citizenship FROM singer AS T1 JOIN song AS T2 ON T1.singer_id  =  T2.singer_id "
        "WHERE T1.birth_year  >  1955",
        False,
    ),
]

TS_FALSE_POSITIVE = (
    "SELECT Name FROM singer WHERE Birth_Year = 1948",
    "SELECT Name FROM singer WHERE Net_Worth_Millions = 25",
)


@pytest.mark.parametrize("gold,pred,expected", EX_PAIRS)
def test_exec_match_pairs(singer_catalog, gold, pred, expected):
    assert exec_match(pred, gold, singer_catalog) is expected


def test_exec_match_reflexive(singer_catalog, dev_examples):
    for example in dev_examples:
        if example.db_id == "singer":
            assert exec_match(example.gold_sql, example.gold_sql, singer_catalog)


def test_exec_match_symmetric_same_order_class(singer_catalog):
    """Symmetry holds when swapping does not change the order-sensitivity class."""
    for gold, pred, _ in EX_PAIRS:
        from sqlvote.execution import is_order_sensitive

        if is_order_sensitive(gold) != is_order_sensitive(pred):
            continue
        assert exec_match(pred, gold, singer_catalog) == exec_match(gold, pred, singer_catalog)


def test_exec_match_gold_failure(singer_catalog, fixture_root, tmp_path):
    with pytest.raises(GoldExecutionFailed) as err:
        exec_match("SELECT 1", "SELECT nope FROM nothing", singer_catalog, example_id="000042")
    assert err.value.example_id == "000042"
    assert "gold SQL failed for example 000042:" in str(err.value)

    # evaluate_file names the failing example, not its database
    dataset = tmp_path / "bad_gold.json"
    dataset.write_text(json.dumps([
        {"db_id": "singer", "question": "q0", "query": "SELECT 1"},
        {"db_id": "singer", "question": "q1", "query": "SELECT nope FROM nothing"},
    ]))
    pred_path = tmp_path / "pred.jsonl"
    _write_predictions(pred_path, [("000000", "SELECT 1"), ("000001", "SELECT 1")])
    report = evaluate_file(pred_path, dataset, fixture_root / "database")
    assert report.per_question[0].gold_error is None
    assert report.per_question[1].gold_error.startswith("gold SQL failed for example 000001:")
    assert report.counts["gold_failures"] == 1


# --- suite generation -------------------------------------------------------------


def _pk_violations(conn, catalog) -> int:
    bad = 0
    for t, table in enumerate(catalog.tables):
        pk_cols = [table.columns[c].name for (pt, c) in catalog.primary_keys if pt == t]
        if not pk_cols:
            continue
        group = ", ".join(f'"{c}"' for c in pk_cols)
        (count,) = conn.execute(
            f'SELECT count(*) FROM (SELECT 1 FROM "{table.name}" GROUP BY {group} HAVING count(*) > 1)'
        ).fetchone()
        bad += count
    return bad


def _fk_violations(conn, catalog, excluded) -> int:
    bad = 0
    for fk in catalog.foreign_keys:
        if fk in excluded:
            continue
        (child_t, child_c), (parent_t, parent_c) = fk
        child_table = catalog.tables[child_t].name
        child_col = catalog.tables[child_t].columns[child_c].name
        parent_table = catalog.tables[parent_t].name
        parent_col = catalog.tables[parent_t].columns[parent_c].name
        (count,) = conn.execute(
            f'SELECT count(*) FROM "{child_table}" WHERE "{child_col}" IS NOT NULL '
            f'AND CAST("{child_col}" AS TEXT) NOT IN '
            f'(SELECT CAST("{parent_col}" AS TEXT) FROM "{parent_table}" WHERE "{parent_col}" IS NOT NULL)'
        ).fetchone()
        bad += count
    return bad


def check_suite_integrity(catalog, path) -> tuple[int, int]:
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        dropped = evaluation._topological_tables(catalog)[1]
        return _pk_violations(conn, catalog), _fk_violations(conn, catalog, dropped)
    finally:
        conn.close()


def test_suite_referential_integrity(car_catalog, tmp_path):
    spec = SuiteSpec(suite_count=1, rows_per_table=50, seed=3)
    path = oracles.suite_db(car_catalog, spec, 1, tmp_path)
    pk_bad, fk_bad = check_suite_integrity(car_catalog, path)
    assert pk_bad == 0 and fk_bad == 0
    # every car_names.Model value must exist in model_list.Model
    conn = sqlite3.connect(path)
    orphans = conn.execute(
        "SELECT count(*) FROM car_names WHERE Model IS NOT NULL AND "
        "CAST(Model AS TEXT) NOT IN (SELECT CAST(Model AS TEXT) FROM model_list)"
    ).fetchone()[0]
    conn.close()
    assert orphans == 0


def test_suite_deterministic_bytes(singer_catalog, tmp_path):
    spec = SuiteSpec(suite_count=1, rows_per_table=30, seed=11)
    first = oracles.suite_db(singer_catalog, spec, 1, tmp_path / "a")
    second = oracles.suite_db(singer_catalog, spec, 1, tmp_path / "b")
    assert first.read_bytes() == second.read_bytes()


def test_suite_bytes_do_not_depend_on_journal_or_sync(singer_catalog, tmp_path, monkeypatch):
    spec = SuiteSpec(suite_count=1, rows_per_table=30, seed=11)
    unsynced = oracles.suite_db(singer_catalog, spec, 1, tmp_path / "a")

    class Journaled(sqlite3.Connection):  # SQLite's defaults: rollback journal, full sync
        def execute(self, sql, *args):
            if sql.startswith(("PRAGMA journal_mode", "PRAGMA synchronous")):
                return self.cursor()
            return super().execute(sql, *args)

    connect = sqlite3.connect
    monkeypatch.setattr(sqlite3, "connect", lambda *a, **k: connect(*a, factory=Journaled, **k))
    journaled = oracles.suite_db(singer_catalog, spec, 1, tmp_path / "b")
    assert unsynced.read_bytes() == journaled.read_bytes()
    assert sorted(p.name for p in (tmp_path / "a").iterdir()) == [unsynced.name]


def test_suite_differs_across_indices(singer_catalog, tmp_path):
    spec = SuiteSpec(suite_count=2, rows_per_table=30, seed=11)
    one = oracles.suite_db(singer_catalog, spec, 1, tmp_path)
    two = oracles.suite_db(singer_catalog, spec, 2, tmp_path)
    assert one.read_bytes() != two.read_bytes()


def test_cycle_reported_and_broken(tmp_path):
    manifest = [{
        "db_id": "loop",
        "table_names_original": ["a", "b"],
        "column_names_original": [[-1, "*"], [0, "aid"], [0, "bref"], [1, "bid"], [1, "aref"]],
        "column_types": ["text", "number", "number", "number", "number"],
        "primary_keys": [1, 3],
        "foreign_keys": [[2, 3], [4, 1]],  # a.bref -> b.bid, b.aref -> a.aid
    }]
    (tmp_path / "loop").mkdir()
    conn = sqlite3.connect(tmp_path / "loop" / "loop.sqlite")
    conn.execute("CREATE TABLE a (aid NUMERIC, bref NUMERIC)")
    conn.execute("CREATE TABLE b (bid NUMERIC, aref NUMERIC)")
    conn.commit()
    conn.close()
    manifest_path = tmp_path / "tables.json"
    manifest_path.write_text(json.dumps(manifest))
    catalog = load_catalogs(manifest_path, tmp_path)[0]

    dropped = evaluation._topological_tables(catalog)[1]
    assert len(dropped) == 1  # one edge is enough to break a 2-cycle

    path = oracles.suite_db(catalog, SuiteSpec(suite_count=1, rows_per_table=10, seed=1), 1, tmp_path)
    conn = sqlite3.connect(path)
    pk_bad = _pk_violations(conn, catalog)
    fk_bad = _fk_violations(conn, catalog, dropped)
    conn.close()
    assert pk_bad == 0 and fk_bad == 0


def test_infinite_numbers_do_not_bound_fresh_draws(tmp_path):
    (tmp_path / "inf").mkdir()
    conn = sqlite3.connect(tmp_path / "inf" / "inf.sqlite")
    conn.execute("CREATE TABLE t (a NUMERIC, b TEXT)")
    conn.executemany("INSERT INTO t VALUES (?, ?)", [(9e999, "x"), (1, "y"), (-9e999, "z")])
    conn.commit()
    conn.close()
    catalog = catalog_from_sqlite(tmp_path / "inf" / "inf.sqlite", "inf")

    suite = oracles.suite_db(catalog, SuiteSpec(suite_count=1, rows_per_table=30, seed=2), 1, tmp_path)
    conn = sqlite3.connect(suite)
    values = {a for (a,) in conn.execute("SELECT a FROM t")}
    conn.close()
    assert values <= {float("inf"), float("-inf"), 1}  # fresh draws span the finite range [1, 1]
    assert 1 in values


def test_a_value_over_the_length_limit_is_not_observed(tmp_path, monkeypatch):
    monkeypatch.setattr(execution, "MAX_VALUE_BYTES", 1024)
    (tmp_path / "long").mkdir()
    conn = sqlite3.connect(tmp_path / "long" / "long.sqlite")
    conn.execute("CREATE TABLE t (a TEXT, b TEXT)")
    conn.executemany("INSERT INTO t VALUES (?, ?)", [("short", "x"), ("y" * 2000, "z")])
    conn.commit()
    conn.close()
    catalog = catalog_from_sqlite(tmp_path / "long" / "long.sqlite", "long")

    with closing(execution.connect_readonly(catalog)) as conn:
        assert evaluation._observed_values(catalog, conn) == {(0, 0): [], (0, 1): ["x", "z"]}
    spec = SuiteSpec(suite_count=1, rows_per_table=10, seed=2)
    assert oracles.suite_db(catalog, spec, 1, tmp_path / "suites").exists()


def test_identifiers_holding_a_double_quote_load_link_and_score(tmp_path):
    (tmp_path / "quoted").mkdir()
    conn = sqlite3.connect(tmp_path / "quoted" / "quoted.sqlite")
    conn.execute('CREATE TABLE "sing""er" (id INTEGER PRIMARY KEY, "na""me" TEXT)')
    conn.execute('CREATE TABLE song (title TEXT, "sing""er_id" INTEGER REFERENCES "sing""er" (id))')
    conn.executemany('INSERT INTO "sing""er" VALUES (?, ?)', [(1, "Joe Sharp"), (2, "Rose White")])
    conn.executemany("INSERT INTO song VALUES (?, ?)", [("Gentle", 1), ("Dawn", 2)])
    conn.commit()
    conn.close()
    catalog = catalog_from_sqlite(tmp_path / "quoted" / "quoted.sqlite", "quoted")
    assert [t.name for t in catalog.tables] == ['sing"er', "song"]
    assert [c.name for c in catalog.tables[0].columns] == ["id", 'na"me']
    assert catalog.foreign_keys == (((1, 1), (0, 0)),)
    matches = link_values("Which songs does Joe Sharp sing?", catalog)
    assert [(m.table_name, m.column_name, m.value) for m in matches] == [('sing"er', 'na"me', "Joe Sharp")]

    gold = 'SELECT title FROM song JOIN "sing""er" ON "sing""er_id" = id WHERE "na""me" = \'Joe Sharp\''
    dataset = tmp_path / "quoted.json"
    dataset.write_text(json.dumps([
        {"db_id": "quoted", "question": "Which songs does Joe Sharp sing?", "query": gold},
        {"db_id": "quoted", "question": "How many singers are there?", "query": 'SELECT count(*) FROM "sing""er"'},
    ]))
    pred_path = tmp_path / "pred.jsonl"
    _write_predictions(pred_path, [("000000", _reworded(gold)), ("000001", "SELECT 2")])
    spec = SuiteSpec(suite_count=2, rows_per_table=10, seed=3)
    report = evaluate_file(pred_path, dataset, tmp_path, spec, tmp_path / "suites")
    assert [(q.ex, q.ts, q.gold_error) for q in report.per_question] == [(True, True, None), (True, False, None)]


def test_handcrafted_tie_breaks_order_by_limit(singer_catalog, tmp_path):
    """Gold ORDER BY ... LIMIT 1 is ambiguous under a tie; a pred returning all
    maxima matches on the original data but not on the tie database."""
    gold = "SELECT Name FROM singer ORDER BY Net_Worth_Millions DESC LIMIT 1"
    pred = (
        "SELECT Name FROM singer WHERE Net_Worth_Millions = "
        "(SELECT max(Net_Worth_Millions) FROM singer)"
    )
    assert exec_match(pred, gold, singer_catalog)  # unique max on the original

    tie_db = tmp_path / "tie.sqlite"
    conn = sqlite3.connect(tie_db)
    conn.execute(
        "CREATE TABLE singer (Singer_ID NUMERIC, Name TEXT, Birth_Year NUMERIC, "
        "Net_Worth_Millions NUMERIC, Citizenship TEXT, PRIMARY KEY (Singer_ID))"
    )
    conn.executemany(
        "INSERT INTO singer VALUES (?, ?, ?, ?, ?)",
        [(1, "Alpha", 1950, 50.0, "France"), (2, "Beta", 1955, 50.0, "Poland")],
    )
    conn.commit()
    conn.close()
    tie_catalog = replace(singer_catalog, db_path=tie_db)
    assert not exec_match(pred, gold, tie_catalog)


# --- ts_match ---------------------------------------------------------------------


def test_ts_identity(singer_catalog, tmp_path):
    gold = "SELECT Citizenship, COUNT(*) FROM singer GROUP BY Citizenship"
    spec = SuiteSpec(suite_count=3, rows_per_table=25, seed=5)
    assert ts_match(gold, gold, singer_catalog, spec, tmp_path)


def test_ts_short_circuits_on_ex_failure(singer_catalog, tmp_path):
    spec = SuiteSpec(suite_count=3, rows_per_table=25, seed=5)
    assert not ts_match("SELECT 1", "SELECT Name FROM singer", singer_catalog, spec, tmp_path)
    assert not list(tmp_path.glob("*.sqlite"))  # no suites were generated


def test_ts_catches_ex_false_positive(singer_catalog, tmp_path):
    gold, pred = TS_FALSE_POSITIVE
    spec = SuiteSpec(suite_count=10, rows_per_table=50, seed=13)
    assert exec_match(pred, gold, singer_catalog)
    assert not ts_match(pred, gold, singer_catalog, spec, tmp_path)


# --- evaluate_file ----------------------------------------------------------------


def _reworded(sql):
    """The statement with lower-case keywords: another text with the same results."""
    return sql.replace("SELECT", "select")


def _write_predictions(path, items):
    with open(path, "w", encoding="utf-8") as handle:
        for example_id, sql in items:
            handle.write(json.dumps({"example_id": example_id, "sql": sql}) + "\n")


def test_evaluate_all_gold(fixture_root, dev_examples, tmp_path):
    pred_path = tmp_path / "pred.jsonl"
    _write_predictions(pred_path, [(e.example_id, e.gold_sql) for e in dev_examples])
    report = evaluate_file(pred_path, fixture_root / "dev.json", fixture_root / "database")
    assert report.ex_accuracy == 1.0
    assert report.ts_accuracy is None
    assert all(q.ex for q in report.per_question)


def test_evaluate_seven_of_ten(fixture_root, tmp_path):
    examples = json.loads((fixture_root / "dev.json").read_text())
    singer = [e for e in examples if e["db_id"] == "singer"]
    records = (singer * 2)[:10]
    dataset = tmp_path / "ten.json"
    dataset.write_text(json.dumps(records))
    preds = []
    for i, record in enumerate(records):
        preds.append((f"{i:06d}", record["query"] if i < 7 else "SELECT NULL"))
    pred_path = tmp_path / "pred.jsonl"
    _write_predictions(pred_path, preds)
    report = evaluate_file(pred_path, dataset, fixture_root / "database")
    assert report.ex_accuracy == pytest.approx(0.7)


def test_evaluate_missing_prediction(fixture_root, tmp_path):
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text("")
    with pytest.raises(MissingPrediction):
        evaluate_file(pred_path, fixture_root / "dev.json", fixture_root / "database")


def test_evaluate_with_ts_implies_ex(fixture_root, dev_examples, tmp_path):
    pred_path = tmp_path / "pred.jsonl"
    rows = []
    for i, example in enumerate(dev_examples):
        sql = example.gold_sql if i % 2 == 0 else "SELECT NULL"
        rows.append((example.example_id, sql))
    _write_predictions(pred_path, rows)
    spec = SuiteSpec(suite_count=2, rows_per_table=20, seed=2)
    report = evaluate_file(
        pred_path, fixture_root / "dev.json", fixture_root / "database", spec, tmp_path / "suites"
    )
    assert report.ts_accuracy is not None
    assert report.ts_accuracy <= report.ex_accuracy
    for q in report.per_question:
        if q.ts:
            assert q.ex


def test_evaluate_ts_runs_ex_once_per_question(fixture_root, dev_examples, tmp_path, monkeypatch):
    """With TS, the original database is matched once (EX), then only the suites."""
    pred_path = tmp_path / "pred.jsonl"
    _write_predictions(pred_path, [(e.example_id, _reworded(e.gold_sql)) for e in dev_examples])
    spec = SuiteSpec(suite_count=3, rows_per_table=10, seed=4)
    matched = []
    match = evaluation.exec_match

    def recording_match(pred, gold, catalog, *args, **kwargs):
        matched.append(catalog.db_path)
        return match(pred, gold, catalog, *args, **kwargs)

    monkeypatch.setattr(evaluation, "exec_match", recording_match)
    report = evaluate_file(
        pred_path, fixture_root / "dev.json", fixture_root / "database", spec, tmp_path / "suites"
    )
    assert report.ex_accuracy == 1.0
    originals = [p for p in matched if "_suite" not in p.name]
    assert len(originals) == len(dev_examples)
    assert 0 < len(matched) - len(originals) <= len(dev_examples) * spec.suite_count


def test_ts_match_reads_observed_values_once(singer_catalog, tmp_path, monkeypatch):
    spec = SuiteSpec(suite_count=4, rows_per_table=10, seed=9)
    gold = "SELECT Name FROM singer WHERE Birth_Year > 1940"
    reads = []
    observed_values = evaluation._observed_values

    def recording_read(catalog, conn):
        reads.append(catalog)
        return observed_values(catalog, conn)

    monkeypatch.setattr(evaluation, "_observed_values", recording_read)
    assert ts_match(_reworded(gold), gold, singer_catalog, spec, tmp_path / "a")  # reaches every suite
    assert len(reads) == 1
    for k in range(1, spec.suite_count + 1):  # same bytes as generating each suite on its own
        alone = oracles.suite_db(singer_catalog, spec, k, tmp_path / "b")
        assert alone.read_bytes() == (tmp_path / "a" / alone.name).read_bytes()


# --- the per-call memo and the reason of each score -------------------------------

_ENDLESS = "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c) SELECT count(*) FROM c"
_TOO_LARGE = "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 FROM c LIMIT 101) SELECT x FROM c"
_GOLDS = [
    "SELECT Name FROM singer WHERE Birth_Year = 1948",
    "SELECT Name FROM singer WHERE Singer_ID > 0",
    "SELECT Name FROM singer ORDER BY Net_Worth_Millions DESC",
    "SELECT Citizenship, COUNT(*) FROM singer GROUP BY Citizenship",
    "SELECT nope FROM nothing",
]
_PREDS = _GOLDS + [
    "SELECT Name FROM singer",  # matches the unordered gold, differs from the ordered one
    "SELECT Name FROM singer WHERE Net_Worth_Millions = 25",  # same rows as _GOLDS[0] on the original only
    "SELEC Name FROM singer",
    "SELECT nope FROM singer",
    "",
    _ENDLESS,
    _TOO_LARGE,
]


@pytest.fixture()
def small_limits(monkeypatch):
    """Make _ENDLESS a timeout and _TOO_LARGE too large, quickly."""
    monkeypatch.setattr(evaluation, "TIMEOUT", 0.1)
    monkeypatch.setattr(execution, "MAX_ROWS", 100)


def _evaluate_pairs(fixture_root, work, pairs, spec):
    """evaluate_file on singer questions given as (gold, pred) pairs."""
    work.mkdir(parents=True, exist_ok=True)
    dataset = work / "pairs.json"
    dataset.write_text(json.dumps(
        [{"question": f"q{i}", "query": gold, "db_id": "singer"} for i, (gold, _) in enumerate(pairs)]
    ))
    _write_predictions(work / "pred.jsonl", [(f"{i:06d}", pred) for i, (_, pred) in enumerate(pairs)])
    return evaluate_file(
        work / "pred.jsonl", dataset, fixture_root / "database", spec, work / "suites"
    )


@settings(max_examples=20, deadline=None)
@given(st.lists(
    st.one_of(
        st.tuples(st.integers(0, len(_GOLDS) - 1), st.integers(0, len(_PREDS) - 1)),
        st.integers(0, len(_GOLDS) - 1).map(lambda g: (g, g)),  # the prediction is its gold
    ),
    min_size=1,
    max_size=6,
))
@example([(1, 5), (2, 5), (0, 6), (4, 0)])
@example([(0, 0), (0, 6), (3, 3), (4, 4), (1, 1)])
def test_memo_scores_like_unmemoized_calls(fixture_root, singer_catalog, tmp_path_factory, draws):
    work = tmp_path_factory.mktemp("memo")
    spec = SuiteSpec(suite_count=2, rows_per_table=10, seed=3)
    pairs = [(_GOLDS[g], _PREDS[p]) for g, p in draws]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "TIMEOUT", 0.1)
        patch.setattr(execution, "MAX_ROWS", 100)
        report = _evaluate_pairs(fixture_root, work / "memo", pairs, spec)
        for i, ((gold, pred), score) in enumerate(zip(pairs, report.per_question)):
            try:
                ex = exec_match(pred, gold, singer_catalog, f"{i:06d}")
            except GoldExecutionFailed as failure:
                assert (score.ex, score.ts, score.gold_error) == (False, None, str(failure))
                continue
            ts = oracles.ts_match(pred, gold, singer_catalog, spec, work / "plain")
            assert (score.ex, score.ts, score.gold_error) == (ex, ts, None)
            assert ts_match(pred, gold, singer_catalog, spec, work / "one") == ts


def test_evaluate_executes_each_statement_once(fixture_root, tmp_path, monkeypatch):
    """One execution per distinct (sql, database file, gold order flag) that scoring reaches."""
    golds = [q["query"] for q in json.loads((fixture_root / "mini_dev.json").read_text())]
    preds = ["SELECT 1", "SELECT Name FROM singer", "SELEC Name"]
    pairs = [(g, g) for g in golds] + [(g, p) for g in golds for p in preds] + [
        ("SELECT nope FROM nothing", "SELECT 1")
    ] * 2
    pairs *= 2  # every question twice, as repeated questions or paraphrases would be
    matches, executed = [], []
    match, run = evaluation.exec_match, evaluation.execute

    def recording_match(pred, gold, catalog, *args, **kwargs):
        try:
            result = match(pred, gold, catalog, *args, **kwargs)
        except GoldExecutionFailed:
            matches.append((pred, gold, catalog.db_path, False))
            raise
        matches.append((pred, gold, catalog.db_path, True))
        return result

    def recording_execute(sql, catalog, *args, **kwargs):
        executed.append((sql, catalog.db_path))
        return run(sql, catalog, *args, **kwargs)

    monkeypatch.setattr(evaluation, "exec_match", recording_match)
    monkeypatch.setattr(evaluation, "execute", recording_execute)
    _evaluate_pairs(fixture_root, tmp_path, pairs, SuiteSpec(suite_count=3, rows_per_table=10, seed=1))
    reached = set()
    for pred, gold, path, gold_ran in matches:
        flag = execution.is_order_sensitive(gold)
        reached.add((gold, path, flag))
        if gold_ran:
            reached.add((pred, path, flag))
    assert Counter(executed) == Counter((sql, path) for sql, path, _ in reached)
    # the same pred under an ORDER BY gold and an unordered one is two entries
    original = fixture_root / "database" / "singer" / "singer.sqlite"
    assert executed.count(("SELECT Name FROM singer", original)) == 2
    assert len(executed) < len(matches)


_SINGER_GOLD = "SELECT Name FROM singer WHERE Birth_Year = 1948 OR Birth_Year = 1949"


@pytest.mark.parametrize(
    "gold, pred, reason",
    [
        pytest.param(
            _SINGER_GOLD, "SELECT name FROM singer WHERE birth_year IN (1948, 1949)", None, id="match"
        ),
        pytest.param("SELECT nope FROM nothing", "SELECT 1", "gold_error", id="gold_error"),
        pytest.param(_SINGER_GOLD, "SELEC Name FROM singer", "pred_error:syntax", id="syntax"),
        pytest.param(_SINGER_GOLD, "SELECT nope FROM singer", "pred_error:runtime", id="runtime"),
        pytest.param(_SINGER_GOLD, _ENDLESS, "pred_error:timeout", id="timeout"),
        pytest.param(_SINGER_GOLD, "", "pred_error:empty_sql", id="empty_sql"),
        pytest.param(_SINGER_GOLD, _TOO_LARGE, "pred_error:too_large", id="too_large"),
        pytest.param(_SINGER_GOLD, "SELECT Name FROM singer", "differs:original", id="differs"),
        pytest.param(  # Python's sqlite3 refuses a second `;`; the gold is scored all the same
            _SINGER_GOLD + ";;", "SELECT name FROM singer WHERE birth_year IN (1948, 1949)", None,
            id="gold_trailing_semicolons",
        ),
    ],
)
@pytest.mark.parametrize("ts", [False, True], ids=["ex", "ts"])
def test_reason_on_the_original_database(fixture_root, tmp_path, small_limits, gold, pred, reason, ts):
    spec = SuiteSpec(suite_count=2, rows_per_table=10, seed=3) if ts else None
    (score,) = _evaluate_pairs(fixture_root, tmp_path, [(gold, pred)], spec).per_question
    assert score.reason == reason
    assert score.ex is (reason is None)


def test_gold_over_the_byte_budget_is_a_gold_error(fixture_root, tmp_path, monkeypatch):
    monkeypatch.setattr(execution, "MAX_RESULT_BYTES", 64 * 1024)
    gold = "SELECT zeroblob(20000) FROM singer"  # 6 rows of 20 kB
    (score,) = _evaluate_pairs(fixture_root, tmp_path, [(gold, "SELECT 1")], None).per_question
    assert score.reason == "gold_error"


def test_reason_names_the_first_differing_suite(fixture_root, singer_catalog, tmp_path):
    gold, pred = TS_FALSE_POSITIVE
    spec = SuiteSpec(suite_count=10, rows_per_table=50, seed=13)
    alone = [oracles.suite_db(singer_catalog, spec, k, tmp_path / "alone") for k in range(1, spec.suite_count + 1)]
    first = next(
        k for k, path in enumerate(alone, 1) if not exec_match(pred, gold, replace(singer_catalog, db_path=path))
    )
    (score,) = _evaluate_pairs(fixture_root, tmp_path, [(gold, pred)], spec).per_question
    assert (score.ex, score.ts, score.reason) == (True, False, f"differs:suite{first}")


# --- the suite generator against the per-cell reference ---------------------------


def _suite_digest(path) -> str:
    """SHA-256 of a suite file, with the writing library's version stamp zeroed.

    Bytes 96-99 of an SQLite header hold SQLITE_VERSION_NUMBER of the last
    library that wrote the file; every other byte comes from the generator.
    """
    data = bytearray(path.read_bytes())
    data[96:100] = bytes(4)
    return hashlib.sha256(data).hexdigest()


_PINNED_SUITES = {
    ("singer", 1): "61333abbe187227167fe5b19dc43c9c87d0bb32508b697dc10c86273df7e87c0",
    ("singer", 2): "75529288de1dd0df522f13e3b47762a838a73e68db606daf589bad047cbd021d",
    ("car_1", 1): "87be2e13e124fc3071d81d087604b9c512e8f5a0bb8bf3168aa0ad54919e0d9d",
    ("car_1", 2): "5ee5e0c8a2cf22f6a1ecaaf6534686549958900e15f98dec29fa02993f42a998",
}


def test_suite_files_are_pinned(singer_catalog, car_catalog, tmp_path):
    spec = SuiteSpec(suite_count=2, rows_per_table=40, seed=7)
    digests = {
        (catalog.db_id, index): _suite_digest(oracles.suite_db(catalog, spec, index, tmp_path))
        for catalog in (singer_catalog, car_catalog)
        for index in (1, 2)
    }
    assert digests == _PINNED_SUITES


_KINDS = [ColumnType.NUMBER, ColumnType.TEXT, ColumnType.TIME, ColumnType.BOOLEAN, ColumnType.OTHERS]
_WORDS = st.text("abcxyz", min_size=1, max_size=4)  # never read as a number by NUMERIC affinity
_OBSERVED = {
    ColumnType.NUMBER: st.one_of(st.integers(-50, 50), st.floats(-50, 50).map(lambda v: round(v, 2)), _WORDS),
    ColumnType.TIME: st.dates().map(lambda d: d.isoformat()),
    ColumnType.BOOLEAN: st.integers(0, 1),
}


@st.composite
def _suite_cases(draw):
    """(tables as kind lists, primary keys, foreign keys, observed values, spec, suite index)."""
    tables = draw(st.lists(st.lists(st.sampled_from(_KINDS), min_size=1, max_size=4), min_size=1, max_size=3))
    refs = st.sampled_from([(t, c) for t, kinds in enumerate(tables) for c in range(len(kinds))])
    primary = draw(st.lists(refs, unique=True, max_size=3))
    foreign = draw(st.lists(st.tuples(refs, refs), max_size=4))
    observed = {
        (t, c): draw(st.lists(_OBSERVED.get(kind, _WORDS), max_size=5, unique_by=repr))
        for t, kinds in enumerate(tables)
        for c, kind in enumerate(kinds)
    }
    spec = SuiteSpec(suite_count=1, rows_per_table=draw(st.integers(1, 8)), seed=draw(st.integers(0, 9)))
    return tables, primary, foreign, observed, spec, draw(st.integers(1, 3))


def _fuzz_catalog(tables, primary, foreign, path) -> DatabaseCatalog:
    schemas = tuple(
        TableSchema(f"t{t}", tuple(ColumnSchema(f"c{c}", kind) for c, kind in enumerate(kinds)))
        for t, kinds in enumerate(tables)
    )
    return DatabaseCatalog("fuzz", schemas, tuple(primary), tuple(foreign), path)


_CYCLE_CASE = (  # every kind, an empty observed column, a numeric PK, an FK 2-cycle and a self-reference
    [[ColumnType.NUMBER, ColumnType.NUMBER, ColumnType.TEXT],
     [ColumnType.BOOLEAN, ColumnType.NUMBER, ColumnType.TIME, ColumnType.OTHERS]],
    [(0, 0), (1, 0)],
    [((0, 1), (1, 1)), ((1, 1), (0, 0)), ((0, 2), (0, 2))],
    {(0, 0): [3, 4], (0, 1): [], (0, 2): ["ab"], (1, 0): [1], (1, 1): [2.5, "x"], (1, 2): [],
     (1, 3): ["z"]},
    SuiteSpec(suite_count=1, rows_per_table=6, seed=1),
    2,
)


@settings(max_examples=150, deadline=None)
@given(_suite_cases())
@example(_CYCLE_CASE)
def test_suite_rows_equal_per_cell_reference(tmp_path_factory, case):
    tables, primary, foreign, observed, spec, index = case
    out_dir = tmp_path_factory.mktemp("fuzz")
    catalog = _fuzz_catalog(tables, primary, foreign, out_dir / "fuzz.sqlite")
    inserted = []

    class Recording(sqlite3.Connection):
        def executemany(self, sql, rows):
            rows = list(rows)
            inserted.append((sql.split('"')[1], rows))
            return super().executemany(sql, rows)

    connect = sqlite3.connect
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sqlite3, "connect", lambda *a, **k: connect(*a, factory=Recording, **k))
        generate_suite_db(catalog, spec, index, out_dir, observed=observed)
    order, dropped = evaluation._topological_tables(catalog)
    expected = oracles.suite_rows(catalog, spec, index, observed, order, dropped)
    assert repr(inserted) == repr(expected)


# --- one database at a time: connections, order flags -----------------------------


class _Recorded:
    """A connection that reports its own close to the recorder that opened it."""

    def __init__(self, conn, path, recorder):
        self._conn, self._path, self._recorder = conn, path, recorder

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def close(self):
        self._recorder.open.discard(self._path)
        self._conn.close()


class _ConnectionRecorder:
    def __init__(self, connect):
        self._connect = connect
        self.opened: list = []
        self.open: set = set()
        self.most_open = 0

    def __call__(self, catalog):
        conn = _Recorded(self._connect(catalog), catalog.db_path, self)
        self.opened.append(catalog.db_path)
        self.open.add(catalog.db_path)
        self.most_open = max(self.most_open, len(self.open))
        return conn


@pytest.fixture()
def connections(monkeypatch):
    """Record every read-only connection that evaluation or execution opens."""
    recorder = _ConnectionRecorder(execution.connect_readonly)
    monkeypatch.setattr(evaluation, "connect_readonly", recorder)
    monkeypatch.setattr(execution, "connect_readonly", recorder)
    return recorder


def _two_database_dataset(fixture_root, work, last_db="car_1", reworded=False):
    """Singer and `last_db` questions; predicted by their golds, or with `reworded`
    by the golds with lower-case keywords: other texts with the same results."""
    singer = json.loads((fixture_root / "mini_dev.json").read_text())
    records = singer * 2 + [
        {"question": "q car", "query": "SELECT count(*) FROM cars_data", "db_id": last_db},
        {"question": "q one", "query": "SELECT 1", "db_id": "singer"},
        {"question": "q one car", "query": "SELECT 1", "db_id": last_db},
    ]
    work.mkdir(parents=True, exist_ok=True)
    dataset = work / "two.json"
    dataset.write_text(json.dumps(records))
    pred_path = work / "pred.jsonl"
    preds = [_reworded(r["query"]) if reworded else r["query"] for r in records]
    _write_predictions(pred_path, [(f"{i:06d}", sql) for i, sql in enumerate(preds)])
    return pred_path, dataset


def test_evaluate_opens_each_file_once_and_closes_all(fixture_root, tmp_path, connections):
    pred_path, dataset = _two_database_dataset(fixture_root, tmp_path, reworded=True)
    spec = SuiteSpec(suite_count=3, rows_per_table=10, seed=2)
    report = evaluate_file(pred_path, dataset, fixture_root / "database", spec, tmp_path / "suites")
    assert report.ex_accuracy == 1.0
    assert len(connections.opened) == len(set(connections.opened)) == 2 * (spec.suite_count + 1)
    assert connections.most_open == spec.suite_count + 1
    assert not connections.open


def test_evaluate_closes_connections_when_a_database_fails(fixture_root, tmp_path, connections):
    pred_path, dataset = _two_database_dataset(fixture_root, tmp_path, last_db="ghost", reworded=True)
    spec = SuiteSpec(suite_count=2, rows_per_table=10, seed=2)
    with pytest.raises(MissingDbFile):
        evaluate_file(pred_path, dataset, fixture_root / "database", spec, tmp_path / "suites")
    assert len(connections.opened) == spec.suite_count + 1  # the singer database was scored
    assert not connections.open


def test_evaluate_closes_connections_when_generation_fails(fixture_root, tmp_path, connections, monkeypatch):
    pred_path, dataset = _two_database_dataset(fixture_root, tmp_path, reworded=True)
    generate = evaluation.generate_suite_db

    def failing_generate(catalog, spec, suite_index, *args, **kwargs):
        if catalog.db_id == "car_1" and suite_index == 2:
            raise GenerationFailed("disk full")
        return generate(catalog, spec, suite_index, *args, **kwargs)

    monkeypatch.setattr(evaluation, "generate_suite_db", failing_generate)
    spec = SuiteSpec(suite_count=3, rows_per_table=10, seed=2)
    with pytest.raises(GenerationFailed):
        evaluate_file(pred_path, dataset, fixture_root / "database", spec, tmp_path / "suites")
    assert connections.opened[-1] == tmp_path / "suites" / "car_1__suite001__seed2.sqlite"
    assert not connections.open


# --- suites built on first use ----------------------------------------------------


def test_gold_identical_predictions_open_no_suite(fixture_root, tmp_path, connections):
    pred_path, dataset = _two_database_dataset(fixture_root, tmp_path)
    spec = SuiteSpec(suite_count=3, rows_per_table=10, seed=2)
    report = evaluate_file(pred_path, dataset, fixture_root / "database", spec, tmp_path / "suites")
    assert report.ts_accuracy == 1.0
    assert all(q.reason is None for q in report.per_question)
    database = fixture_root / "database"
    assert connections.opened == [database / "singer" / "singer.sqlite", database / "car_1" / "car_1.sqlite"]
    assert not list((tmp_path / "suites").glob("*"))
    assert not connections.open


def test_a_miss_on_the_first_suite_writes_only_that_suite(fixture_root, singer_catalog, tmp_path):
    gold = "SELECT count(*) FROM singer"
    (count,) = execution.execute(gold, singer_catalog).rows[0]
    spec = SuiteSpec(suite_count=4, rows_per_table=count + 3, seed=1)
    pairs = [(gold, gold), (gold, f"SELECT {count}"), (gold, f"SELECT {count} + 0"), (gold, "SELECT 0")]
    report = _evaluate_pairs(fixture_root, tmp_path, pairs, spec)
    assert [(q.ex, q.ts, q.reason) for q in report.per_question] == [
        (True, True, None),
        (True, False, "differs:suite1"),
        (True, False, "differs:suite1"),
        (False, False, "differs:original"),
    ]
    assert [p.name for p in (tmp_path / "suites").iterdir()] == ["singer__suite001__seed1.sqlite"]


def test_suites_built_on_first_use_equal_suites_built_alone(fixture_root, singer_catalog, tmp_path):
    spec = SuiteSpec(suite_count=3, rows_per_table=10, seed=4)
    gold = "SELECT Name FROM singer WHERE Birth_Year > 1940"
    pairs = [(gold, "SELECT 1"), (gold, gold.replace("SELECT", "select"))]  # the second reads every suite
    report = _evaluate_pairs(fixture_root, tmp_path, pairs, spec)
    assert [q.ts for q in report.per_question] == [False, True]
    for k in range(1, spec.suite_count + 1):
        lazy = tmp_path / "suites" / f"singer__suite{k:03d}__seed4.sqlite"
        alone = oracles.suite_db(singer_catalog, spec, k, tmp_path / "alone")
        assert lazy.read_bytes() == alone.read_bytes()


def test_evaluate_reads_each_gold_order_flag_once_per_database(fixture_root, tmp_path, monkeypatch):
    pred_path, dataset = _two_database_dataset(fixture_root, tmp_path)
    flags = []
    order_sensitive = evaluation.is_order_sensitive

    def recording_flag(sql):
        flags.append(sql)
        return order_sensitive(sql)

    monkeypatch.setattr(evaluation, "is_order_sensitive", recording_flag)
    evaluate_file(
        pred_path, dataset, fixture_root / "database", SuiteSpec(2, 10, 2), tmp_path / "suites"
    )
    golds = {(r["query"], r["db_id"]) for r in json.loads(dataset.read_text())}
    assert Counter(flags) == Counter(gold for gold, _ in golds)
