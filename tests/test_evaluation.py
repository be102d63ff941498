from __future__ import annotations

import json
import sqlite3
from dataclasses import replace

import pytest

from sqlvote import evaluation
from sqlvote.catalog import load_catalogs
from sqlvote.errors import GoldExecutionFailed, MissingPrediction
from sqlvote.evaluation import (
    SuiteSpec,
    cycle_broken_edges,
    evaluate_file,
    exec_match,
    generate_suite_db,
    suite_catalogs,
    ts_match,
)

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
        return _pk_violations(conn, catalog), _fk_violations(conn, catalog, cycle_broken_edges(catalog))
    finally:
        conn.close()


def test_suite_referential_integrity(car_catalog, tmp_path):
    spec = SuiteSpec(suite_count=1, rows_per_table=50, seed=3)
    path = generate_suite_db(car_catalog, spec, 1, tmp_path)
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
    first = generate_suite_db(singer_catalog, spec, 1, tmp_path / "a")
    second = generate_suite_db(singer_catalog, spec, 1, tmp_path / "b")
    assert first.read_bytes() == second.read_bytes()


def test_suite_differs_across_indices(singer_catalog, tmp_path):
    spec = SuiteSpec(suite_count=2, rows_per_table=30, seed=11)
    one = generate_suite_db(singer_catalog, spec, 1, tmp_path)
    two = generate_suite_db(singer_catalog, spec, 2, tmp_path)
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

    dropped = cycle_broken_edges(catalog)
    assert len(dropped) == 1  # one edge is enough to break a 2-cycle

    path = generate_suite_db(catalog, SuiteSpec(suite_count=1, rows_per_table=10, seed=1), 1, tmp_path)
    conn = sqlite3.connect(path)
    pk_bad = _pk_violations(conn, catalog)
    fk_bad = _fk_violations(conn, catalog, dropped)
    conn.close()
    assert pk_bad == 0 and fk_bad == 0


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


def test_suite_catalogs_generates_all(singer_catalog, tmp_path):
    spec = SuiteSpec(suite_count=4, rows_per_table=10, seed=9)
    suites = suite_catalogs(singer_catalog, spec, tmp_path)
    assert len(suites) == 4
    assert all(s.db_path.exists() for s in suites)


def test_evaluate_ts_runs_ex_once_per_question(fixture_root, dev_examples, tmp_path, monkeypatch):
    """With TS, the original database is matched once (EX), then only the suites."""
    pred_path = tmp_path / "pred.jsonl"
    _write_predictions(pred_path, [(e.example_id, e.gold_sql) for e in dev_examples])
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
    assert len(matched) - len(originals) <= len(dev_examples) * spec.suite_count


def test_suite_catalogs_reads_observed_values_once(singer_catalog, tmp_path, monkeypatch):
    spec = SuiteSpec(suite_count=4, rows_per_table=10, seed=9)
    reads = []
    observed_values = evaluation._observed_values

    def recording_read(catalog):
        reads.append(catalog)
        return observed_values(catalog)

    monkeypatch.setattr(evaluation, "_observed_values", recording_read)
    suites = suite_catalogs(singer_catalog, spec, tmp_path / "a")
    assert len(reads) == 1
    for suite in suites:  # same bytes as generating each suite on its own
        index = int(suite.db_path.name.split("__suite")[1][:3])
        alone = generate_suite_db(singer_catalog, spec, index, tmp_path / "b")
        assert alone.read_bytes() == suite.db_path.read_bytes()
