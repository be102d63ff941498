"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import replace

import pytest

from sqlvote.catalog import load_examples
from sqlvote.cli import main
from sqlvote.evaluation import SuiteSpec, evaluate_file, exec_match, ts_match
from sqlvote.execution import ErrorKind, ExecutionOutcome, OutcomeKey, canonical_key, execute
from sqlvote.gateway import Gateway, ModelArm, ScriptedBackend
from sqlvote.linking import link_values
from sqlvote.prompts import PromptDesignId, render
from sqlvote.voting import CandidatePool, run_question, select_by_consistency

from conftest import read_golden
from oracles import majority_select, suite_db
from pipeline_fixtures import write_run_config, write_scripted_fixture
from test_evaluation import EX_PAIRS, TS_FALSE_POSITIVE, check_suite_integrity


def _report(name: str) -> None:
    print(f"[acceptance] {name}: PASS")


# --- 1. golden prompts ------------------------------------------------------------


def test_golden_prompts(fixture_root, tmp_path, capsys):
    start = time.monotonic()
    config_path = write_run_config(fixture_root, tmp_path, tmp_path / "s", dataset_name="dev.json")
    for design in ("concise", "verbose", "baseline_default"):
        code = main([
            "show-prompt", "--config", str(config_path),
            "--example", "000000", "--design", design, "--shots", "0",
        ])
        assert code == 0
        assert capsys.readouterr().out == read_golden(design), design
    assert time.monotonic() - start < 1.0
    with capsys.disabled():
        _report("golden prompts (concise, verbose, baseline_default)")


# --- 2. vote oracle ---------------------------------------------------------------

_ARM = ModelArm("m", PromptDesignId.CONCISE, samples=2)


def _success(rows):
    return ExecutionOutcome.success(rows)


def _pool(outcomes):
    """A pool as build_pool leaves it, position i holding `SELECT i`: outcomes reduced to keys or error kinds."""
    slots = tuple(f"SELECT {i}" for i in range(len(outcomes)))
    reduced = {
        sql: canonical_key(outcome, False) if outcome.is_success else outcome.error_kind
        for sql, outcome in zip(slots, outcomes)
    }
    return CandidatePool(slots, reduced, (replace(_ARM, samples=len(slots)),) if slots else ())


def test_vote_oracle_thousand_pools(capsys):
    start = time.monotonic()
    rng = random.Random(424242)
    agreements = 0
    for _ in range(1000):
        size = rng.randint(0, 40)
        n_keys = rng.randint(1, 5)
        error_rate = rng.uniform(0.0, 0.3)
        outcomes = []
        for _ in range(size):
            if rng.random() < error_rate:
                outcomes.append(ExecutionOutcome.error(rng.choice(list(ErrorKind))))
            else:
                outcomes.append(_success([(rng.randrange(n_keys),)]))
        pool = _pool(outcomes)
        result = select_by_consistency(pool)
        winner_position, best, tie = majority_select(
            [
                (position, list(outcome.rows or []), not outcome.is_success)
                for position, outcome in enumerate(outcomes)
            ]
        )
        if winner_position is None:
            assert result.selected_sql is None
        else:
            assert result.selected_sql == pool.slots[winner_position]
            assert result.tallies[result.winning_key] == best
            assert result.tie_broken == tie
        agreements += 1
    assert agreements == 1000
    assert time.monotonic() - start < 10.0
    with capsys.disabled():
        _report("vote oracle (1000 randomized pools, 100% agreement)")


# --- 3. two-design mixture resolves single-design ties ----------------------------


def _scripted_run(example, catalog, design_completions, samples):
    matches = link_values(example.question, catalog)
    table = {}
    arms = []
    for design, completions in design_completions.items():
        prompt = render(design, example, catalog, matches)
        table[prompt.content_hash] = completions
        arms.append(ModelArm("m", design, samples=samples))
    gateway = Gateway()
    gateway.register_backend("m", ScriptedBackend(table))
    return run_question(example, catalog, arms, seed=0, gateway=gateway)


def test_mixture_breaks_single_design_tie(fixture_root, catalogs, capsys):
    examples = load_examples(fixture_root / "mini_dev.json", catalogs)
    example = examples[0]
    singer = catalogs[1]
    concise = ["SELECT 1", "SELECT 2"]
    verbose = ["SELECT 1+1", "SELECT 3"]  # same outcome as "SELECT 2", plus a third key

    alone_concise, _ = _scripted_run(example, singer, {PromptDesignId.CONCISE: concise}, 2)
    assert alone_concise.tie_broken
    assert sorted(alone_concise.tallies.values()) == [1, 1]

    alone_verbose, _ = _scripted_run(example, singer, {PromptDesignId.VERBOSE: verbose}, 2)
    assert alone_verbose.tie_broken
    assert sorted(alone_verbose.tallies.values()) == [1, 1]

    mixed, pool = _scripted_run(
        example, singer,
        {PromptDesignId.CONCISE: concise, PromptDesignId.VERBOSE: verbose},
        2,
    )
    assert len(pool.candidates) == 4
    assert not mixed.tie_broken
    assert mixed.tallies[mixed.winning_key] == 2
    assert mixed.selected_sql == "SELECT 2"
    two_key = canonical_key(execute("SELECT 2", singer), order_sensitive=False)
    assert mixed.winning_key == two_key
    with capsys.disabled():
        _report("two-design mixture resolves the single-design tie (2-vs-1 majority)")


# --- 4. error filtering contributes ------------------------------------------------


def test_error_filtering_contributes(fixture_root, catalogs, capsys):
    examples = load_examples(fixture_root / "mini_dev.json", catalogs)
    singer = catalogs[1]
    correct_variants = {
        0: [
            "SELECT Name FROM singer WHERE Birth_Year  =  1948 OR Birth_Year  =  1949",
            "SELECT name FROM singer WHERE birth_year = 1948 OR birth_year = 1949",
        ],
        1: [
            "SELECT Name FROM singer ORDER BY Net_Worth_Millions DESC LIMIT 1",
            "SELECT Name FROM singer WHERE Net_Worth_Millions = 40",
        ],
        2: [
            "SELECT Citizenship ,  COUNT(*) FROM singer GROUP BY Citizenship",
            "SELECT citizenship, count(*) FROM singer GROUP BY citizenship",
        ],
        3: [
            "SELECT T2.Title ,  T1.Name FROM singer AS T1 JOIN song AS T2 ON T1.Singer_ID  =  T2.Singer_ID",
            "SELECT T1.title ,  T2.name FROM song AS T1 JOIN singer AS T2 ON T1.singer_id = T2.singer_id",
        ],
        4: [
            "SELECT Name FROM singer WHERE Singer_ID NOT IN (SELECT Singer_ID FROM song)",
            "SELECT name FROM singer WHERE singer_id NOT IN ( SELECT singer_id FROM song )",
        ],
    }
    broken = ["SELEC oops", "SELECT FROM WHERE", "garbage((("]

    flips = 0
    for i, example in enumerate(examples):
        completions = correct_variants[i] + broken  # 2 valid vs 3 errors
        result, pool = _scripted_run(
            example, singer, {PromptDesignId.CONCISE: completions}, samples=5
        )
        gold_key = canonical_key(execute(example.gold_sql, singer), order_sensitive=False)
        assert result.selected_sql is not None
        winner_key = canonical_key(execute(result.selected_sql, singer), order_sensitive=False)
        assert winner_key == gold_key, f"question {i} selected a wrong-outcome SQL"

        # No-filtering comparator: every error shares one synthetic key.
        tallies: dict = {}
        first_position: dict = {}
        for candidate in pool.candidates:
            key = candidate.outcome if isinstance(candidate.outcome, OutcomeKey) else "ERRORS"
            tallies[key] = tallies.get(key, 0) + 1
            first_position.setdefault(key, candidate.pool_position)
        best = max(tallies.values())
        unfiltered_winner = min(
            (key for key, count in tallies.items() if count == best),
            key=lambda key: first_position[key],
        )
        if unfiltered_winner == "ERRORS" or unfiltered_winner != gold_key:
            flips += 1
    assert flips >= 1
    with capsys.disabled():
        _report(f"error filtering contributes (winner flips on {flips}/5 without filtering)")


# --- 5. EX fixtures ----------------------------------------------------------------


def test_ex_fixture_pairs(singer_catalog, capsys):
    assert len(EX_PAIRS) == 10
    for gold, pred, expected in EX_PAIRS:
        assert exec_match(pred, gold, singer_catalog) is expected, (gold, pred)
    # the two provable anchors
    assert exec_match(EX_PAIRS[1][1], EX_PAIRS[1][0], singer_catalog) is True
    assert exec_match(EX_PAIRS[8][1], EX_PAIRS[8][0], singer_catalog) is False
    with capsys.disabled():
        _report("EX fixtures (10 transcribed pairs, exact booleans)")


# --- 6. TS strictness ----------------------------------------------------------------


def test_ts_strictness(fixture_root, singer_catalog, dev_examples, tmp_path, capsys):
    gold, pred = TS_FALSE_POSITIVE
    spec = SuiteSpec(suite_count=10, rows_per_table=50, seed=13)
    assert exec_match(pred, gold, singer_catalog)
    assert not ts_match(pred, gold, singer_catalog, spec, tmp_path / "pair_suites")

    # whole fixture run: TS <= EX
    pred_path = tmp_path / "pred.jsonl"
    with open(pred_path, "w", encoding="utf-8") as handle:
        for i, example in enumerate(dev_examples):
            sql = example.gold_sql if i % 2 == 0 else "SELECT NULL"
            handle.write(json.dumps({"example_id": example.example_id, "sql": sql}) + "\n")
    report = evaluate_file(
        pred_path,
        fixture_root / "dev.json",
        fixture_root / "database",
        SuiteSpec(suite_count=3, rows_per_table=20, seed=2),
        tmp_path / "run_suites",
    )
    assert report.ts_accuracy is not None
    assert report.ts_accuracy <= report.ex_accuracy
    for question in report.per_question:
        if question.ts:
            assert question.ex
    with capsys.disabled():
        _report("TS strictness (ex=true/ts=false pair; TS <= EX on the fixture run)")


# --- 7. end-to-end determinism -------------------------------------------------------


def test_end_to_end_determinism(fixture_root, tmp_path, capsys):
    start = time.monotonic()
    scripted = tmp_path / "scripted"
    write_scripted_fixture(fixture_root, scripted)
    config_path = write_run_config(fixture_root, tmp_path, scripted)

    assert main(["predict", "--config", str(config_path)]) == 0
    cold = (tmp_path / "predictions.jsonl").read_bytes()
    assert main(["predict", "--config", str(config_path)]) == 0
    warm = (tmp_path / "predictions.jsonl").read_bytes()
    assert cold == warm
    capsys.readouterr()

    code = main([
        "evaluate",
        "--pred", str(tmp_path / "predictions.jsonl"),
        "--dataset", str(fixture_root / "mini_dev.json"),
        "--db-dir", str(fixture_root / "database"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "EX: 1.0000" in out
    assert time.monotonic() - start < 30.0
    with capsys.disabled():
        _report("end-to-end determinism (cold/warm byte-identical, EX = 1.0)")


# --- 8. suite integrity ---------------------------------------------------------------


def test_suite_integrity_hundred_databases(catalogs, tmp_path, capsys):
    start = time.monotonic()
    plans = [(catalogs[0], 34), (catalogs[1], 33), (catalogs[2], 33)]
    generated = 0
    violations = 0
    for catalog, count in plans:
        for i in range(count):
            spec = SuiteSpec(suite_count=count, rows_per_table=50, seed=100 + i)
            path = suite_db(catalog, spec, i + 1, tmp_path / catalog.db_id)
            pk_bad, fk_bad = check_suite_integrity(catalog, path)
            violations += pk_bad + fk_bad
            generated += 1
    assert generated == 100
    assert violations == 0
    assert time.monotonic() - start < 60.0
    with capsys.disabled():
        _report("suite integrity (100 databases, 0 key violations)")


# --- 9. sandbox safety -----------------------------------------------------------------


def _adversarial_candidates() -> tuple[list[str], list[str]]:
    writes = [
        "INSERT INTO singer VALUES (77, 'Mallory', 1900, 0.0, 'Atlantis')",
        "UPDATE singer SET Name = 'pwned'",
        "DELETE FROM singer",
        "DROP TABLE singer",
        "DROP TABLE IF EXISTS song",
        "CREATE TABLE pwned (a TEXT)",
        "CREATE INDEX idx_pwn ON singer (Name)",
        "ALTER TABLE singer ADD COLUMN pwned TEXT",
        "REINDEX",
        "VACUUM",
        "PRAGMA query_only = OFF",
        "PRAGMA journal_mode = WAL",
        "ATTACH DATABASE '/tmp/sqlvote_evil.db' AS evil",
        "CREATE TRIGGER t AFTER INSERT ON singer BEGIN SELECT 1; END",
        "CREATE VIEW v AS SELECT * FROM singer",
        "REPLACE INTO singer VALUES (1, 'x', 1, 1, 'y')",
        "INSERT OR IGNORE INTO song VALUES (99, 't', 1, 5)",
        "UPDATE song SET Sales = Sales * 2 WHERE Song_ID = 1",
        "DELETE FROM song WHERE Sales < 1000000",
        "ALTER TABLE song RENAME TO songs",
    ]
    junk = [
        "",
        "   ",
        "SELEC * FROM singer",
        "SELECT * FROM missing_table",
        "SELECT 'unterminated",
        "))((",
        "WITH x AS (SELECT 1) INSERT INTO singer SELECT * FROM x",
        "SELECT load_extension('evil')",
        "SELECT * FROM sqlite_master; DROP TABLE singer",
        "😈 not sql at all",
    ]
    write_attempts = [writes[i % len(writes)] + ("" if i < 20 else f" -- v{i}") for i in range(140)]
    junk_attempts = [junk[i % len(junk)] for i in range(59)]
    return write_attempts, junk_attempts


def test_sandbox_safety(catalogs, capsys):
    singer = catalogs[1]
    snapshots = {c.db_id: c.db_path.read_bytes() for c in catalogs}

    write_attempts, junk_attempts = _adversarial_candidates()
    executed = 0
    for sql in write_attempts:
        for catalog in catalogs:
            outcome = execute(sql, catalog, timeout=5.0)
            assert outcome.kind == "error", sql
        executed += 1
    for sql in junk_attempts:
        for catalog in catalogs:
            outcome = execute(sql, catalog, timeout=5.0)
            assert outcome.kind in ("success", "error")  # total classification
            if outcome.kind == "error":
                assert outcome.error_kind is not None
        executed += 1

    begun = time.monotonic()
    timeout_outcome = execute(
        "WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM r) SELECT count(*) FROM r",
        singer,
        timeout=5.0,
    )
    elapsed = time.monotonic() - begun
    executed += 1
    assert executed == 200
    assert timeout_outcome.error_kind is ErrorKind.TIMEOUT
    assert elapsed < 6.0

    for catalog in catalogs:
        assert catalog.db_path.read_bytes() == snapshots[catalog.db_id], catalog.db_id
    with capsys.disabled():
        _report("sandbox safety (200 adversarial candidates, files byte-identical)")
