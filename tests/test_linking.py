from __future__ import annotations

import os
import random
import sqlite3
import string
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sqlvote import linking
from sqlvote.catalog import catalog_from_sqlite
from sqlvote.errors import DbUnreadable
from sqlvote.linking import MATCH_THRESHOLD, could_match, link_values, score_match

from conftest import CAR_QUESTION
from oracles import lcs_ratio, scan_matches


def test_score_verbatim_value():
    assert score_match(CAR_QUESTION, "amc hornet sportabout (sw)") == 1.0


def test_score_disjoint_alphabets():
    assert score_match("hello", "xyz") == 0.0


def test_score_hand_computed():
    # LCS "cat" has length 3 over len("cats") = 4
    assert score_match("the cat sat", "cats") == pytest.approx(0.75)


def test_score_case_insensitive():
    assert score_match("The CAT sat", "cAtS") == score_match("the cat sat", "cats")


def _random_text(rng, n):
    return "".join(rng.choice(string.ascii_lowercase + "  ") for _ in range(n))


def test_score_matches_quadratic_oracle():
    rng = random.Random(7)
    for _ in range(300):
        question = _random_text(rng, rng.randint(1, 40))
        value = _random_text(rng, rng.randint(1, 12))
        assert score_match(question, value) == pytest.approx(lcs_ratio(question, value))


def test_score_bounds():
    rng = random.Random(11)
    for _ in range(200):
        question = _random_text(rng, rng.randint(1, 30))
        value = _random_text(rng, rng.randint(1, 10))
        score = score_match(question, value)
        assert 0.0 <= score <= 1.0
        assert (score == 1.0) == (value.lower() in question.lower())


def test_car_question_matches(car_catalog):
    matches = link_values(CAR_QUESTION, car_catalog)
    triples = {(m.table_name, m.column_name, m.value) for m in matches}
    assert ("car_names", "Make", "amc hornet") in triples
    assert ("car_names", "Make", "amc hornet sportabout (sw)") in triples
    assert ("car_makers", "Maker", "amc") in triples


def test_matches_agree_with_bruteforce_scan(car_catalog, singer_catalog):
    """The whole-db scan oracle and link_values agree for several questions."""
    questions = [
        CAR_QUESTION,
        "Which cars are named amc hornet?",
        "What is the name of the singer with the largest net worth?",
        "Show all singers with citizenship France.",
        "totally unrelated words qqqq zzzz",
    ]
    for catalog in (car_catalog, singer_catalog):
        db_values = {}
        conn = sqlite3.connect(catalog.db_path)
        for table in catalog.tables:
            for column in table.columns:
                if column.data_type.value != "text":
                    continue
                rows = conn.execute(f'SELECT "{column.name}" FROM "{table.name}"').fetchall()
                db_values[(table.name, column.name)] = [
                    r[0] for r in rows if isinstance(r[0], str) and r[0]
                ]
        conn.close()
        for question in questions:
            expected = scan_matches(question, db_values, threshold=0.85)
            got = {
                (m.table_name, m.column_name, m.value)
                for m in link_values(question, catalog, max_per_column=10_000)
            }
            assert got == expected, question


def test_no_overlap_gives_empty(car_catalog):
    assert link_values("zzzz qqqq jjjj", car_catalog) == []


def test_quoted_value_scores_one(car_catalog):
    matches = link_values('How fast is the "amc hornet" really?', car_catalog)
    hornet = [m for m in matches if m.value == "amc hornet"]
    assert hornet and all(m.score == 1.0 for m in hornet)


def test_monotone_truncation(car_catalog):
    for question in (CAR_QUESTION, "Which cars are named amc?"):
        small = link_values(question, car_catalog, max_per_column=1)
        large = link_values(question, car_catalog, max_per_column=2)
        by_column_small = {}
        for m in small:
            by_column_small.setdefault((m.table_name, m.column_name), []).append(m)
        by_column_large = {}
        for m in large:
            by_column_large.setdefault((m.table_name, m.column_name), []).append(m)
        for key, members in by_column_small.items():
            assert members == by_column_large[key][: len(members)]


def test_no_duplicate_triples_and_deterministic(car_catalog):
    first = link_values(CAR_QUESTION, car_catalog)
    second = link_values(CAR_QUESTION, car_catalog)
    assert first == second
    triples = [(m.table_name, m.column_name, m.value) for m in first]
    assert len(triples) == len(set(triples))


def test_only_text_columns(car_catalog):
    # cars_data.Accelerate is numeric; quoting a numeric value must not link it
    matches = link_values("what accelerates at 11.5 exactly?", car_catalog)
    assert all(m.column_name.lower() not in ("accelerate", "weight", "year") for m in matches)


def test_unreadable_db(car_catalog, tmp_path):
    from dataclasses import replace

    broken = replace(car_catalog, db_path=tmp_path / "missing" / "no.sqlite")
    with pytest.raises(DbUnreadable):
        link_values(CAR_QUESTION, broken)


# --- exact prefilter ----------------------------------------------------------------

# "İ" lowercases to two characters and "ß" stays one, so len(value.lower()) can
# differ from len(value); a small alphabet makes long common substrings likely.
_ALPHABET = "ab İiẞß\u0307"


@st.composite
def _question_and_value(draw):
    question = draw(st.text(_ALPHABET, max_size=50))
    if question and draw(st.booleans()):
        # a slice of the question with a few edits: scores near the threshold
        start = draw(st.integers(0, len(question) - 1))
        value = question[start:draw(st.integers(start + 1, len(question)))]
        for _ in range(draw(st.integers(0, 4))):
            at = draw(st.integers(0, len(value)))
            value = value[:at] + draw(st.sampled_from(_ALPHABET)) + value[at:]
    else:
        value = draw(st.text(_ALPHABET, max_size=45))
    return question, value


@settings(max_examples=500, deadline=None)
@given(_question_and_value())
def test_prefilter_agrees_with_score(pair):
    question, value = pair
    expected = score_match(question, value) >= MATCH_THRESHOLD
    assert could_match(question.lower(), value.lower()) is expected


def test_prefilter_at_every_boundary():
    """Values of every length whose longest common substring is exactly k, at both ends."""
    for length in range(1, 61):
        for k in range(length + 1):
            for value in ("a" * k + "b" * (length - k), "b" * (length - k) + "a" * k):
                expected = score_match("a" * length, value) >= MATCH_THRESHOLD
                assert could_match("a" * length, value) is expected, (length, k)


def _text_db(path: Path, rows: list[tuple[str, str]]) -> None:
    conn = sqlite3.connect(path)
    try:
        conn.execute('CREATE TABLE "t" ("id" INTEGER PRIMARY KEY, "a" TEXT, "b" TEXT)')
        conn.executemany('INSERT INTO "t" ("a", "b") VALUES (?, ?)', rows)
        conn.commit()
    finally:
        conn.close()


_cell = st.text(_ALPHABET + "c", max_size=10)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(_cell, _cell), max_size=25), st.text(_ALPHABET + "c", max_size=30))
def test_link_values_equals_bruteforce_scan(rows, question):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.sqlite"
        _text_db(path, rows)
        catalog = catalog_from_sqlite(path, "t")
        got = {
            (m.table_name, m.column_name, m.value)
            for m in link_values(question, catalog, max_per_column=10_000)
        }
    db_values = {("t", "a"): [a for a, _ in rows], ("t", "b"): [b for _, b in rows]}
    assert got == scan_matches(question, db_values, threshold=MATCH_THRESHOLD)


# --- one scan per database file ---------------------------------------------------


@pytest.fixture
def counted_scans(monkeypatch):
    """Every column read by the scan, as (table, column), in call order."""
    calls = []
    original = linking._distinct_column_values

    def counting(conn, table, column, cap):
        calls.append((table, column))
        return original(conn, table, column, cap)

    monkeypatch.setattr(linking, "_distinct_column_values", counting)
    return calls


def test_threads_share_one_scan(tmp_path, counted_scans):
    path = tmp_path / "t.sqlite"
    _text_db(path, [("amc hornet", "ford pinto"), ("volvo", "amc hornet sportabout")])
    catalog = catalog_from_sqlite(path, "t")
    barrier = threading.Barrier(8, timeout=30)
    results = []

    def worker():
        barrier.wait()
        results.append(link_values("Is the amc hornet sportabout fast?", catalog))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so an unguarded memo would scan twice
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert counted_scans == [("t", "a"), ("t", "b")]
    assert len(results) == 8 and all(r == results[0] for r in results)
    assert [m.value for m in results[0]] == ["amc hornet", "amc hornet sportabout"]


def test_rewritten_file_is_scanned_again(tmp_path, counted_scans):
    path = tmp_path / "t.sqlite"
    _text_db(path, [("alpha centauri", "x")])
    catalog = catalog_from_sqlite(path, "t")
    question = "Where are alpha centauri and beta pictoris?"
    assert [m.value for m in link_values(question, catalog)] == ["alpha centauri"]
    assert [m.value for m in link_values(question, catalog)] == ["alpha centauri"]
    assert len(counted_scans) == 2

    before = os.stat(path).st_mtime_ns
    path.unlink()
    _text_db(path, [("beta pictoris", "y")])
    # file systems with coarse timestamps may repeat the old mtime; make it differ
    os.utime(path, ns=(before + 10**9, before + 10**9))
    assert [m.value for m in link_values(question, catalog)] == ["beta pictoris"]
    assert len(counted_scans) == 4


def test_same_size_rewrite_with_restored_mtime_is_scanned_again(tmp_path, counted_scans):
    path = tmp_path / "t.sqlite"
    _text_db(path, [("alice", "x")])
    catalog = catalog_from_sqlite(path, "t")
    assert link_values("songs by bobby", catalog) == []
    time.sleep(0.05)  # past the timestamp tick of a filesystem without fine-grained ctimes
    before = os.stat(path)
    with sqlite3.connect(path) as conn:
        conn.execute("UPDATE t SET a = 'bobby' WHERE a = 'alice'")
    conn.close()
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (before.st_ino, before.st_size, before.st_mtime_ns)
    assert [m.value for m in link_values("songs by bobby", catalog)] == ["bobby"]
    assert len(counted_scans) == 4
