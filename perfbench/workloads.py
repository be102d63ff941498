"""Seeded generator for the benchmark workloads.

Each workload is a Spider-layout directory that `sqlvote predict` and
`sqlvote evaluate` read unchanged: a manifest, SQLite databases, a question
list with gold SQL, an optional demo list, scripted-backend records and a run
config. Next to them sits `expected.json`, which the program never reads: the
designed prediction line per question, the designed EX/TS per question and
the number of cache entries a cold run must leave.

Sizes and pool shapes depend only on the workload and its size; the seed
changes names, values and literals. So two seeds cost about the same to run,
and the same seed gives byte-identical files.

The expected winner of each pool comes from an oracle that is independent of
sqlvote: every candidate designed to succeed is run here on a plain read-only
connection, and the vote is recomputed over those results. Candidates designed
to fail (syntax, unknown column, write attempts, empty text, endless
recursion) are never run here.
"""

from __future__ import annotations

import json
import random
import sqlite3
from dataclasses import dataclass
from pathlib import Path

import yaml

from sqlvote import cli
from sqlvote.catalog import load_catalogs, load_examples
from sqlvote.linking import link_values
from sqlvote.prompts import EMPTY_DEMOS, PromptDesignId, render

WORKLOADS = ("spider-mix", "text-heavy")

# Per workload and size: spider-mix (databases, questions per database),
# text-heavy (rows, questions).
SIZES = {
    ("spider-mix", "full"): (8, 8),
    ("spider-mix", "tiny"): (2, 4),
    ("text-heavy", "full"): (20_000, 3),
    ("text-heavy", "tiny"): (400, 2),
}

MODEL = "scripted"
# `evaluate --ts` writes its suites once per database, then scores questions.
# Spider dev asks about 50 questions per database; the evaluation dataset
# repeats the questions this many times to ask 48 (spider-mix) and 24
# (text-heavy), so writing (and syncing) suite files stays a Spider-like share
# of the evaluation and does not make its rate noisy.
EVAL_COPIES = {"spider-mix": 6, "text-heavy": 8}
# Per-candidate execution timeout in the run config. spider-mix keeps it short
# because its pools hold designed timeouts; text-heavy has none, and its large
# results can take over a second while the other worker holds the interpreter lock.
TIMEOUT_S = {"spider-mix": 0.5, "text-heavy": 5.0}
# Years are uniform over 1950..2020; text-heavy's large results cut at this
# fixed year, so their size does not depend on the seed.
LARGE_CUT_YEAR = 1985
SPIDER_ROWS = (36, 100, 200)  # rows of the entity, item and event tables; never 50
SPIDER_ARMS = [
    {"model": MODEL, "design": "concise", "shots": 0, "samples": 32, "temperature": 0.5},
    {"model": MODEL, "design": "verbose", "shots": 2, "samples": 32, "temperature": 0.5},
]
TEXT_ARMS = [
    {"model": MODEL, "design": "baseline_default", "shots": 0, "samples": 6, "temperature": 0.5},
]

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_ENTITIES = [
    ("singer", "song", "review"), ("artist", "album", "sale"), ("author", "book", "loan"),
    ("racer", "race", "lap"), ("player", "fixture", "rating"), ("chef", "dish", "purchase"),
    ("pilot", "flight", "ticket"), ("teacher", "course", "grade"), ("doctor", "patient", "visit"),
    ("farmer", "harvest", "shipment"), ("painter", "canvas", "exhibit"), ("coach", "team", "contract"),
]

# Candidate text forms: extract_sql reduces each to the bare statement.
_FORMS = ("{}", "{};", "```sql\n{};\n```")
_TIMEOUT_SQL = "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r) SELECT count(*) FROM r"
_FAILING = ("E_syn", "E_rt", "E_write", "E_deny", "E_empty", "E_timeout")

# Pool layouts per question kind: (label, count) per arm, interleaved
# round-robin, so the first label listed holds pool position 0 of its arm.
# W* are equivalent to the gold query, D0/D1 disagree with it, K* are
# constants equal to the gold result on the original database only.
_SPIDER_POOLS = {
    "clear": (
        [("W0", 10), ("D0", 4), ("E_syn", 2), ("W1", 6), ("E_rt", 2), ("E_write", 1),
         ("E_empty", 1), ("D1", 2), ("W2", 4)],
        [("W1", 12), ("D0", 6), ("W2", 6), ("E_syn", 2), ("E_deny", 2), ("D1", 4)],
    ),
    "tie": (
        [("W0", 10), ("D0", 10), ("E_syn", 4), ("E_rt", 4), ("E_empty", 2), ("D1", 2)],
        [("D0", 14), ("W1", 14), ("E_write", 2), ("E_syn", 2)],
    ),
    "tie_wrong": (
        [("D0", 10), ("W0", 10), ("E_syn", 4), ("E_rt", 4), ("E_empty", 2), ("D1", 2)],
        [("W1", 14), ("D0", 14), ("E_deny", 2), ("E_syn", 2)],
    ),
    "wrong": (
        [("D0", 14), ("W0", 8), ("E_syn", 4), ("E_rt", 3), ("E_write", 1), ("D1", 2)],
        [("D0", 12), ("W1", 10), ("E_syn", 4), ("E_empty", 2), ("D1", 4)],
    ),
    "ts_only": (
        [("K0", 12), ("W0", 6), ("D0", 6), ("E_syn", 4), ("E_rt", 4)],
        [("K1", 10), ("W1", 8), ("D0", 8), ("E_deny", 3), ("E_empty", 3)],
    ),
    "all_filtered": (
        [("E_syn", 10), ("E_rt", 10), ("E_write", 4), ("E_empty", 4), ("E_deny", 4)],
        [("E_syn", 12), ("E_rt", 12), ("E_write", 4), ("E_timeout", 1), ("E_deny", 3)],
    ),
}
# Pool kind of each question slot, rotated by two slots per database so every
# kind meets every template; slot 3 of database 0 is all_filtered instead.
_SPIDER_KINDS = ("clear", "ts_only", "tie", "wrong", "clear", "tie_wrong", "clear", "clear")
# Databases whose slot-4 pool swaps one error for a timeout / whose slot-6
# pool swaps one for an oversized but finishing cross join.
_TIMEOUT_DBS = (3, 6)
_BIG_DBS = (1, 5)


@dataclass(frozen=True)
class Workload:
    """A generated workload directory and what a correct run must produce."""

    name: str
    root: Path
    config: Path
    dataset: Path
    eval_dataset: Path  # `dataset` repeated `eval_copies` times
    eval_copies: int
    db_dir: Path
    questions: int

    @property
    def expected(self) -> dict:
        return json.loads((self.root / "expected.json").read_text(encoding="utf-8"))


def _word(rng: random.Random, low: int = 2, high: int = 4) -> str:
    return "".join(
        rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(low, high))
    )


def _phrase(rng: random.Random, words: int, low: int = 2, high: int = 4) -> str:
    return " ".join(_word(rng, low, high) for _ in range(words))


def _distinct(rng: random.Random, count: int, words: int) -> list[str]:
    seen: dict[str, None] = {}
    while len(seen) < count:
        seen[_phrase(rng, words)] = None
    return list(seen)


# --- oracle --------------------------------------------------------------------


def _norm(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return ("n", round(float(value), 6))
    return ("v", repr(value))


def _result(conn: sqlite3.Connection, sql: str, ordered: bool = False) -> tuple:
    rows = [tuple(_norm(v) for v in row) for row in conn.execute(sql).fetchall()]
    return tuple(rows) if ordered else tuple(sorted(rows))


def _vote(pool: list[str], results: dict[str, tuple]) -> tuple[str | None, bool]:
    """(winning SQL, tie broken) over the successful candidates of a pool."""
    groups: dict[tuple, list[int]] = {}
    for position, sql in enumerate(pool):
        if sql in results:
            groups.setdefault(results[sql], []).append(position)
    if not groups:
        return None, False
    top = max(len(members) for members in groups.values())
    leaders = [members for members in groups.values() if len(members) == top]
    first = min(members[0] for members in leaders)
    return pool[first], len(leaders) > 1


def _interleave(layout: list[tuple[str, int]]) -> list[str]:
    remaining = dict(layout)
    order: list[str] = []
    while any(remaining.values()):
        for label, _ in layout:
            if remaining[label]:
                order.append(label)
                remaining[label] -= 1
    return order


# --- spider-mix ------------------------------------------------------------------


def _spider_db(rng: random.Random, index: int, entities: tuple[str, str, str], db_dir: Path) -> dict:
    """Write one three-table database; return its manifest entry plus value lists."""
    a, b, c = entities
    db_id = f"{a}_{index + 1}"
    a_rows, b_rows, c_rows = SPIDER_ROWS
    tables = [a, b, c]
    columns = [
        (0, f"{a}_ID", "number"), (0, "Name", "text"), (0, "Kind", "text"), (0, "Score", "number"),
        (1, f"{b}_ID", "number"), (1, "Title", "text"), (1, "Year", "number"), (1, f"{a}_ID", "number"),
        (2, f"{c}_ID", "number"), (2, f"{b}_ID", "number"), (2, "Amount", "number"), (2, "Note", "text"),
    ]
    names = _distinct(rng, a_rows, 2)
    kinds = _distinct(rng, 5, 1)
    titles = _distinct(rng, b_rows, 2)
    notes = _distinct(rng, 20, 3)
    a_data = [(i + 1, names[i], rng.choice(kinds), rng.randint(0, 100)) for i in range(a_rows)]
    b_data = [(i + 1, titles[i], rng.randint(1980, 2020), rng.randint(1, a_rows)) for i in range(b_rows)]
    c_data = [
        (i + 1, rng.randint(1, b_rows), rng.randint(1, 500), rng.choice(notes))
        for i in range(c_rows)
    ]
    path = db_dir / db_id / f"{db_id}.sqlite"
    path.parent.mkdir(parents=True)
    conn = sqlite3.connect(path)
    try:
        conn.execute(
            f'CREATE TABLE "{a}" ("{a}_ID" INTEGER PRIMARY KEY, "Name" TEXT, "Kind" TEXT, "Score" INTEGER)'
        )
        conn.execute(
            f'CREATE TABLE "{b}" ("{b}_ID" INTEGER PRIMARY KEY, "Title" TEXT, "Year" INTEGER, '
            f'"{a}_ID" INTEGER, FOREIGN KEY ("{a}_ID") REFERENCES "{a}" ("{a}_ID"))'
        )
        conn.execute(
            f'CREATE TABLE "{c}" ("{c}_ID" INTEGER PRIMARY KEY, "{b}_ID" INTEGER, "Amount" INTEGER, '
            f'"Note" TEXT, FOREIGN KEY ("{b}_ID") REFERENCES "{b}" ("{b}_ID"))'
        )
        conn.executemany(f'INSERT INTO "{a}" VALUES (?, ?, ?, ?)', a_data)
        conn.executemany(f'INSERT INTO "{b}" VALUES (?, ?, ?, ?)', b_data)
        conn.executemany(f'INSERT INTO "{c}" VALUES (?, ?, ?, ?)', c_data)
        conn.commit()
    finally:
        conn.close()
    manifest = {
        "db_id": db_id,
        "table_names_original": tables,
        "column_names_original": [[-1, "*"]] + [[t, name] for t, name, _ in columns],
        "column_types": ["text"] + [kind for _, _, kind in columns],
        "primary_keys": [1, 5, 9],
        "foreign_keys": [[8, 1], [10, 5]],
    }
    linked_titles = sorted({b_data[row[1] - 1][1] for row in c_data})
    return {
        "manifest": manifest, "entities": entities, "names": names, "titles": linked_titles,
        "a_rows": a_rows,
    }


def _spider_template(rng: random.Random, db: dict, slot: int) -> dict:
    """Question, gold SQL, equivalent variants W and disagreeing candidates D."""
    a, b, c = db["entities"]
    choice = slot % 6
    if choice == 0:
        name = rng.choice(db["names"])
        join = f"{b} AS T1 JOIN {a} AS T2 ON T1.{a}_ID = T2.{a}_ID"
        return {
            "question": f"How many {b}s does the {a} named {name} have?",
            "gold": f"SELECT count(*) FROM {join} WHERE T2.Name = '{name}'",
            "W": [
                f"SELECT count(*) FROM {join} WHERE T2.Name = '{name}'",
                f"select count(*) from {join.lower()} where t2.name = '{name}'",
                f"SELECT COUNT(*) FROM {b} JOIN {a} ON {b}.{a}_ID = {a}.{a}_ID WHERE {a}.Name = '{name}'",
            ],
            "D": [
                f"SELECT count(*) FROM {b}",
                f"SELECT count(*) FROM {join} WHERE T2.Name != '{name}'",
                f"SELECT count(*) + 1 FROM {join} WHERE T2.Name = '{name}'",
            ],
        }
    if choice == 1:
        year = rng.randint(1990, 2010)
        return {
            "question": f"List the titles of {b}s from after {year}.",
            "gold": f"SELECT Title FROM {b} WHERE Year > {year}",
            "W": [
                f"SELECT Title FROM {b} WHERE Year > {year}",
                f"SELECT T1.Title FROM {b} AS T1 WHERE T1.Year > {year}",
                f"select title from {b} where year > {year}",
            ],
            "D": [
                f"SELECT Title FROM {b} WHERE Year < {year}",
                f"SELECT Title FROM {b}",
                f"SELECT Title FROM {b} WHERE Year >= {year - 5}",
            ],
        }
    if choice == 2:
        return {
            "question": f"How many {a}s are there of each kind?",
            "gold": f"SELECT Kind, count(*) FROM {a} GROUP BY Kind",
            "W": [
                f"SELECT Kind, count(*) FROM {a} GROUP BY Kind",
                f"SELECT T1.Kind , COUNT(*) FROM {a} AS T1 GROUP BY T1.Kind",
                f"select kind, count(*) from {a} group by kind",
            ],
            "D": [
                f"SELECT Kind FROM {a} GROUP BY Kind",
                f"SELECT Kind, count(*) FROM {a} WHERE Score > 50 GROUP BY Kind",
                f"SELECT Kind, max(Score) FROM {a} GROUP BY Kind",
            ],
        }
    if choice == 3:
        return {
            "question": f"Show the names of the three {a}s with the highest score.",
            "gold": f"SELECT Name FROM {a} ORDER BY Score DESC, {a}_ID LIMIT 3",
            "W": [
                f"SELECT Name FROM {a} ORDER BY Score DESC, {a}_ID LIMIT 3",
                f"SELECT T1.Name FROM {a} AS T1 ORDER BY T1.Score DESC, T1.{a}_ID LIMIT 3",
                f"select name from {a} order by score desc, {a.lower()}_id limit 3",
            ],
            "D": [
                f"SELECT Name FROM {a} ORDER BY Score ASC, {a}_ID LIMIT 3",
                f"SELECT Name FROM {a} ORDER BY {a}_ID LIMIT 3",
                f"SELECT Name FROM {a} ORDER BY Score DESC, {a}_ID LIMIT 4",
            ],
            "ordered": True,
        }
    if choice == 4:
        title = rng.choice(db["titles"])
        join = f"{c} AS T1 JOIN {b} AS T2 ON T1.{b}_ID = T2.{b}_ID"
        return {
            "question": f"What is the total amount of the {c}s of the {b} titled {title}?",
            "gold": f"SELECT sum(T1.Amount) FROM {join} WHERE T2.Title = '{title}'",
            "W": [
                f"SELECT sum(T1.Amount) FROM {join} WHERE T2.Title = '{title}'",
                f"SELECT SUM(T1.Amount) FROM {join} WHERE T2.Title  =  '{title}'",
                f"SELECT sum({c}.Amount) FROM {c} JOIN {b} ON {c}.{b}_ID = {b}.{b}_ID "
                f"WHERE {b}.Title = '{title}'",
            ],
            "D": [
                f"SELECT max(T1.Amount) FROM {join} WHERE T2.Title = '{title}'",
                f"SELECT sum(Amount) FROM {c}",
                f"SELECT count(*) FROM {join} WHERE T2.Title = '{title}'",
            ],
        }
    return {
        "question": f"Which note belongs to the {c} with the largest amount?",
        "gold": f"SELECT Note FROM {c} WHERE Amount = (SELECT max(Amount) FROM {c})",
        "W": [
            f"SELECT Note FROM {c} WHERE Amount = (SELECT max(Amount) FROM {c})",
            f"SELECT T1.Note FROM {c} AS T1 WHERE T1.Amount = (SELECT MAX(Amount) FROM {c})",
            f"select note from {c} where amount = (select max(amount) from {c})",
        ],
        "D": [
            f"SELECT Note FROM {c} WHERE Amount = (SELECT min(Amount) FROM {c})",
            f"SELECT Note FROM {c} ORDER BY Amount LIMIT 1",
            f"SELECT Note FROM {c} WHERE Amount > 250",
            f"SELECT max(Amount) FROM {c}",
        ],
    }


def _spider_question(rng: random.Random, db: dict, db_index: int, slot: int, conn) -> dict:
    a, b, c = db["entities"]
    kind = _SPIDER_KINDS[(slot + 2 * db_index) % len(_SPIDER_KINDS)]
    if db_index == 0 and slot == 3:
        kind = "all_filtered"
    if kind == "ts_only":
        count = db["a_rows"]
        spec = {
            "question": f"How many {a}s are there?",
            "gold": f"SELECT count(*) FROM {a}",
            "W": [f"SELECT count(*) FROM {a}", f"select count(*) from {a}", f"SELECT COUNT(*) FROM {a} AS T1"],
            "D": [f"SELECT count(*) FROM {b}", f"SELECT count(*) FROM {c}", f"SELECT count(DISTINCT Kind) FROM {a}"],
            "K": [f"SELECT {count}", f"select {count}"],
        }
    else:
        spec = _spider_template(rng, db, slot)
    ordered = spec.get("ordered", False)
    gold_result = _result(conn, spec["gold"], ordered)
    for w in spec["W"]:
        if _result(conn, w, ordered) != gold_result:
            raise AssertionError(f"variant disagrees with gold: {w}")
    seen = {_result(conn, spec["gold"])}
    distractors = []
    for d in spec["D"]:
        key = _result(conn, d)
        if key not in seen:
            seen.add(key)
            distractors.append(d)
    if len(distractors) < 2:
        raise AssertionError(f"fewer than two distinct distractors for {spec['gold']}")

    sql_of = {
        "W0": spec["W"][0], "W1": spec["W"][1], "W2": spec["W"][2],
        "D0": distractors[0], "D1": distractors[1],
        "K0": spec.get("K", [""])[0], "K1": spec.get("K", ["", ""])[-1],
        "E_syn": f"SELEC * FROM {a}",
        "E_rt": f"SELECT Nmae FROM {a}",
        "E_write": f"DROP TABLE {c}" if slot % 2 else f"DELETE FROM {b}",
        "E_deny": f"WITH x AS (SELECT 1) DELETE FROM {c}",
        "E_empty": "",
        "E_timeout": _TIMEOUT_SQL,
        "BIG": f"SELECT T1.Amount FROM {c} AS T1, {b} AS T2",
    }
    arms = []
    for layout in _SPIDER_POOLS[kind]:
        layout = list(layout)
        if slot == 4 and db_index in _TIMEOUT_DBS and arms:
            layout = _swap_error(layout, "E_timeout")
        if slot == 6 and db_index in _BIG_DBS and arms:
            layout = _swap_error(layout, "BIG")
        arms.append(_interleave(layout))
    return {"kind": kind, "spec": spec, "sql_of": sql_of, "arms": arms}


def _swap_error(layout: list[tuple[str, int]], label: str) -> list[tuple[str, int]]:
    """Replace one failing candidate of the arm with `label`."""
    for i, (name, count) in enumerate(layout):
        if name in ("E_syn", "E_rt"):
            layout[i] = (name, count - 1)
            return layout + [(label, 1)]
    raise AssertionError("layout has no error slot to swap")


def _spider_mix(rng: random.Random, root: Path, size: str) -> list[dict]:
    databases, per_db = SIZES[("spider-mix", size)]
    db_dir = root / "database"
    entities = rng.sample(_ENTITIES, databases)
    dbs = [_spider_db(rng, i, entities[i], db_dir) for i in range(databases)]
    (root / "tables.json").write_text(json.dumps([d["manifest"] for d in dbs], indent=1), encoding="utf-8")

    questions = []
    for i, db in enumerate(dbs):
        db_id = db["manifest"]["db_id"]
        conn = sqlite3.connect(f"file:{db_dir / db_id / db_id}.sqlite?mode=ro", uri=True)
        try:
            asked: set[str] = set()
            for slot in range(per_db):
                q = _spider_question(rng, db, i, slot, conn)
                while q["spec"]["question"] in asked:  # equal prompts would share scripted records
                    q = _spider_question(rng, db, i, slot, conn)
                asked.add(q["spec"]["question"])
                sql_of = q["sql_of"]
                pool = [sql_of[label] for arm in q["arms"] for label in arm]
                results = {
                    sql: _result(conn, sql)
                    for label, sql in sql_of.items()
                    if label not in _FAILING and sql and sql in pool
                }
                q.update(db_id=db_id, pool=pool, results=results, gold_result=_result(conn, q["spec"]["gold"]))
                questions.append(q)
        finally:
            conn.close()

    dataset = [
        {"db_id": q["db_id"], "question": q["spec"]["question"], "query": q["spec"]["gold"]}
        for q in questions
    ]
    (root / "dev.json").write_text(json.dumps(dataset, indent=1), encoding="utf-8")
    demos = []
    for db in dbs[:2]:
        a, b, _ = db["entities"]
        name = db["names"][0]
        demos.append({
            "db_id": db["manifest"]["db_id"],
            "question": f"What is the score of the {a} named {name}?",
            "query": f"SELECT Score FROM {a} WHERE Name = '{name}'",
        })
    (root / "demos.json").write_text(json.dumps(demos, indent=1), encoding="utf-8")
    return questions


# --- text-heavy ------------------------------------------------------------------


def _text_heavy(rng: random.Random, root: Path, size: str) -> list[dict]:
    rows, count = SIZES[("text-heavy", size)]
    db_id = "library"
    db_dir = root / "database"
    path = db_dir / db_id / f"{db_id}.sqlite"
    path.parent.mkdir(parents=True)
    data = [
        # fixed word lengths: linking cost grows with question and value length,
        # so the seed must not change either
        (i + 1, _phrase(rng, 3, 3, 3), _phrase(rng, 2, 3, 3), _phrase(rng, 5, 3, 3), rng.randint(1950, 2020))
        for i in range(rows)
    ]
    conn = sqlite3.connect(path)
    try:
        conn.execute(
            'CREATE TABLE "docs" ("doc_id" INTEGER PRIMARY KEY, "title" TEXT, "author" TEXT, '
            '"body" TEXT, "year" INTEGER)'
        )
        conn.executemany('INSERT INTO "docs" VALUES (?, ?, ?, ?, ?)', data)
        conn.commit()
    finally:
        conn.close()
    manifest = [{
        "db_id": db_id,
        "table_names_original": ["docs"],
        "column_names_original": [[-1, "*"], [0, "doc_id"], [0, "title"], [0, "author"], [0, "body"], [0, "year"]],
        "column_types": ["text", "number", "text", "text", "text", "number"],
        "primary_keys": [1],
        "foreign_keys": [],
    }]
    (root / "tables.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")

    questions = []
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        for i, (_, title, author, _, _) in enumerate(rng.sample(data, count)):
            year = LARGE_CUT_YEAR
            if i % 3 == 0:
                question = f"Which titles did {author} write?"
                gold = f"SELECT title FROM docs WHERE author = '{author}'"
                completions = [
                    f" title FROM docs WHERE author = '{author}'",
                    f" title FROM docs WHERE author LIKE '{author}'",
                    f" * FROM docs WHERE year >= {year}",
                    f" docs.title FROM docs WHERE docs.author = '{author}'",
                    f" title FROM docs WHERE auther = '{author}'",
                    f" title, body FROM docs WHERE year < {year}",
                ]
            elif i % 3 == 1:
                question = f"List the title and year of every document published after {year}."
                gold = f"SELECT title, year FROM docs WHERE year > {year}"
                completions = [
                    f" title, year FROM docs WHERE year > {year}",
                    f" title, year FROM docs WHERE year >= {year + 1}",
                    f" title FROM docs WHERE year > {year}",
                    f" title, year FROM docs WHERE author = '{author}'",
                    f" title, year FROM docs WHERE yeer > {year}",
                    " * FROM docs",
                ]
            else:
                question = f"Who wrote the document titled {title}?"
                gold = f"SELECT author FROM docs WHERE title = '{title}'"
                completions = [
                    f" author FROM docs WHERE title = '{title}'",
                    f" body FROM docs WHERE title = '{title}'",
                    f" author FROM docs WHERE title LIKE '{title}'",
                    f" body FROM docs WHERE title LIKE '{title}'",
                    f" author FROM docs WHERE titel = '{title}'",
                    f" count(*) FROM docs WHERE year > {year}",
                ]
            pool = ["SELECT" + text for text in completions]
            results = {}
            for sql in pool:
                try:
                    results[sql] = _result(conn, sql)
                except sqlite3.OperationalError:
                    pass  # the misspelled column
            if len(results) != len(pool) - 1:
                raise AssertionError(f"question {i}: expected exactly one failing sample")
            questions.append({
                "kind": "text", "db_id": db_id, "spec": {"question": question, "gold": gold},
                "completions": completions, "pool": pool, "results": results,
                "gold_result": _result(conn, gold),
            })
    finally:
        conn.close()
    dataset = [
        {"db_id": db_id, "question": q["spec"]["question"], "query": q["spec"]["gold"]} for q in questions
    ]
    (root / "dev.json").write_text(json.dumps(dataset, indent=1), encoding="utf-8")
    return questions


# --- scripted records, config and expectations ---------------------------------


def _write_config(root: Path, workload: str, seed: int, arms: list[dict]) -> Path:
    config = {
        "seed": seed,
        "manifest": "tables.json",
        "db_dir": "database",
        "dataset": "dev.json",
        "output": "out/predictions.jsonl",
        "cache_dir": "out/cache",
        "timeout": TIMEOUT_S[workload],
        "fan_out": 2,
        "audit": False,
        "max_per_column": 3,
        "backends": {MODEL: {"type": "scripted", "dir": "scripted"}},
        "arms": arms,
    }
    if workload == "spider-mix":
        config["demo_source"] = "demos.json"
    path = root / "config.yaml"
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    return path


def _write_scripted(root: Path, config_path: Path, questions: list[dict]) -> None:
    """Record each (question, arm) completion list under its prompt hash.

    Prompts are rendered through sqlvote's own config, demo and linking code,
    so the hashes match what `predict` renders.
    """
    config = cli.load_config(config_path)
    catalogs = load_catalogs(config.manifest, config.db_dir)
    index = {c.db_id: c for c in catalogs}
    examples = load_examples(config.dataset, catalogs)
    demo_sets = cli._demo_sets(config, index)
    scripted = root / "scripted"
    scripted.mkdir()
    for q_index, (example, q) in enumerate(zip(examples, questions)):
        catalog = index[example.db_id]
        for a_index, arm in enumerate(config.arms):
            if arm.design is PromptDesignId.BASELINE_DEFAULT:
                matches = []  # this design renders no values
                completions = q["completions"]
            else:
                matches = link_values(example.question, catalog, config.max_per_column)
                completions = [
                    _FORMS[i % len(_FORMS)].format(q["sql_of"][label]) if q["sql_of"][label] else "\n"
                    for i, label in enumerate(q["arms"][a_index])
                ]
            prompt = render(arm.design, example, catalog, matches, demo_sets.get(arm.shots, EMPTY_DEMOS))
            record = {"prompt_hash": prompt.content_hash, "completions": completions}
            (scripted / f"q{q_index:04d}_arm{a_index}.json").write_text(
                json.dumps(record, indent=1), encoding="utf-8"
            )


def _expectations(questions: list[dict], samples: int) -> dict:
    lines, ex, ts, kinds = [], [], [], []
    for index, q in enumerate(questions):
        example_id = f"{index:06d}"
        winner, _ = _vote(q["pool"], q["results"])
        # Distractors differ from the gold result even as multisets, so an
        # equal multiset means a W variant (checked in order against an
        # ordered gold) or a ts_only constant.
        ex_ok = winner is not None and q["results"][winner] == q["gold_result"]
        sql = winner if winner is not None else "SELECT NULL"
        # TS holds exactly when the winner is equivalent to the gold query: the
        # constants of ts_only pools match the original database only.
        equivalent = winner == q["spec"]["gold"] or winner in q["spec"].get("W", ())
        lines.append(json.dumps({"example_id": example_id, "sql": sql}, ensure_ascii=False))
        ex.append(ex_ok)
        ts.append(ex_ok and equivalent)
        kinds.append(q["kind"])
    return {
        "predictions": lines,
        "ex": ex,
        "ts": ts,
        "kinds": kinds,
        "cache_entries": len(questions) * samples,
    }


def generate(workload: str, seed: int, root: Path | str, size: str = "full") -> Workload:
    """Write the workload for `seed` into the empty or missing directory `root`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    root = Path(root)
    root.mkdir(parents=True, exist_ok=False)
    rng = random.Random(f"{workload}/{seed}")
    if workload == "spider-mix":
        questions = _spider_mix(rng, root, size)
        arms = SPIDER_ARMS
    else:
        questions = _text_heavy(rng, root, size)
        arms = TEXT_ARMS
    config_path = _write_config(root, workload, seed, arms)
    _write_scripted(root, config_path, questions)
    expected = _expectations(questions, sum(arm["samples"] for arm in arms))
    (root / "expected.json").write_text(json.dumps(expected, indent=1), encoding="utf-8")
    records = json.loads((root / "dev.json").read_text(encoding="utf-8"))
    (root / "eval.json").write_text(json.dumps(records * EVAL_COPIES[workload], indent=1), encoding="utf-8")
    return Workload(
        name=workload,
        root=root,
        config=config_path,
        dataset=root / "dev.json",
        eval_dataset=root / "eval.json",
        eval_copies=EVAL_COPIES[workload],
        db_dir=root / "database",
        questions=len(questions),
    )
