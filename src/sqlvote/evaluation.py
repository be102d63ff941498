"""Execution accuracy (EX) and simplified test-suite accuracy (TS).

EX compares canonical execution outcomes of predicted and gold SQL on the
original database. TS re-runs the comparison on randomly generated databases
that share the schema and keys. The generator here is a schema-respecting
fuzzer, not the distilled suites of the published benchmark tooling, so all
reports label the metric "TS (simplified)". Columns compare in order: a
result's key lists each row's values in column order, so `SELECT a, b` and
`SELECT b, a` never match (and split a vote), where the published
evaluator's `result_eq` accepts a permutation of the columns.

`_score` decides one question for `evaluate_file` and `ts_match` alike, in
one walk over its files: the original database, then, with a spec, the
suites in index order, until the first miss. A prediction whose text is its
gold's shares the gold's outcome on every file, so it reaches no suite. The
walk gives EX, TS and the `reason`: None on a match, "gold_error" (the gold
fails on the original database), "pred_error:<kind>" (the pred fails there;
an ErrorKind value), "differs:original", or "differs:suite<k>" (k is the
1-based index of the first suite on which the pred fails or differs; a suite
on which the gold fails is skipped). Its `Memo` holds one read-only
connection per file, runs each (statement, file, gold order flag) once and
keeps its canonical key or error outcome, never its rows, and keeps the
suites built so far; it lives while its database is scored, because the next
run rewrites suite files at the same paths. Suite k is generated and opened
the first time a walk reaches it, and the database's observed values are
read when its first suite is; a suite no walk reaches is never written, and
a file an earlier run left for it is neither read nor rewritten. Suite cells
come from one draw fixed per column. Scores and suite bytes are those of
generating every suite up front.
"""

from __future__ import annotations

import datetime
import json
import math
import random
import sqlite3
import string
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

from .catalog import ColumnType, DatabaseCatalog, catalog_from_sqlite, load_examples, quote_identifier
from .errors import (
    ConfigError, GenerationFailed, GoldExecutionFailed, MissingPrediction, SqlVoteError,
)
from .execution import (
    KeyOrError,
    OutcomeKey,
    canonical_key,
    connect_readonly,
    execute,
    is_order_sensitive,
)

TIMEOUT = 30.0  # seconds per gold or predicted statement
_ORIGINAL_VALUE_CAP = 200
_ORIGINAL_SHARE = 0.5  # chance a fuzzed cell reuses an observed value
_FIRST_DAY = datetime.date(1990, 1, 1)  # fresh TIME values span 41 years from here


@dataclass(frozen=True)
class SuiteSpec:
    suite_count: int = 10
    rows_per_table: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.suite_count < 1:
            raise ConfigError("suite_count must be >= 1")
        if self.rows_per_table < 1:
            raise ConfigError("rows_per_table must be >= 1")


@dataclass
class QuestionScore:
    example_id: str
    ex: bool
    ts: bool | None = None
    gold_error: str | None = None
    reason: str | None = None


@dataclass
class EvalReport:
    per_question: list[QuestionScore]
    ex_accuracy: float
    ts_accuracy: float | None
    counts: dict[str, int]

    def summary_lines(self) -> list[str]:
        lines = [f"EX: {self.ex_accuracy:.4f}"]
        if self.ts_accuracy is not None:
            lines.append(f"TS (simplified): {self.ts_accuracy:.4f}")
        lines.append(
            "scored {scored}/{total} questions ({gold_failures} gold failures excluded)".format(
                **self.counts
            )
        )
        return lines


@dataclass
class Memo:
    """One database's scoring state: outcomes by (SQL text, database path, gold order
    flag), gold order flags, open `connect_readonly` connections by path (other files
    get their own), and the suites built so far, in index order, with the observed
    values they are drawn from."""

    outcomes: dict[tuple[str, Path, bool], KeyOrError] = field(default_factory=dict)
    order: dict[str, bool] = field(default_factory=dict)
    conns: dict[Path, sqlite3.Connection] = field(default_factory=dict)
    suites: list[DatabaseCatalog] = field(default_factory=list)
    observed: dict[tuple[int, int], list] = field(default_factory=dict)

    def order_sensitive(self, gold_sql: str) -> bool:
        if gold_sql not in self.order:
            self.order[gold_sql] = is_order_sensitive(gold_sql)
        return self.order[gold_sql]


def _outcome(sql: str, catalog: DatabaseCatalog, sensitive: bool, memo: Memo) -> KeyOrError:
    """The statement's canonical key, or its error outcome; executed once per memo."""
    memo_key = (sql, catalog.db_path, sensitive)
    entry = memo.outcomes.get(memo_key)
    if entry is None:
        outcome = execute(sql, catalog, TIMEOUT, memo.conns.get(catalog.db_path))
        entry = canonical_key(outcome, sensitive) if outcome.is_success else outcome
        memo.outcomes[memo_key] = entry
    return entry


def exec_match(
    pred_sql: str,
    gold_sql: str,
    catalog: DatabaseCatalog,
    example_id: str | None = None,
    memo: Memo | None = None,
) -> bool:
    """True iff both statements succeed and their canonical outcomes agree.

    Row order matters exactly when the gold statement has a top-level
    ORDER BY. A failing gold statement is a dataset defect, not a score:
    it raises GoldExecutionFailed naming `example_id`. Outcomes already in
    `memo` are not executed again; new ones run on its connection for the
    file, if it holds one, and are added to it.
    """
    memo = Memo() if memo is None else memo
    sensitive = memo.order_sensitive(gold_sql)
    gold = _outcome(gold_sql, catalog, sensitive, memo)
    if not isinstance(gold, OutcomeKey):
        raise GoldExecutionFailed(example_id, gold.detail)
    return _outcome(pred_sql, catalog, sensitive, memo) == gold


# --- suite database generation -------------------------------------------------


def _topological_tables(catalog: DatabaseCatalog) -> tuple[list[int], set[tuple]]:
    """Parent-first table order, and the foreign keys it leaves unenforced.

    Each round places every table whose parents are all placed, in index
    order; when none is ready (a cycle), the smallest-index table left goes
    alone. A key is dropped when its parent is not placed before its child,
    so every self-reference is.
    """
    tables = range(len(catalog.tables))
    parents: dict[int, set[int]] = {t: set() for t in tables}
    for (child_t, _), (parent_t, _) in catalog.foreign_keys:
        if child_t != parent_t:
            parents[child_t].add(parent_t)
    order: list[int] = []
    while len(order) < len(tables):
        placed = set(order)
        left = [t for t in tables if t not in placed]
        order += [t for t in left if parents[t] <= placed] or left[:1]
    position = {t: i for i, t in enumerate(order)}
    return order, {fk for fk in catalog.foreign_keys if position[fk[1][0]] >= position[fk[0][0]]}


def _observed_values(catalog: DatabaseCatalog, conn: sqlite3.Connection) -> dict[tuple[int, int], list]:
    """Distinct non-NULL values per column, read through `conn` on the catalog's database."""
    observed: dict[tuple[int, int], list] = {}
    for t, table in enumerate(catalog.tables):
        for c, col in enumerate(table.columns):
            seen: dict = {}
            query = f"SELECT {quote_identifier(col.name)} FROM {quote_identifier(table.name)}"
            try:  # a missing column, or a value over MAX_VALUE_BYTES: none observed
                for (value,) in conn.execute(query):
                    if value is None or value in seen:
                        continue
                    seen[value] = None
                    if len(seen) >= _ORIGINAL_VALUE_CAP:
                        break
            except sqlite3.Error:
                seen = {}
            observed[(t, c)] = list(seen)
    return observed


def _random_word(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 8)))


def _cell_draw(rng: random.Random, col_type: ColumnType, source: list) -> Callable[[], object]:
    """Draws an observed value with chance _ORIGINAL_SHARE (never when there is
    none), else a fresh one; a fresh NUMBER spans the observed finite range."""
    if col_type is ColumnType.NUMBER:
        numeric = [v for v in source if isinstance(v, (int, float)) and math.isfinite(v)]
        low, high = (int(min(numeric)), int(max(numeric))) if numeric else (-1000, 1000)
        fresh = partial(rng.randint, low, max(low, high))
    elif col_type is ColumnType.TIME:
        fresh = lambda: (_FIRST_DAY + datetime.timedelta(days=rng.randint(0, 14975))).isoformat()
    elif col_type is ColumnType.BOOLEAN:
        fresh = partial(rng.randint, 0, 1)
    else:
        fresh = lambda: " ".join(_random_word(rng) for _ in range(rng.randint(1, 3)))
    if not source:
        return fresh
    coin, choice = rng.random, rng.choice
    return lambda: choice(source) if coin() < _ORIGINAL_SHARE else fresh()


def _create_schema(conn: sqlite3.Connection, catalog: DatabaseCatalog) -> None:
    for t, table in enumerate(catalog.tables):
        defs = [
            f"{quote_identifier(col.name)} "
            + ("NUMERIC" if col.data_type in (ColumnType.NUMBER, ColumnType.BOOLEAN) else "TEXT")
            for col in table.columns
        ]
        pk_cols = [table.columns[c].name for (pt, c) in catalog.primary_keys if pt == t]
        if pk_cols:
            defs.append("PRIMARY KEY (" + ", ".join(quote_identifier(name) for name in pk_cols) + ")")
        for (child_t, child_c), (parent_t, parent_c) in catalog.foreign_keys:
            if child_t != t:
                continue
            parent = catalog.tables[parent_t]
            defs.append(
                f"FOREIGN KEY ({quote_identifier(table.columns[child_c].name)}) REFERENCES "
                f"{quote_identifier(parent.name)} ({quote_identifier(parent.columns[parent_c].name)})"
            )
        conn.execute(f"CREATE TABLE {quote_identifier(table.name)} ({', '.join(defs)})")


def generate_suite_db(
    catalog: DatabaseCatalog,
    spec: SuiteSpec,
    suite_index: int,
    out_dir: Path | str | None = None,
    *,
    observed: dict[tuple[int, int], list],
) -> Path:
    """Write one fuzzed database sharing the catalog's schema and keys.

    Parents are populated before children so foreign-key columns only hold
    values present in the parent; cells otherwise draw half from the
    original column and half from type-appropriate random values.
    Deterministic given (catalog, spec.seed, suite_index) and `observed`, the
    catalog's original column values (`_observed_values`). Without `out_dir`
    the file goes in `_suites/` beside the database.
    """
    out_dir = Path(out_dir) if out_dir is not None else catalog.db_path.parent / "_suites"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{catalog.db_id}__suite{suite_index:03d}__seed{spec.seed}.sqlite"
    if path.exists():
        path.unlink()

    rng = random.Random(f"{catalog.db_id}/{spec.seed}/{suite_index}")
    order, dropped = _topological_tables(catalog)
    generated: dict[int, list[tuple]] = {}

    conn = sqlite3.connect(path)
    try:
        # A suite is rebuilt whenever it is needed, so it skips the rollback
        # journal and fsync; neither changes the bytes of the finished file.
        conn.execute("PRAGMA journal_mode = OFF")
        conn.execute("PRAGMA synchronous = OFF")
        _create_schema(conn, catalog)
        for t in order:
            table = catalog.tables[t]
            pk_indices = [c for (pt, c) in catalog.primary_keys if pt == t]
            fk_of: dict[int, tuple[int, int]] = {}
            for fk in catalog.foreign_keys:
                (child_t, child_c), (parent_t, parent_c) = fk
                if child_t == t and fk not in dropped:
                    fk_of[child_c] = (parent_t, parent_c)

            draws = []  # one per column, built before the rows without drawing from `rng`
            for c, col in enumerate(table.columns):
                if c in fk_of:
                    parent_t, parent_c = fk_of[c]
                    pool = sorted(
                        {row[parent_c] for row in generated.get(parent_t, ()) if row[parent_c] is not None},
                        key=repr,
                    )
                    draws.append(partial(rng.choice, pool) if pool else lambda: None)
                elif c in pk_indices and col.data_type is ColumnType.NUMBER:
                    # wide range so uniqueness is reachable at any row count
                    draws.append(partial(rng.randint, 1, max(1000, spec.rows_per_table * 20)))
                else:
                    draws.append(_cell_draw(rng, col.data_type, observed[(t, c)]))

            rows: list[tuple] = []
            pk_seen: set[tuple] = set()
            attempts = 0
            while len(rows) < spec.rows_per_table and attempts < spec.rows_per_table * 20:
                attempts += 1
                row = tuple([draw() for draw in draws])
                if pk_indices:
                    pk_tuple = tuple(row[c] for c in pk_indices)
                    if pk_tuple in pk_seen or None in pk_tuple:
                        continue
                    pk_seen.add(pk_tuple)
                rows.append(row)
            generated[t] = rows
            placeholders = ", ".join("?" for _ in table.columns)
            conn.executemany(f"INSERT INTO {quote_identifier(table.name)} VALUES ({placeholders})", rows)
        conn.commit()
    except sqlite3.Error as exc:
        raise GenerationFailed(str(exc)) from exc
    finally:
        conn.close()
    return path


def _score(
    pred_sql: str, gold_sql: str, catalog: DatabaseCatalog, spec: SuiteSpec | None,
    suite_dir: Path | str | None, memo: Memo, example_id: str | None = None,
) -> QuestionScore:
    """One question's score: EX on the original database (a gold failure there
    raises GoldExecutionFailed), then TS on the suites, built into `memo` as
    the walk first reaches each; see the module docstring."""
    if not exec_match(pred_sql, gold_sql, catalog, example_id, memo):
        entry = _outcome(pred_sql, catalog, memo.order_sensitive(gold_sql), memo)
        miss = "differs:original" if isinstance(entry, OutcomeKey) else f"pred_error:{entry.error_kind.value}"
        return QuestionScore(example_id, False, None if spec is None else False, None, miss)
    if spec is None or pred_sql == gold_sql:
        return QuestionScore(example_id, True, None if spec is None else True)
    for k in range(1, spec.suite_count + 1):
        if k > len(memo.suites):  # one past the suites built so far
            if not memo.suites:
                memo.observed = _observed_values(catalog, memo.conns[catalog.db_path])
            path = generate_suite_db(catalog, spec, k, suite_dir, observed=memo.observed)
            memo.suites.append(replace(catalog, db_path=path))
            memo.conns[path] = connect_readonly(memo.suites[-1])
        try:
            if not exec_match(pred_sql, gold_sql, memo.suites[k - 1], memo=memo):
                return QuestionScore(example_id, True, False, None, f"differs:suite{k}")
        except GoldExecutionFailed:
            continue
    return QuestionScore(example_id, True, True)


@contextmanager
def _database_memo(catalog: DatabaseCatalog) -> Iterator[Memo]:
    """A Memo with the original database open; every connection it holds is closed on exit."""
    memo = Memo()
    try:
        memo.conns[catalog.db_path] = connect_readonly(catalog)
        yield memo
    finally:
        for conn in memo.conns.values():
            conn.close()


def ts_match(
    pred_sql: str,
    gold_sql: str,
    catalog: DatabaseCatalog,
    spec: SuiteSpec,
    suite_dir: Path | str | None = None,
) -> bool:
    """TS of one question, scored as `evaluate_file` scores it; a gold failing
    on the original database raises as in exec_match."""
    with _database_memo(catalog) as memo:
        return _score(pred_sql, gold_sql, catalog, spec, suite_dir, memo).ts


# --- file-level evaluation -----------------------------------------------------


def load_predictions(pred_path: Path | str) -> dict[str, str]:
    """example_id -> SQL; a line that is not such a record raises SqlVoteError."""
    predictions: dict[str, str] = {}
    try:
        with open(pred_path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except (json.JSONDecodeError, RecursionError):  # not JSON, or nested too deep
                    record = None
                if not (isinstance(record, dict) and "example_id" in record
                        and isinstance(record.get("sql"), str)):
                    raise SqlVoteError(
                        f"{pred_path}:{number}: not a JSON object with an example_id and a string sql"
                    )
                predictions[str(record["example_id"])] = record["sql"]
    except UnicodeDecodeError as exc:  # decoded a chunk at a time, so no line number
        raise SqlVoteError(f"{pred_path}: not UTF-8 text: {exc}") from exc
    return predictions


def evaluate_file(
    pred_path: Path | str,
    dataset_path: Path | str,
    db_dir: Path | str,
    spec: SuiteSpec | None = None,
    suite_dir: Path | str | None = None,
) -> EvalReport:
    """Score a prediction file against a dataset; TS only when a spec is given.

    Databases go in order of first appearance; the report keeps dataset order.
    """
    predictions = load_predictions(pred_path)
    examples = load_examples(dataset_path)
    for example in examples:  # before any suite is written
        if example.example_id not in predictions:
            raise MissingPrediction(example.example_id)
    by_db: dict[str, list[int]] = {}
    for position, example in enumerate(examples):
        by_db.setdefault(example.db_id, []).append(position)

    scores: dict[int, QuestionScore] = {}
    for db_id, positions in by_db.items():
        catalog = catalog_from_sqlite(Path(db_dir) / db_id / f"{db_id}.sqlite", db_id)
        # this database only: another run rewrites its suite files in place
        with _database_memo(catalog) as memo:
            for position in positions:
                example_id = examples[position].example_id
                pred_sql, gold_sql = predictions[example_id], examples[position].gold_sql or ""
                try:
                    scores[position] = _score(pred_sql, gold_sql, catalog, spec, suite_dir, memo, example_id)
                except GoldExecutionFailed as failure:
                    scores[position] = QuestionScore(example_id, False, None, str(failure), "gold_error")

    per_question = [scores[position] for position in range(len(examples))]
    scored = [q for q in per_question if q.gold_error is None]
    ex_accuracy = sum(q.ex for q in scored) / len(scored) if scored else 0.0
    ts_accuracy = None
    if spec is not None:
        ts_accuracy = sum(bool(q.ts) for q in scored) / len(scored) if scored else 0.0
    counts = {
        "total": len(per_question),
        "scored": len(scored),
        "gold_failures": len(per_question) - len(scored),
        "ex_true": sum(q.ex for q in scored),
        "ts_true": sum(bool(q.ts) for q in scored) if spec is not None else 0,
    }
    return EvalReport(per_question, ex_accuracy, ts_accuracy, counts)
