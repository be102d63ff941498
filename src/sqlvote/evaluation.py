"""Execution accuracy (EX) and simplified test-suite accuracy (TS).

EX compares canonical execution outcomes of predicted and gold SQL on the
original database. TS re-runs the comparison on randomly generated databases
that share the schema and keys. The generator here is a schema-respecting
fuzzer, not the distilled suites of the published benchmark tooling, so all
reports label the metric "TS (simplified)".
"""

from __future__ import annotations

import datetime
import json
import random
import sqlite3
import string
from dataclasses import dataclass, replace
from pathlib import Path

from .catalog import ColumnType, DatabaseCatalog, catalog_from_sqlite, load_examples
from .errors import GenerationFailed, GoldExecutionFailed, MissingPrediction
from .execution import canonical_key, execute, is_order_sensitive

_ORIGINAL_VALUE_CAP = 200
_ORIGINAL_SHARE = 0.5  # chance a fuzzed cell reuses an observed value


@dataclass(frozen=True)
class SuiteSpec:
    suite_count: int = 10
    rows_per_table: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.suite_count < 1:
            raise ValueError("suite_count must be >= 1")
        if self.rows_per_table < 1:
            raise ValueError("rows_per_table must be >= 1")


@dataclass
class QuestionScore:
    example_id: str
    ex: bool
    ts: bool | None = None
    gold_error: str | None = None


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


def exec_match(
    pred_sql: str,
    gold_sql: str,
    catalog: DatabaseCatalog,
    timeout: float = 30.0,
    example_id: str | None = None,
) -> bool:
    """True iff both statements succeed and their canonical outcomes agree.

    Row order matters exactly when the gold statement has a top-level
    ORDER BY. A failing gold statement is a dataset defect, not a score:
    it raises GoldExecutionFailed naming `example_id`.
    """
    gold_outcome = execute(gold_sql, catalog, timeout)
    if not gold_outcome.is_success:
        raise GoldExecutionFailed(example_id, gold_outcome.detail)
    pred_outcome = execute(pred_sql, catalog, timeout)
    if not pred_outcome.is_success:
        return False
    sensitive = is_order_sensitive(gold_sql)
    return canonical_key(pred_outcome, sensitive) == canonical_key(gold_outcome, sensitive)


# --- suite database generation -------------------------------------------------


def _topological_tables(catalog: DatabaseCatalog) -> tuple[list[int], set[tuple]]:
    """Parent-first table order; returns (order, dropped fk edges)."""
    n = len(catalog.tables)
    parents: dict[int, set[int]] = {t: set() for t in range(n)}
    for (child_t, _), (parent_t, _) in catalog.foreign_keys:
        if child_t != parent_t:
            parents[child_t].add(parent_t)

    order: list[int] = []
    done: set[int] = set()
    dropped: set[tuple] = set()
    remaining = set(range(n))
    while remaining:
        ready = sorted(t for t in remaining if parents[t] <= done)
        if not ready:
            # Cycle: release the smallest-index table, dropping its unmet edges.
            victim = min(remaining)
            for fk in catalog.foreign_keys:
                (child_t, _), (parent_t, _) = fk
                if child_t == victim and parent_t in remaining and parent_t != victim:
                    dropped.add(fk)
            parents[victim] = parents[victim] & done
            ready = [victim]
        for t in ready:
            order.append(t)
            done.add(t)
            remaining.discard(t)
    for fk in catalog.foreign_keys:  # self-references can never be populated parent-first
        if fk[0][0] == fk[1][0]:
            dropped.add(fk)
    return order, dropped


def _observed_values(catalog: DatabaseCatalog) -> dict[tuple[int, int], list]:
    observed: dict[tuple[int, int], list] = {}
    conn = sqlite3.connect(f"file:{catalog.db_path}?mode=ro", uri=True)
    conn.text_factory = lambda b: b.decode("utf-8", "replace")
    try:
        for t, table in enumerate(catalog.tables):
            for c, col in enumerate(table.columns):
                seen: dict = {}
                try:
                    cursor = conn.execute(f'SELECT "{col.name}" FROM "{table.name}"')
                except sqlite3.Error:
                    observed[(t, c)] = []
                    continue
                for (value,) in cursor:
                    if value is None or value in seen:
                        continue
                    seen[value] = None
                    if len(seen) >= _ORIGINAL_VALUE_CAP:
                        break
                observed[(t, c)] = list(seen)
    finally:
        conn.close()
    return observed


def _random_word(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 8)))


def _random_value(rng: random.Random, col_type: ColumnType, observed: list):
    if col_type is ColumnType.NUMBER:
        numeric = [v for v in observed if isinstance(v, (int, float))]
        if numeric:
            low, high = min(numeric), max(numeric)
            return rng.randint(int(low), max(int(low), int(high)))
        return rng.randint(-1000, 1000)
    if col_type is ColumnType.TIME:
        day = datetime.date(1990, 1, 1) + datetime.timedelta(days=rng.randint(0, 14975))
        return day.isoformat()
    if col_type is ColumnType.BOOLEAN:
        return rng.randint(0, 1)
    return " ".join(_random_word(rng) for _ in range(rng.randint(1, 3)))


def _column_ddl_type(col_type: ColumnType) -> str:
    if col_type is ColumnType.NUMBER:
        return "NUMERIC"
    if col_type is ColumnType.BOOLEAN:
        return "NUMERIC"
    return "TEXT"


def _create_schema(conn: sqlite3.Connection, catalog: DatabaseCatalog) -> None:
    for t, table in enumerate(catalog.tables):
        defs = [f'"{col.name}" {_column_ddl_type(col.data_type)}' for col in table.columns]
        pk_cols = [table.columns[c].name for (pt, c) in catalog.primary_keys if pt == t]
        if pk_cols:
            defs.append("PRIMARY KEY (" + ", ".join(f'"{name}"' for name in pk_cols) + ")")
        for (child_t, child_c), (parent_t, parent_c) in catalog.foreign_keys:
            if child_t != t:
                continue
            defs.append(
                f'FOREIGN KEY ("{table.columns[child_c].name}") REFERENCES '
                f'"{catalog.tables[parent_t].name}" ("{catalog.tables[parent_t].columns[parent_c].name}")'
            )
        conn.execute(f'CREATE TABLE "{table.name}" ({", ".join(defs)})')


def generate_suite_db(
    catalog: DatabaseCatalog,
    spec: SuiteSpec,
    suite_index: int,
    out_dir: Path | str | None = None,
    observed: dict[tuple[int, int], list] | None = None,
) -> Path:
    """Write one fuzzed database sharing the catalog's schema and keys.

    Parents are populated before children so foreign-key columns only hold
    values present in the parent; cells otherwise draw half from the
    original column and half from type-appropriate random values.
    Deterministic given (catalog, spec.seed, suite_index). `observed` is the
    catalog's original column values; they are read here when not given.
    """
    out_dir = Path(out_dir) if out_dir is not None else catalog.db_path.parent / "_suites"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{catalog.db_id}__suite{suite_index:03d}__seed{spec.seed}.sqlite"
    if path.exists():
        path.unlink()

    rng = random.Random(f"{catalog.db_id}/{spec.seed}/{suite_index}")
    order, dropped = _topological_tables(catalog)
    if observed is None:
        observed = _observed_values(catalog)
    generated: dict[int, list[tuple]] = {}

    conn = sqlite3.connect(path)
    try:
        _create_schema(conn, catalog)
        for t in order:
            table = catalog.tables[t]
            pk_indices = [c for (pt, c) in catalog.primary_keys if pt == t]
            fk_of: dict[int, tuple[int, int]] = {}
            for fk in catalog.foreign_keys:
                (child_t, child_c), (parent_t, parent_c) = fk
                if child_t == t and fk not in dropped:
                    fk_of[child_c] = (parent_t, parent_c)

            parent_pool: dict[int, list] = {}
            for c, (parent_t, parent_c) in fk_of.items():
                pool = sorted(
                    {row[parent_c] for row in generated.get(parent_t, ()) if row[parent_c] is not None},
                    key=repr,
                )
                parent_pool[c] = pool

            rows: list[tuple] = []
            pk_seen: set[tuple] = set()
            attempts = 0
            while len(rows) < spec.rows_per_table and attempts < spec.rows_per_table * 20:
                attempts += 1
                row = []
                for c, col in enumerate(table.columns):
                    if c in fk_of:
                        pool = parent_pool[c]
                        row.append(rng.choice(pool) if pool else None)
                    elif c in pk_indices and col.data_type is ColumnType.NUMBER:
                        # wide range so uniqueness is reachable at any row count
                        row.append(rng.randint(1, max(1000, spec.rows_per_table * 20)))
                    else:
                        source = observed[(t, c)]
                        if source and rng.random() < _ORIGINAL_SHARE:
                            row.append(rng.choice(source))
                        else:
                            row.append(_random_value(rng, col.data_type, source))
                if pk_indices:
                    pk_tuple = tuple(row[c] for c in pk_indices)
                    if pk_tuple in pk_seen or None in pk_tuple:
                        continue
                    pk_seen.add(pk_tuple)
                rows.append(tuple(row))
            generated[t] = rows
            placeholders = ", ".join("?" for _ in table.columns)
            conn.executemany(f'INSERT INTO "{table.name}" VALUES ({placeholders})', rows)
        conn.commit()
    except sqlite3.Error as exc:
        conn.close()
        raise GenerationFailed(str(exc)) from exc
    finally:
        conn.close()
    return path


def cycle_broken_edges(catalog: DatabaseCatalog) -> set[tuple]:
    """Foreign-key edges the generator cannot honor (cycles, self-references)."""
    _, dropped = _topological_tables(catalog)
    return dropped


def suite_catalogs(
    catalog: DatabaseCatalog,
    spec: SuiteSpec,
    suite_dir: Path | str | None = None,
) -> list[DatabaseCatalog]:
    """Generate all suites for a catalog, returned as catalogs over the new files."""
    observed = _observed_values(catalog)
    return [
        replace(
            catalog,
            db_path=generate_suite_db(catalog, spec, suite_index, suite_dir, observed=observed),
        )
        for suite_index in range(1, spec.suite_count + 1)
    ]


def ts_match(
    pred_sql: str,
    gold_sql: str,
    catalog: DatabaseCatalog,
    spec: SuiteSpec,
    suite_dir: Path | str | None = None,
    timeout: float = 30.0,
    suites: list[DatabaseCatalog] | None = None,
) -> bool:
    """EX on the original database plus every generated suite.

    A gold statement failing on a fuzzed suite skips that suite; failing on
    the original raises as in exec_match.
    """
    if not exec_match(pred_sql, gold_sql, catalog, timeout):
        return False
    if suites is None:
        suites = suite_catalogs(catalog, spec, suite_dir)
    return _suites_match(pred_sql, gold_sql, suites, timeout)


def _suites_match(
    pred_sql: str, gold_sql: str, suites: list[DatabaseCatalog], timeout: float
) -> bool:
    """The suite half of TS: EX on every suite whose gold statement succeeds."""
    for suite_catalog in suites:
        try:
            if not exec_match(pred_sql, gold_sql, suite_catalog, timeout):
                return False
        except GoldExecutionFailed:
            continue
    return True


# --- file-level evaluation -----------------------------------------------------


def load_predictions(pred_path: Path | str) -> dict[str, str]:
    predictions: dict[str, str] = {}
    with open(pred_path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            predictions[str(record["example_id"])] = record["sql"]
    return predictions


def evaluate_file(
    pred_path: Path | str,
    dataset_path: Path | str,
    db_dir: Path | str,
    spec: SuiteSpec | None = None,
    suite_dir: Path | str | None = None,
    timeout: float = 30.0,
) -> EvalReport:
    """Score a prediction file against a dataset; TS only when a spec is given."""
    predictions = load_predictions(pred_path)
    examples = load_examples(dataset_path)
    db_dir = Path(db_dir)

    catalogs: dict[str, DatabaseCatalog] = {}
    suites: dict[str, list[DatabaseCatalog]] = {}
    per_question: list[QuestionScore] = []
    gold_failures = 0
    for example in examples:
        if example.example_id not in predictions:
            raise MissingPrediction(example.example_id)
        if example.db_id not in catalogs:
            catalogs[example.db_id] = catalog_from_sqlite(
                db_dir / example.db_id / f"{example.db_id}.sqlite", example.db_id
            )
        catalog = catalogs[example.db_id]
        if spec is not None and example.db_id not in suites:
            suites[example.db_id] = suite_catalogs(catalog, spec, suite_dir)
        pred_sql = predictions[example.example_id]
        gold_sql = example.gold_sql or ""
        try:
            ex = exec_match(pred_sql, gold_sql, catalog, timeout, example.example_id)
            ts = None
            if spec is not None:
                # TS includes EX, so only the suites are left to score
                ts = ex and _suites_match(pred_sql, gold_sql, suites[example.db_id], timeout)
            per_question.append(QuestionScore(example.example_id, ex, ts))
        except GoldExecutionFailed as failure:
            gold_failures += 1
            per_question.append(
                QuestionScore(example.example_id, False, None, gold_error=str(failure))
            )

    scored = [q for q in per_question if q.gold_error is None]
    ex_accuracy = sum(q.ex for q in scored) / len(scored) if scored else 0.0
    ts_accuracy = None
    if spec is not None:
        ts_accuracy = sum(bool(q.ts) for q in scored) / len(scored) if scored else 0.0
    counts = {
        "total": len(per_question),
        "scored": len(scored),
        "gold_failures": gold_failures,
        "ex_true": sum(q.ex for q in scored),
        "ts_true": sum(bool(q.ts) for q in scored) if spec is not None else 0,
    }
    return EvalReport(per_question, ex_accuracy, ts_accuracy, counts)
