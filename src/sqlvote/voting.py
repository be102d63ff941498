"""Candidate pooling across arms and majority voting over execution outcomes.

For each question every arm renders its prompt and samples completions; the
pool concatenates all candidates in configuration order. Each distinct
completion text is extracted once per pool, and each distinct statement runs
once per pool, on one read-only connection, and is reduced at once to what
the vote reads: its order-insensitive outcome key, or its error kind (a
failed completion is a RUNTIME error). A pool holds no rows, timings or
error text.

A pool is its slots (each position's statement, or None for a failed
completion), the outcome of each statement that ran, and its arms. One tally
(`_tally`) weighs each statement's outcome by the positions holding it:
errors are filtered, the first key with the most candidates wins, and its
earliest statement is the SQL. Statements run by descending candidate count
until the same tally fixes the winner (`_settled`); an audit runs them all.
On a stopped pool the tallies, error count and margin are lower bounds; the
selection is exact.

With a cache directory, each pool has one record (`Gateway.pool_record`),
named by its inputs: the SQLite version, the SHA-256 of the database file's
bytes, `_POOL_FORMAT`, `repr(timeout)`, the seed, and each arm's model,
design, prompt hash, temperature and samples. The record is `[{statement:
key, [error kind], or null if it did not run}, [each position's statement
index, or null for a failed completion]]`. A record with no null index is
the pool: a warm run reads no completion entry, extracts nothing and
executes nothing, timeouts included, and opens no connection, unless it
audits a stopped pool: then it runs only the statements not run. A record
with a failed completion is drawn again, and its outcomes are kept if it
holds exactly the drawn statements. A changed input misses, and a record
that does not decode is a miss.
"""

from __future__ import annotations

import json
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Sequence

from .catalog import DatabaseCatalog, ExampleItem
from .execution import (
    DEFAULT_TIMEOUT,
    ErrorKind,
    OutcomeKey,
    canonical_key,
    connect_readonly,
    execute,
    extract_sql,
)
from .gateway import Gateway, ModelArm
from .linking import DEFAULT_MAX_PER_COLUMN, link_values
from .prompts import EMPTY_DEMOS, DemoSet, PromptDesignId, render

FALLBACK_SQL = "SELECT NULL"
# change it when a record's meaning, what extract_sql returns for a text, or an outcome changes
_POOL_FORMAT = "sqlvote-pool-4"


@dataclass(frozen=True)
class Candidate:
    """One pool position, as read from a pool; the vote itself never builds one."""
    sql: str
    arm: ModelArm
    sample_index: int
    outcome: OutcomeKey | ErrorKind | None  # order-insensitive key, error kind, or None if not run
    pool_position: int


@dataclass(frozen=True)
class CandidatePool:
    """Each position's statement (None for a failed completion), the outcomes of those run, the arms."""
    slots: tuple[str | None, ...]
    outcomes: dict[str, OutcomeKey | ErrorKind]
    arms: tuple[ModelArm, ...]

    def _rows(self):
        """(sql, arm, sample index, outcome, position) per position; a failed completion reads "", RUNTIME."""
        places = ((arm, index) for arm in self.arms for index in range(arm.samples))
        for position, (sql, (arm, index)) in enumerate(zip(self.slots, places)):
            if sql is None:
                yield "", arm, index, ErrorKind.RUNTIME, position
            else:
                yield sql, arm, index, self.outcomes.get(sql), position

    @property
    def candidates(self) -> tuple[Candidate, ...]:
        return tuple(Candidate(*row) for row in self._rows())


@dataclass(frozen=True)
class SelectionResult:
    """The vote; on a pool that stopped executing, `tallies` and `filtered_error_count` are lower bounds."""
    selected_sql: str | None
    winning_key: OutcomeKey | None
    tallies: dict[OutcomeKey, int]
    filtered_error_count: int
    total_candidates: int
    tie_broken: bool


def build_pool(
    question: ExampleItem,
    catalog: DatabaseCatalog,
    arms: list[ModelArm],
    seed: int,
    gateway: Gateway,
    timeout: float = DEFAULT_TIMEOUT,
    max_per_column: int = DEFAULT_MAX_PER_COLUMN,
    demos_for: Callable[[ModelArm], DemoSet] | None = None,
    audit: bool = False,
) -> CandidatePool:
    """Sample every arm's candidates, in configuration order, and run their statements.

    Reads the pool's record; replays it, or draws the pool and keeps the
    record's outcomes if it holds the drawn statements; connects only if
    statements are left to run; runs them by descending candidate count
    until the winner is fixed (all of them with `audit`); and rewrites the
    record if its bytes changed. Values are linked only when some arm's
    design renders them. The statements share one read-only connection,
    closed before this returns and never kept across pools, since a
    database file may be rewritten between them. An unreadable database
    raises DbUnreadable.
    """
    renders_values = any(arm.design is not PromptDesignId.BASELINE_DEFAULT for arm in arms)
    matches = link_values(question.question, catalog, max_per_column) if renders_values else []
    prompts = [
        (arm, render(arm.design, question, catalog, matches, demos_for(arm) if demos_for else EMPTY_DEMOS))
        for arm in arms
    ]
    key = [_POOL_FORMAT, repr(timeout), seed, [
        [arm.model_id, arm.design.value, prompt.content_hash, arm.temperature, arm.samples]
        for arm, prompt in prompts
    ]]
    path, data = gateway.pool_record(catalog.db_path, key) or (None, None)
    recorded = None if data is None else _decode_pool(data, sum(arm.samples for arm in arms))
    if recorded is not None and None not in recorded[0]:
        slots, outcomes = recorded
    else:
        slots, extracted = [], {}
        for arm, prompt in prompts:
            prefix_select = arm.design is PromptDesignId.BASELINE_DEFAULT
            for completion in gateway.sample(arm, prompt, seed):
                text = completion.text
                if not completion.failed and (text, prefix_select) not in extracted:
                    extracted[text, prefix_select] = extract_sql(text, prefix_select=prefix_select)
                slots.append(None if completion.failed else extracted[text, prefix_select])
        same = recorded is not None and {*recorded[0]} - {None} == {*slots} - {None}
        outcomes = recorded[1] if same else {}

    counts = _counts(slots)
    # a pool with no outcome yet connects even with no statement: an unreadable database fails it
    if not outcomes or counts.keys() - outcomes.keys() and (audit or not _settled(counts, outcomes)):
        with gateway.blocking(), closing(connect_readonly(catalog)) as conn:
            for sql in sorted(counts, key=counts.__getitem__, reverse=True):  # a stable sort
                if not audit and _settled(counts, outcomes):
                    break
                if sql not in outcomes:
                    outcome = execute(sql, catalog, timeout, conn)
                    outcomes[sql] = outcome.error_kind or canonical_key(outcome, order_sensitive=False)
    if path is not None and (encoded := _encode_pool(slots, outcomes)) != data:
        gateway.store(path, encoded)
    return CandidatePool(tuple(slots), outcomes, tuple(arms))


def _encode_pool(slots: Sequence[str | None], outcomes: dict[str, OutcomeKey | ErrorKind]) -> bytes:
    """A pool record: each statement's key, [error kind] or null (not run), then each slot's statement index."""
    recorded = {
        sql: o.key if isinstance(o := outcomes.get(sql), OutcomeKey) else None if o is None else [o.value]
        for sql in dict.fromkeys(slots) if sql is not None
    }
    index = {sql: i for i, sql in enumerate(recorded)}
    return json.dumps([recorded, [None if sql is None else index[sql] for sql in slots]]).encode("utf-8")


def _decode_pool(data: bytes, size: int) -> tuple[list[str | None], dict[str, OutcomeKey | ErrorKind]] | None:
    """A record's slots and the outcomes of the statements run, or None unless it is well formed.

    Well formed: `size` slots, each null or a statement's index, every
    statement at some slot, and each statement's value a key, an [error
    kind] or null.
    """
    try:
        recorded, indexes = json.loads(data)
        if len(indexes) != size or not all(i is None or type(i) is int for i in indexes):  # True is an int
            return None
        if {i for i in indexes if i is not None} != set(range(len(recorded))):
            return None
        outcomes: dict[str, OutcomeKey | ErrorKind] = {}
        for sql, value in recorded.items():
            if type(value) is list and len(value) == 1:
                outcomes[sql] = ErrorKind(value[0])
            elif isinstance(value, str):
                outcomes[sql] = OutcomeKey(value)
            elif value is not None:
                return None
        statements = list(recorded)
        return [None if i is None else statements[i] for i in indexes], outcomes
    except (AttributeError, TypeError, ValueError, RecursionError):  # not JSON or [mapping, list]
        return None


def _counts(slots: Sequence[str | None]) -> dict[str, int]:
    """Candidates per statement, in first-appearance order (not a Counter: its first call costs ~50 us)."""
    return {sql: slots.count(sql) for sql in dict.fromkeys(slots) if sql is not None}


def _tally(
    counts: dict[str, int], outcomes: dict[str, OutcomeKey | ErrorKind]
) -> tuple[dict[OutcomeKey, int], int, int]:
    """Candidates per key, in order of each key's first position; candidates in error; candidates not run."""
    tallies: dict[OutcomeKey, int] = {}
    errors = pending = 0
    for sql, count in counts.items():
        outcome = outcomes.get(sql)
        if outcome is None:
            pending += count
        elif isinstance(outcome, OutcomeKey):
            tallies[outcome] = tallies.get(outcome, 0) + count
        else:
            errors += count
    return tallies, errors, pending


def _settled(counts: dict[str, int], outcomes: dict[str, OutcomeKey | ErrorKind]) -> bool:
    """Whether the known outcomes fix the vote, whatever the statements not run return.

    They do once the leader's candidates outnumber the runner-up's plus all those not run
    (errors never vote), and no statement not run first appears before the leader's first.
    """
    tallies, _, pending = _tally(counts, outcomes)
    lead, second = (sorted(tallies.values(), reverse=True) + [0, 0])[:2]
    if lead <= second + pending:
        return False
    leader = max(tallies, key=tallies.__getitem__)
    return next(sql for sql in counts if sql not in outcomes or outcomes[sql] == leader) in outcomes


def select_by_consistency(pool: CandidatePool) -> SelectionResult:
    """Majority vote over order-insensitive outcome keys.

    Candidates in error (a failed completion is one) count in
    `filtered_error_count` and nowhere else, and a candidate whose statement
    did not run counts nowhere. The first key with the most candidates, in
    order of first position, wins, and its earliest statement is the SQL.
    """
    counts = _counts(pool.slots)
    tallies, errors, _ = _tally(counts, pool.outcomes)
    filtered, total = errors + pool.slots.count(None), len(pool.slots)
    if not tallies:
        return SelectionResult(None, None, {}, filtered, total, False)
    winning_key = max(tallies, key=tallies.__getitem__)  # the first maximum
    return SelectionResult(
        selected_sql=next(sql for sql in counts if pool.outcomes.get(sql) == winning_key),
        winning_key=winning_key,
        tallies=tallies,
        filtered_error_count=filtered,
        total_candidates=total,
        tie_broken=list(tallies.values()).count(tallies[winning_key]) > 1,
    )


def run_question(
    question: ExampleItem,
    catalog: DatabaseCatalog,
    arms: list[ModelArm],
    seed: int,
    gateway: Gateway,
    timeout: float = DEFAULT_TIMEOUT,
    max_per_column: int = DEFAULT_MAX_PER_COLUMN,
    demos_for: Callable[[ModelArm], DemoSet] | None = None,
    audit: bool = False,
) -> tuple[SelectionResult, CandidatePool]:
    """Full per-question pipeline, on the gateway's turn; the unfiltered pool comes back for audit."""
    with gateway.turn():
        pool = build_pool(question, catalog, arms, seed, gateway, timeout, max_per_column, demos_for, audit)
        return select_by_consistency(pool), pool


def audit_records(pool: CandidatePool, result: SelectionResult) -> list[dict]:
    """One record per pool position, for line-delimited audit output; the pool ran every statement."""
    winner_position = None if result.selected_sql is None else pool.slots.index(result.selected_sql)
    records = []
    for sql, arm, sample_index, outcome, position in pool._rows():
        succeeded = isinstance(outcome, OutcomeKey)
        records.append(
            {
                "pool_position": position,
                "sql": sql,
                "arm": arm.describe(),
                "sample_index": sample_index,
                "outcome_kind": "success" if succeeded else "error",
                "error_kind": None if succeeded else outcome.value,
                "outcome_key": outcome.key if succeeded else None,
                "selected": position == winner_position,
            }
        )
    return records
