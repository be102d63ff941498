"""Candidate pooling across arms and majority voting over execution outcomes.

For each question every arm renders its prompt and samples completions; the
pool concatenates all candidates in configuration order. Each distinct
completion text is extracted once per pool, and each distinct statement runs
once per pool, on one read-only connection, and is reduced at once to what
the vote reads: its order-insensitive outcome key, or its error kind (a
failed completion is a RUNTIME error). A pool holds no rows, timings or
error text. With a cache directory, the pool is recorded in the cache, keyed
by its inputs: the database file's bytes, the timeout, the SQLite version,
the seed and each arm's rendered prompt (see `gateway`). A warm run replays
it, timeouts included: it samples, extracts and executes nothing, and opens
no connection.

A pool is its slots (each position's statement, or None for a failed
completion), the outcome of each statement that ran, and its arms. One tally
(`_tally`) weighs each statement's outcome by the positions holding it:
errors are filtered, the first key with the most candidates wins, and its
earliest statement is the SQL. Statements run by descending candidate count
until the same tally fixes the winner (`_settled`); an audit runs them all.
On a stopped pool the tallies, error count and margin are lower bounds; the
selection is exact.
"""

from __future__ import annotations

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

    Each distinct completion text is extracted once, and each distinct
    statement executes at most once, by descending candidate count until the
    winner is fixed (all of them with `audit`); its key or error kind is
    recorded once, for every position holding it. Values are
    linked only when some arm's design renders them. All arms are rendered
    before anything is sampled, so a pool that the cache records replays
    without sampling, and connects only if it has statements left to run.
    Otherwise the statements share one read-only connection that is closed
    before this returns; it is never kept across pools, since a database
    file may be rewritten between them. An unreadable database raises
    DbUnreadable.
    """
    renders_values = any(arm.design is not PromptDesignId.BASELINE_DEFAULT for arm in arms)
    matches = link_values(question.question, catalog, max_per_column) if renders_values else []
    prompts = [
        (arm, render(arm.design, question, catalog, matches, demos_for(arm) if demos_for else EMPTY_DEMOS))
        for arm in arms
    ]

    def draw() -> list[str | None]:
        slots: list[str | None] = []
        extracted: dict[tuple[str, bool], str] = {}
        for arm, prompt in prompts:
            prefix_select = arm.design is PromptDesignId.BASELINE_DEFAULT
            for completion in gateway.sample(arm, prompt, seed):
                if completion.failed:
                    slots.append(None)
                    continue
                sql = extracted.get((completion.text, prefix_select))
                if sql is None:
                    sql = extract_sql(completion.text, prefix_select=prefix_select)
                    extracted[completion.text, prefix_select] = sql
                slots.append(sql)
        return slots

    def execute_all(slots: list[str | None], outcomes: dict[str, OutcomeKey | ErrorKind]) -> None:
        counts = _counts(slots)
        if outcomes and (counts.keys() <= outcomes.keys() or not audit and _settled(counts, outcomes)):
            return  # a replay with nothing to run neither lets go of the turn nor connects
        # a pool with no outcome yet connects even with no statement: an unreadable database fails it
        with gateway.blocking(), closing(connect_readonly(catalog)) as conn:
            for sql in sorted(counts, key=counts.__getitem__, reverse=True):  # a stable sort
                if not audit and _settled(counts, outcomes):
                    break
                if sql not in outcomes:
                    outcome = execute(sql, catalog, timeout, conn)
                    outcomes[sql] = outcome.error_kind or canonical_key(outcome, order_sensitive=False)

    slots, outcomes = gateway.pool(catalog.db_path, timeout, seed, prompts, draw, execute_all)
    return CandidatePool(tuple(slots), outcomes, tuple(arms))


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
