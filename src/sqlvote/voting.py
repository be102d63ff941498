"""Candidate pooling across arms and majority voting over execution outcomes.

For each question every arm renders its prompt and samples completions;
the pool concatenates all candidates in configuration order. Each distinct
completion text is extracted once per pool, and each distinct statement
runs once per pool, on one read-only connection, and is reduced at once to
what the vote reads: its order-insensitive outcome key, or its error
outcome. A pool holds no rows. With a cache directory, the pool's outcomes
are recorded in the cache, keyed by the database file's bytes, the timeout,
the SQLite version and the pool's statements (see `gateway`); a warm run
replays them, timeouts included, and opens no connection. Error candidates
are filtered, survivors are grouped by outcome key, and the largest
group's earliest candidate wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .catalog import DatabaseCatalog, ExampleItem
from .execution import (
    ErrorKind,
    ExecutionOutcome,
    KeyOrError,
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
    sql: str
    arm: ModelArm
    sample_index: int
    outcome: KeyOrError  # order-insensitive key on success, else the error outcome
    pool_position: int


@dataclass(frozen=True)
class CandidatePool:
    question_id: str
    candidates: tuple[Candidate, ...]
    arms: tuple[ModelArm, ...]


@dataclass(frozen=True)
class SelectionResult:
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
    timeout: float = 5.0,
    max_per_column: int = DEFAULT_MAX_PER_COLUMN,
    demos_for: Callable[[ModelArm], DemoSet] | None = None,
) -> CandidatePool:
    """Sample every arm's candidates, in configuration order, and reduce each to its outcome.

    Each distinct completion text is extracted once, and each distinct
    statement executes once; every candidate holding it shares its key or
    error outcome. Values are linked only when some arm's design renders
    them. All arms are sampled before anything executes, so a pool whose
    outcomes the cache records replays them and opens no connection.
    Otherwise the statements share one read-only connection that is closed
    before this returns; it is never kept across pools, since a database
    file may be rewritten between them. An unreadable database raises
    DbUnreadable.
    """
    renders_values = any(arm.design is not PromptDesignId.BASELINE_DEFAULT for arm in arms)
    matches = link_values(question.question, catalog, max_per_column) if renders_values else []
    # (sql, arm, sample index, the error of a failed completion or None), in pool order
    drafts: list[tuple[str, ModelArm, int, ExecutionOutcome | None]] = []
    extracted: dict[tuple[str, bool], str] = {}
    for arm in arms:
        demos = demos_for(arm) if demos_for is not None else EMPTY_DEMOS
        prompt = render(arm.design, question, catalog, matches, demos)
        prefix_select = arm.design is PromptDesignId.BASELINE_DEFAULT
        for completion in gateway.sample(arm, prompt, seed):
            if completion.failed:
                failure = ExecutionOutcome.error(
                    ErrorKind.RUNTIME, detail=f"backend failure: {completion.text}"
                )
                drafts.append(("", arm, completion.sample_index, failure))
                continue
            sql = extracted.get((completion.text, prefix_select))
            if sql is None:
                sql = extract_sql(completion.text, prefix_select=prefix_select)
                extracted[completion.text, prefix_select] = sql
            drafts.append((sql, arm, completion.sample_index, None))
    statements = list(dict.fromkeys(sql for sql, _, _, failure in drafts if failure is None))

    def execute_all() -> dict[str, KeyOrError]:
        conn = connect_readonly(catalog)
        try:
            return {sql: _key_or_error(execute(sql, catalog, timeout, conn)) for sql in statements}
        finally:
            conn.close()

    outcomes = gateway.outcomes(catalog.db_path, timeout, statements, execute_all)
    candidates = tuple(
        Candidate(sql, arm, index, outcomes[sql] if failure is None else failure, position)
        for position, (sql, arm, index, failure) in enumerate(drafts)
    )
    return CandidatePool(question.example_id, candidates, tuple(arms))


def _key_or_error(outcome: ExecutionOutcome) -> KeyOrError:
    return canonical_key(outcome, order_sensitive=False) if outcome.is_success else outcome


def select_by_consistency(pool: CandidatePool) -> SelectionResult:
    """Majority vote over order-insensitive outcome keys.

    Error candidates count in `filtered_error_count` and nowhere else. Ties
    go to the group holding the smallest pool position, and the winning
    group's earliest candidate supplies the SQL.
    """
    groups: dict[OutcomeKey, list[Candidate]] = {}
    for candidate in pool.candidates:
        if isinstance(candidate.outcome, OutcomeKey):
            groups.setdefault(candidate.outcome, []).append(candidate)

    total = len(pool.candidates)
    tallies = {key: len(members) for key, members in groups.items()}
    filtered = total - sum(tallies.values())
    if not groups:
        return SelectionResult(None, None, {}, filtered, total, False)

    top = max(tallies.values())
    leaders = [key for key, count in tallies.items() if count == top]
    winning_key = min(
        leaders, key=lambda key: min(c.pool_position for c in groups[key])
    )
    winner = min(groups[winning_key], key=lambda c: c.pool_position)
    return SelectionResult(
        selected_sql=winner.sql,
        winning_key=winning_key,
        tallies=tallies,
        filtered_error_count=filtered,
        total_candidates=total,
        tie_broken=len(leaders) > 1,
    )


def run_question(
    question: ExampleItem,
    catalog: DatabaseCatalog,
    arms: list[ModelArm],
    seed: int,
    gateway: Gateway,
    timeout: float = 5.0,
    max_per_column: int = DEFAULT_MAX_PER_COLUMN,
    demos_for: Callable[[ModelArm], DemoSet] | None = None,
) -> tuple[SelectionResult, CandidatePool]:
    """Full per-question pipeline, on the gateway's turn; the unfiltered pool comes back for audit."""
    with gateway.turn():
        pool = build_pool(question, catalog, arms, seed, gateway, timeout, max_per_column, demos_for)
        return select_by_consistency(pool), pool


def audit_records(pool: CandidatePool, result: SelectionResult) -> list[dict]:
    """One record per candidate, suitable for line-delimited audit output."""
    winner_position = next(
        (c.pool_position for c in pool.candidates if c.outcome == result.winning_key), None
    )
    records = []
    for candidate in pool.candidates:
        outcome = candidate.outcome
        succeeded = isinstance(outcome, OutcomeKey)
        records.append(
            {
                "pool_position": candidate.pool_position,
                "sql": candidate.sql,
                "arm": candidate.arm.describe(),
                "sample_index": candidate.sample_index,
                "outcome_kind": "success" if succeeded else outcome.kind,
                "error_kind": None if succeeded else outcome.error_kind.value,
                "outcome_key": outcome.key if succeeded else None,
                "selected": candidate.pool_position == winner_position,
            }
        )
    return records
