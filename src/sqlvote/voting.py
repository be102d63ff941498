"""Candidate pooling across arms and majority voting over execution outcomes.

For each question every arm renders its prompt, samples completions, and
executes them; the pool concatenates all candidates in configuration order.
Each distinct extracted statement runs once per pool, on one read-only
connection, and candidates with the same statement share its outcome object.
Error outcomes are filtered, survivors are grouped by canonical execution
outcome, and the largest group's earliest candidate wins.
"""

from __future__ import annotations

import sqlite3
from dataclasses import dataclass, replace
from typing import Callable

from .catalog import DatabaseCatalog, ExampleItem
from .execution import (
    ErrorKind,
    ExecutionOutcome,
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
    outcome: ExecutionOutcome
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
    """Sample and execute every arm's candidates, in configuration order.

    Each distinct extracted statement executes once, and every candidate
    holding it shares that outcome (elapsed time included). The statements
    share one read-only connection that is closed before this returns; it is
    never kept across pools, since a database file may be rewritten between
    them.
    """
    matches = link_values(question.question, catalog, max_per_column) if arms else []
    candidates: list[Candidate] = []
    outcomes: dict[str, ExecutionOutcome] = {}
    conn = _open_or_none(catalog) if arms else None
    try:
        for arm in arms:
            demos = demos_for(arm) if demos_for is not None else EMPTY_DEMOS
            prompt = render(arm.design, question, catalog, matches, demos)
            for completion in gateway.sample(arm, prompt, seed):
                if completion.failed:
                    sql = ""
                    outcome = ExecutionOutcome.error(
                        ErrorKind.RUNTIME, detail=f"backend failure: {completion.text}"
                    )
                else:
                    sql = extract_sql(
                        completion.text,
                        prefix_select=arm.design is PromptDesignId.BASELINE_DEFAULT,
                    )
                    outcome = outcomes.get(sql)
                    if outcome is None:
                        outcome = outcomes[sql] = execute(sql, catalog, timeout, conn)
                candidates.append(
                    Candidate(sql, arm, completion.sample_index, outcome, len(candidates))
                )
    finally:
        if conn is not None:
            conn.close()
    return CandidatePool(question.example_id, tuple(candidates), tuple(arms))


def _open_or_none(catalog: DatabaseCatalog) -> sqlite3.Connection | None:
    # None makes execute open its own connection and report why that fails
    try:
        return connect_readonly(catalog)
    except sqlite3.Error:
        return None


def _outcome_keys(candidates: tuple[Candidate, ...]) -> list[OutcomeKey | None]:
    """Order-insensitive key of each candidate, computed once per outcome object."""
    by_outcome: dict[int, OutcomeKey | None] = {}
    keys = []
    for candidate in candidates:
        outcome = candidate.outcome
        if id(outcome) not in by_outcome:
            by_outcome[id(outcome)] = (
                canonical_key(outcome, order_sensitive=False) if outcome.is_success else None
            )
        keys.append(by_outcome[id(outcome)])
    return keys


def filter_errors(pool: CandidatePool) -> CandidatePool:
    """Drop error-outcome candidates; order and pool positions are preserved."""
    kept = tuple(c for c in pool.candidates if c.outcome.is_success)
    return replace(pool, candidates=kept)


def select_by_consistency(pool: CandidatePool) -> SelectionResult:
    """Majority vote over order-insensitive outcome keys.

    Ties go to the group holding the smallest pool position, and the winning
    group's earliest candidate supplies the SQL. Unfiltered pools are
    filtered here first, so the error count reflects the whole pool.
    """
    total = len(pool.candidates)
    survivors = filter_errors(pool).candidates
    filtered = total - len(survivors)

    groups: dict[OutcomeKey, list[Candidate]] = {}
    for candidate, key in zip(survivors, _outcome_keys(survivors)):
        groups.setdefault(key, []).append(candidate)

    tallies = {key: len(members) for key, members in groups.items()}
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
    """Full per-question pipeline; the unfiltered pool comes back for audit."""
    pool = build_pool(question, catalog, arms, seed, gateway, timeout, max_per_column, demos_for)
    return select_by_consistency(pool), pool


def audit_records(pool: CandidatePool, result: SelectionResult) -> list[dict]:
    """One record per candidate, suitable for line-delimited audit output."""
    keys = _outcome_keys(pool.candidates)
    winner_position = None
    if result.selected_sql is not None and result.winning_key is not None:
        winner_position = next(
            (c.pool_position for c, key in zip(pool.candidates, keys) if key == result.winning_key),
            None,
        )
    return [
        {
            "pool_position": candidate.pool_position,
            "sql": candidate.sql,
            "arm": candidate.arm.describe(),
            "sample_index": candidate.sample_index,
            "outcome_kind": candidate.outcome.kind,
            "error_kind": candidate.outcome.error_kind.value if candidate.outcome.error_kind else None,
            "outcome_key": key.key if key else None,
            "selected": candidate.pool_position == winner_position,
        }
        for candidate, key in zip(pool.candidates, keys)
    ]
