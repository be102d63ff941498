from __future__ import annotations

import random
import sqlite3
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlvote import voting
from sqlvote.execution import ErrorKind, ExecutionOutcome, canonical_key, execute
from sqlvote.gateway import Gateway, ModelArm, ScriptedBackend
from sqlvote.prompts import PromptDesignId
from sqlvote.voting import (
    Candidate,
    CandidatePool,
    audit_records,
    build_pool,
    filter_errors,
    run_question,
    select_by_consistency,
)

from oracles import majority_select

ARM = ModelArm("m", PromptDesignId.CONCISE, samples=2)


def _success(rows):
    return ExecutionOutcome.success(rows, 0.0)


def _error(kind=ErrorKind.SYNTAX):
    return ExecutionOutcome.error(kind)


def _pool(outcomes, question_id="q"):
    candidates = tuple(
        Candidate(f"SELECT {i}", ARM, i, outcome, i) for i, outcome in enumerate(outcomes)
    )
    return CandidatePool(question_id, candidates, (ARM,))


def test_strict_majority():
    # keys [A, B, B] -> winner B with tallies {A: 1, B: 2}
    pool = _pool([_success([(1,)]), _success([(2,)]), _success([(2,)])])
    result = select_by_consistency(pool)
    assert result.winning_key == canonical_key(_success([(2,)]), False)
    assert sorted(result.tallies.values()) == [1, 2]
    assert result.selected_sql == "SELECT 1"  # earliest candidate of the B group
    assert not result.tie_broken


def test_tie_breaks_to_earliest_position():
    pool = _pool([_success([(1,)]), _success([(2,)])])
    result = select_by_consistency(pool)
    assert result.winning_key == canonical_key(_success([(1,)]), False)
    assert result.selected_sql == "SELECT 0"
    assert result.tie_broken


def test_empty_pool():
    result = select_by_consistency(_pool([]))
    assert result.selected_sql is None
    assert result.winning_key is None
    assert result.tallies == {}
    assert result.total_candidates == 0


def test_all_errors():
    result = select_by_consistency(_pool([_error(), _error(ErrorKind.RUNTIME)]))
    assert result.selected_sql is None
    assert result.filtered_error_count == 2
    assert result.total_candidates == 2


def test_single_candidate():
    result = select_by_consistency(_pool([_success([("x",)])]))
    assert result.selected_sql == "SELECT 0"
    assert not result.tie_broken


def test_filter_errors_counts():
    pool = _pool([_success([(1,)]), _error(), _success([(1,)]), _success([(2,)])])
    filtered = filter_errors(pool)
    assert len(filtered.candidates) == 3
    assert [c.pool_position for c in filtered.candidates] == [0, 2, 3]
    assert filter_errors(filtered) == filtered
    assert len(filter_errors(_pool([_error(), _error()])).candidates) == 0


def test_tallies_plus_errors_equals_total():
    pool = _pool([_success([(1,)]), _error(), _success([(2,)]), _success([(2,)]), _error()])
    result = select_by_consistency(pool)
    assert result.filtered_error_count + sum(result.tallies.values()) == result.total_candidates == 5
    assert result.tallies[result.winning_key] == max(result.tallies.values())


def _random_outcome(rng, n_keys):
    # distinct integer payloads map to distinct canonical keys
    return _success([(rng.randrange(n_keys),)])


def _random_pool(rng):
    size = rng.randint(0, 40)
    n_keys = rng.randint(1, 5)
    error_rate = rng.uniform(0.0, 0.3)
    outcomes = [
        _error(rng.choice(list(ErrorKind))) if rng.random() < error_rate else _random_outcome(rng, n_keys)
        for _ in range(size)
    ]
    return _pool(outcomes)


def test_thousand_pools_match_bruteforce_oracle():
    rng = random.Random(20240810)
    for trial in range(1000):
        pool = _random_pool(rng)
        result = select_by_consistency(pool)
        entries = [
            (c.pool_position, list(c.outcome.rows or []), not c.outcome.is_success)
            for c in pool.candidates
        ]
        winner_position, best_count, tie = majority_select(entries)
        if winner_position is None:
            assert result.selected_sql is None, trial
        else:
            assert result.selected_sql == pool.candidates[winner_position].sql, trial
            assert result.winning_key == canonical_key(
                pool.candidates[winner_position].outcome, False
            ), trial
            assert result.tallies[result.winning_key] == best_count, trial
            assert result.tie_broken == tie, trial


def test_error_immunity():
    rng = random.Random(5)
    for _ in range(100):
        pool = _random_pool(rng)
        base = select_by_consistency(pool)
        extended = CandidatePool(
            pool.question_id,
            pool.candidates
            + (Candidate("SELECT broken", ARM, 0, _error(), len(pool.candidates)),),
            pool.arms,
        )
        grown = select_by_consistency(extended)
        assert grown.winning_key == base.winning_key
        assert grown.selected_sql == base.selected_sql


def test_duplication_monotonicity():
    rng = random.Random(6)
    for _ in range(100):
        pool = _random_pool(rng)
        base = select_by_consistency(pool)
        if base.winning_key is None:
            continue
        winners = [
            c
            for c in pool.candidates
            if c.outcome.is_success and canonical_key(c.outcome, False) == base.winning_key
        ]
        clone = winners[0]
        extended = CandidatePool(
            pool.question_id,
            pool.candidates
            + (Candidate(clone.sql, clone.arm, clone.sample_index, clone.outcome, len(pool.candidates)),),
            pool.arms,
        )
        assert select_by_consistency(extended).winning_key == base.winning_key


def test_group_permutation_invariance():
    rng = random.Random(8)
    for _ in range(100):
        pool = _random_pool(rng)
        base = select_by_consistency(pool)
        shuffled = list(pool.candidates)
        rng.shuffle(shuffled)
        permuted = CandidatePool(pool.question_id, tuple(shuffled), pool.arms)
        result = select_by_consistency(permuted)
        assert result.winning_key == base.winning_key
        assert result.selected_sql == base.selected_sql
        assert result.tie_broken == base.tie_broken


# --- pipeline-level pooling -------------------------------------------------------


def _scripted_gateway(prompt_to_completions):
    gateway = Gateway()
    gateway.register_backend("m", ScriptedBackend(prompt_to_completions))
    return gateway


def _render_hashes(example, catalog, arms):
    from sqlvote.linking import link_values
    from sqlvote.prompts import render

    matches = link_values(example.question, catalog)
    return {
        arm.design: render(arm.design, example, catalog, matches).content_hash for arm in arms
    }


def test_pool_counts_and_positions(dev_examples, singer_catalog):
    example = dev_examples[1]
    arms = [
        ModelArm("m", PromptDesignId.CONCISE, samples=2),
        ModelArm("m", PromptDesignId.VERBOSE, samples=2),
    ]
    hashes = _render_hashes(example, singer_catalog, arms)
    gateway = _scripted_gateway(
        {
            hashes[PromptDesignId.CONCISE]: ["SELECT 1", "SELECT 2"],
            hashes[PromptDesignId.VERBOSE]: ["SELECT 3", "SELECT 4"],
        }
    )
    pool = build_pool(example, singer_catalog, arms, seed=0, gateway=gateway)
    assert len(pool.candidates) == 4
    assert [c.pool_position for c in pool.candidates] == [0, 1, 2, 3]
    assert [c.sql for c in pool.candidates] == ["SELECT 1", "SELECT 2", "SELECT 3", "SELECT 4"]
    assert [c.arm.design for c in pool.candidates] == [
        PromptDesignId.CONCISE, PromptDesignId.CONCISE,
        PromptDesignId.VERBOSE, PromptDesignId.VERBOSE,
    ]


def test_zero_arms_empty_pool(dev_examples, singer_catalog):
    pool = build_pool(dev_examples[1], singer_catalog, [], seed=0, gateway=Gateway())
    assert pool.candidates == ()


def test_equal_budgets_per_design(dev_examples, singer_catalog):
    """With nF designs at equal budgets, each design contributes exactly B candidates."""
    example = dev_examples[1]
    B = 3
    arms = [
        ModelArm("m", PromptDesignId.CONCISE, samples=B),
        ModelArm("m", PromptDesignId.VERBOSE, samples=B),
    ]
    hashes = _render_hashes(example, singer_catalog, arms)
    gateway = _scripted_gateway(
        {hashes[d]: ["SELECT 1"] for d in (PromptDesignId.CONCISE, PromptDesignId.VERBOSE)}
    )
    pool = build_pool(example, singer_catalog, arms, seed=0, gateway=gateway)
    per_design = {}
    for c in pool.candidates:
        per_design[c.arm.design] = per_design.get(c.arm.design, 0) + 1
    assert per_design == {PromptDesignId.CONCISE: B, PromptDesignId.VERBOSE: B}


def test_run_question_majority(dev_examples, singer_catalog):
    """3 of 4 candidates share the correct outcome -> the winner carries it."""
    example = dev_examples[1]  # largest net worth -> Tom Reed
    gold_rows = (("Tom Reed",),)
    arms = [
        ModelArm("m", PromptDesignId.CONCISE, samples=2),
        ModelArm("m", PromptDesignId.VERBOSE, samples=2),
    ]
    hashes = _render_hashes(example, singer_catalog, arms)
    gateway = _scripted_gateway(
        {
            hashes[PromptDesignId.CONCISE]: [
                "SELECT Name FROM singer ORDER BY Net_Worth_Millions DESC LIMIT 1",
                "SELECT Name FROM singer WHERE Net_Worth_Millions = 40.0",
            ],
            hashes[PromptDesignId.VERBOSE]: [
                "SELECT T1.name FROM singer AS T1 ORDER BY T1.net_worth_millions Desc LIMIT 1",
                "SELECT Name FROM singer",  # minority: all six names
            ],
        }
    )
    result, pool = run_question(example, singer_catalog, arms, seed=0, gateway=gateway)
    assert result.tallies[result.winning_key] == 3
    assert result.winning_key == canonical_key(_success(list(gold_rows)), False)
    assert result.selected_sql == "SELECT Name FROM singer ORDER BY Net_Worth_Millions DESC LIMIT 1"
    assert len(pool.candidates) == 4


def test_run_question_all_errors(dev_examples, singer_catalog):
    example = dev_examples[1]
    arms = [ModelArm("m", PromptDesignId.CONCISE, samples=2)]
    hashes = _render_hashes(example, singer_catalog, arms)
    gateway = _scripted_gateway({hashes[PromptDesignId.CONCISE]: ["SELEC oops", "ALSO broken("]})
    result, _ = run_question(example, singer_catalog, arms, seed=0, gateway=gateway)
    assert result.selected_sql is None
    assert result.filtered_error_count == 2


def test_run_question_single_valid(dev_examples, singer_catalog):
    example = dev_examples[1]
    arms = [ModelArm("m", PromptDesignId.CONCISE, samples=2)]
    hashes = _render_hashes(example, singer_catalog, arms)
    gateway = _scripted_gateway(
        {hashes[PromptDesignId.CONCISE]: ["SELEC oops", "SELECT count(*) FROM song"]}
    )
    result, _ = run_question(example, singer_catalog, arms, seed=0, gateway=gateway)
    assert result.selected_sql == "SELECT count(*) FROM song"


def test_backend_failures_become_error_candidates(dev_examples, singer_catalog):
    example = dev_examples[1]
    arms = [ModelArm("ghostless", PromptDesignId.CONCISE, samples=3)]
    gateway = Gateway()
    gateway.register_backend("ghostless", ScriptedBackend({}))
    result, pool = run_question(example, singer_catalog, arms, seed=0, gateway=gateway)
    assert len(pool.candidates) == 3
    assert all(not c.outcome.is_success for c in pool.candidates)
    assert all(c.outcome.error_kind is ErrorKind.RUNTIME for c in pool.candidates)
    assert result.selected_sql is None


# --- one execution per distinct statement ---------------------------------------


def test_identical_sql_executes_once_per_pool(dev_examples, singer_catalog, monkeypatch):
    """x, x; and a fenced x are one statement: one execution, one shared outcome."""
    example = dev_examples[1]
    sql = "SELECT Name FROM singer WHERE Citizenship = 'France'"
    forms = [sql, sql + ";", f"```sql\n{sql}\n```"]
    k = 7
    arms = [ModelArm("m", PromptDesignId.CONCISE, samples=k)]
    hashes = _render_hashes(example, singer_catalog, arms)
    gateway = _scripted_gateway({hashes[PromptDesignId.CONCISE]: forms})

    calls = []
    connections = []
    connect = voting.connect_readonly

    def counting_execute(*args, **kwargs):
        calls.append(args[0])
        return execute(*args, **kwargs)

    def recording_connect(catalog):
        connections.append(connect(catalog))
        return connections[-1]

    monkeypatch.setattr(voting, "execute", counting_execute)
    monkeypatch.setattr(voting, "connect_readonly", recording_connect)
    pool = build_pool(example, singer_catalog, arms, seed=0, gateway=gateway)

    assert calls == [sql]
    assert len(pool.candidates) == k
    assert {c.sql for c in pool.candidates} == {sql}
    assert all(c.outcome is pool.candidates[0].outcome for c in pool.candidates)
    assert pool.candidates[0].outcome.rows == execute(sql, singer_catalog).rows
    assert len(connections) == 1
    with pytest.raises(sqlite3.ProgrammingError):  # closed once the pool is built
        connections[0].execute("SELECT 1")


def test_timeout_does_not_spoil_the_pool_connection(dev_examples, singer_catalog):
    example = dev_examples[1]
    endless = "WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM r) SELECT count(*) FROM r"
    arms = [ModelArm("m", PromptDesignId.CONCISE, samples=3)]
    hashes = _render_hashes(example, singer_catalog, arms)
    gateway = _scripted_gateway(
        {hashes[PromptDesignId.CONCISE]: [endless, "SELECT count(*) FROM song", endless]}
    )
    pool = build_pool(example, singer_catalog, arms, seed=0, gateway=gateway, timeout=0.2)
    first, second, third = (c.outcome for c in pool.candidates)
    assert first.error_kind is ErrorKind.TIMEOUT
    assert second.is_success and second.rows == execute("SELECT count(*) FROM song", singer_catalog).rows
    assert third is first


_POOL_SQL = [
    "SELECT Name FROM singer",
    "SELECT Name FROM singer ORDER BY Name",  # same multiset as the line above
    "SELECT count(*) FROM song",
    "SELECT 6",
    "SELECT Name FROM singer WHERE Citizenship = 'France'",
    "SELEC oops",
    "SELECT * FROM missing_table",
    "DROP TABLE singer",
    "",
]
_completion = st.builds(
    lambda sql, form: [sql, sql + ";", f"```sql\n{sql}\n```"][form],
    st.sampled_from(_POOL_SQL),
    st.integers(0, 2),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_completion, min_size=1, max_size=8), st.lists(_completion, min_size=1, max_size=8))
def test_memoized_pool_votes_like_separate_executions(dev_examples, singer_catalog, concise, verbose):
    example = dev_examples[1]
    arms = [
        ModelArm("m", PromptDesignId.CONCISE, samples=len(concise)),
        ModelArm("m", PromptDesignId.VERBOSE, samples=len(verbose)),
    ]
    hashes = _render_hashes(example, singer_catalog, arms)
    gateway = _scripted_gateway(
        {hashes[PromptDesignId.CONCISE]: concise, hashes[PromptDesignId.VERBOSE]: verbose}
    )
    result, pool = run_question(example, singer_catalog, arms, seed=0, gateway=gateway)

    separate = CandidatePool(
        pool.question_id,
        tuple(replace(c, outcome=execute(c.sql, singer_catalog)) for c in pool.candidates),
        pool.arms,
    )
    reference = select_by_consistency(separate)
    assert result == reference
    assert audit_records(pool, result) == audit_records(separate, reference)
