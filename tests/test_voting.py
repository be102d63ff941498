from __future__ import annotations

import json
import os
import random
import re
import shutil
import sqlite3
import sys
import tempfile
import threading
import time
from collections import Counter
from contextlib import ExitStack, closing, contextmanager
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqlvote import gateway as gateway_module
from sqlvote import execution, voting
from sqlvote.catalog import ExampleItem, catalog_from_sqlite
from sqlvote.evaluation import exec_match
from sqlvote.execution import ErrorKind, ExecutionOutcome, OutcomeKey, canonical_key, execute
from sqlvote.gateway import Gateway, ModelArm, ScriptedBackend
from sqlvote.prompts import PromptDesignId
from sqlvote.voting import (
    CandidatePool,
    audit_records,
    build_pool,
    run_question,
    select_by_consistency,
)

from oracles import majority_select

ARM = ModelArm("m", PromptDesignId.CONCISE, samples=2)


def _success(rows):
    return ExecutionOutcome.success(rows)


def _error(kind=ErrorKind.SYNTAX):
    return ExecutionOutcome.error(kind)


def _reduced(outcome):
    """What build_pool keeps of an outcome: its order-insensitive key, or the error's kind."""
    return canonical_key(outcome, False) if outcome.is_success else outcome.error_kind


def _one_arm(slots):
    """One arm whose samples fill the pool (none for an empty pool)."""
    return (replace(ARM, samples=len(slots)),) if slots else ()


def _pool(outcomes):
    """A pool whose position i holds its own statement `SELECT i`, whose outcome is outcomes[i]."""
    slots = tuple(f"SELECT {i}" for i in range(len(outcomes)))
    return CandidatePool(slots, {sql: _reduced(o) for sql, o in zip(slots, outcomes)}, _one_arm(slots))


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


def test_tallies_plus_errors_equals_total():
    pool = _pool([_success([(1,)]), _error(), _success([(2,)]), _success([(2,)]), _error()])
    result = select_by_consistency(pool)
    assert result.filtered_error_count + sum(result.tallies.values()) == result.total_candidates == 5
    assert result.tallies[result.winning_key] == max(result.tallies.values())


def test_columns_compare_in_order(singer_catalog):
    """A result's key lists each row's values in column order, so a column swap never
    matches and splits the vote; the published evaluator's `result_eq` would accept it."""
    straight, swapped = "SELECT Name, Citizenship FROM singer", "SELECT Citizenship, Name FROM singer"
    assert not exec_match(swapped, straight, singer_catalog)
    slots = (straight, swapped, straight, swapped)
    outcomes = {sql: _reduced(execute(sql, singer_catalog)) for sql in slots}
    result = select_by_consistency(CandidatePool(slots, outcomes, _one_arm(slots)))
    assert sorted(result.tallies.values()) == [2, 2]
    assert (result.selected_sql, result.tie_broken) == (straight, True)


def _random_outcome(rng, n_keys):
    # distinct integer payloads map to distinct canonical keys
    return _success([(rng.randrange(n_keys),)])


def _random_outcomes(rng):
    size = rng.randint(0, 40)
    n_keys = rng.randint(1, 5)
    error_rate = rng.uniform(0.0, 0.3)
    return [
        _error(rng.choice(list(ErrorKind))) if rng.random() < error_rate else _random_outcome(rng, n_keys)
        for _ in range(size)
    ]


def _random_pool(rng):
    """Up to 40 positions over a few statements: repeats, failed completions and statements not run."""
    statements = [f"SELECT {i}" for i in range(rng.randint(1, 12))]
    n_keys = rng.randint(1, 5)
    error_rate = rng.uniform(0.0, 0.3)
    outcomes = {
        sql: _reduced(
            _error(rng.choice(list(ErrorKind))) if rng.random() < error_rate else _random_outcome(rng, n_keys)
        )
        for sql in statements
        if rng.random() >= 0.1  # else not run
    }
    slots = tuple(None if rng.random() < 0.05 else rng.choice(statements) for _ in range(rng.randint(0, 40)))
    return CandidatePool(slots, outcomes, _one_arm(slots))


def test_thousand_pools_match_bruteforce_oracle():
    rng = random.Random(20240810)
    for trial in range(1000):
        outcomes = _random_outcomes(rng)
        pool = _pool(outcomes)
        result = select_by_consistency(pool)
        entries = [
            (position, list(outcome.rows or []), not outcome.is_success)
            for position, outcome in enumerate(outcomes)
        ]
        winner_position, best_count, tie = majority_select(entries)
        if winner_position is None:
            assert result.selected_sql is None, trial
        else:
            assert result.selected_sql == pool.slots[winner_position], trial
            assert result.winning_key == canonical_key(outcomes[winner_position], False), trial
            assert result.tallies[result.winning_key] == best_count, trial
            assert result.tie_broken == tie, trial


def test_error_immunity():
    rng = random.Random(5)
    for _ in range(100):
        pool = _random_pool(rng)
        base = select_by_consistency(pool)
        for slot in ("SELECT broken", None):  # an error statement, and a failed completion
            extended = replace(
                pool, slots=(*pool.slots, slot), outcomes={**pool.outcomes, "SELECT broken": ErrorKind.SYNTAX}
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
        clone = next(sql for sql in pool.slots if pool.outcomes.get(sql) == base.winning_key)
        extended = replace(pool, slots=(*pool.slots, clone))
        assert select_by_consistency(extended).winning_key == base.winning_key


def test_group_permutation_invariance():
    """The vote follows pool positions, not the order in which statements ran (the outcomes' order)."""
    rng = random.Random(8)
    for _ in range(100):
        pool = _random_pool(rng)
        base = select_by_consistency(pool)
        shuffled = list(pool.outcomes.items())
        rng.shuffle(shuffled)
        permuted = replace(pool, outcomes=dict(shuffled))
        result = select_by_consistency(permuted)
        assert result.winning_key == base.winning_key
        assert result.selected_sql == base.selected_sql
        assert result.tie_broken == base.tie_broken


_ARMS = tuple(
    ModelArm(model, design, samples=1)
    for model in ("m", "n")
    for design in (PromptDesignId.CONCISE, PromptDesignId.VERBOSE)
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_vote_ignores_how_the_pool_is_split_across_arms(data):
    pool = _drawn_pool(data)
    # arms take consecutive blocks of the pool, in configuration order
    n = len(pool.slots)
    owners = sorted(data.draw(st.lists(st.integers(0, len(_ARMS) - 1), min_size=n, max_size=n)))
    arms = {owner: replace(_ARMS[owner], samples=owners.count(owner)) for owner in owners}
    split = replace(pool, arms=tuple(arms.values()))
    assert [(c.arm, c.sample_index) for c in split.candidates] == [
        (arms[owner], i - owners.index(owner)) for i, owner in enumerate(owners)
    ]
    assert select_by_consistency(split) == select_by_consistency(pool)


_STATEMENTS = [f"SELECT {i}" for i in range(6)]


def _drawn_pool(data):
    """Slots of six statements or failed completions; each statement has one of 4 keys, an error or no run."""
    outcomes = data.draw(st.lists(
        st.one_of(
            st.none(),
            st.integers(0, 3).map(lambda v: _success([(v,)])),
            st.sampled_from(list(ErrorKind)).map(_error),
        ),
        min_size=len(_STATEMENTS), max_size=len(_STATEMENTS),
    ))
    slots = tuple(data.draw(st.lists(st.one_of(st.none(), st.sampled_from(_STATEMENTS)), max_size=30)))
    ran = {sql: _reduced(o) for sql, o in zip(_STATEMENTS, outcomes) if o is not None}
    return CandidatePool(slots, ran, _one_arm(slots))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_vote_equals_the_oracle_over_the_per_candidate_expansion(data):
    pool = _drawn_pool(data)
    result = select_by_consistency(pool)
    # one outcome per position: a failed completion is a RUNTIME error, a statement not run has none
    expansion = [ErrorKind.RUNTIME if sql is None else pool.outcomes.get(sql) for sql in pool.slots]
    assert [c.outcome for c in pool.candidates] == expansion
    assert [c.sql for c in pool.candidates] == ["" if sql is None else sql for sql in pool.slots]
    ran = [(position, outcome) for position, outcome in enumerate(expansion) if outcome is not None]
    rows = {  # each key stands for the one-row result it was made from
        canonical_key(_success([(v,)]), False): [(v,)] for v in range(4)
    }
    winner, best, tie = majority_select(
        [(position, rows.get(outcome, []), isinstance(outcome, ErrorKind)) for position, outcome in ran]
    )
    keys = [outcome for _, outcome in ran if isinstance(outcome, OutcomeKey)]
    assert result.tallies == dict(Counter(keys))
    assert result.filtered_error_count == len(ran) - len(keys)
    assert result.total_candidates == len(pool.slots)
    if winner is None:
        assert (result.selected_sql, result.winning_key, result.tie_broken) == (None, None, False)
    else:
        assert result.selected_sql == pool.slots[winner]
        assert result.winning_key == expansion[winner]
        assert (result.tallies[result.winning_key], result.tie_broken) == (best, tie)


# --- pipeline-level pooling -------------------------------------------------------


def _scripted_gateway(prompt_to_completions, cache_dir=None):
    gateway = Gateway(cache_dir=cache_dir)
    gateway.register_backend("m", ScriptedBackend(prompt_to_completions))
    gateway.register_backend("down", ScriptedBackend({}))  # every sample fails
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


def test_comment_only_candidates_are_empty_and_do_not_vote(dev_examples, singer_catalog):
    """A refusal written as a comment runs nothing; it does not vote with an empty result."""
    example = dev_examples[1]
    arms = [ModelArm("m", PromptDesignId.CONCISE, samples=3)]
    hashes = _render_hashes(example, singer_catalog, arms)
    gateway = _scripted_gateway({hashes[PromptDesignId.CONCISE]: ["-- unsure", "-- unsure", "SELECT 1"]})
    result, pool = run_question(example, singer_catalog, arms, seed=0, gateway=gateway)
    assert [c.outcome for c in pool.candidates[:2]] == [ErrorKind.EMPTY_SQL] * 2
    assert (result.selected_sql, result.filtered_error_count) == ("SELECT 1", 2)


def test_backend_failures_become_error_candidates(dev_examples, singer_catalog):
    example = dev_examples[1]
    arms = [ModelArm("ghostless", PromptDesignId.CONCISE, samples=3)]
    gateway = Gateway()
    gateway.register_backend("ghostless", ScriptedBackend({}))
    result, pool = run_question(example, singer_catalog, arms, seed=0, gateway=gateway)
    assert len(pool.candidates) == 3
    assert all(c.outcome is ErrorKind.RUNTIME for c in pool.candidates)
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
    assert pool.candidates[0].outcome == canonical_key(execute(sql, singer_catalog), False)
    assert len(connections) == 1
    with pytest.raises(sqlite3.ProgrammingError):  # closed once the pool is built
        connections[0].execute("SELECT 1")


def _mixed_pool_gateway(example, catalog, k, cache_dir=None):
    arms = [ModelArm("m", PromptDesignId.CONCISE, samples=k)]
    hashes = _render_hashes(example, catalog, arms)
    completions = [
        "SELECT Name FROM singer",
        "SELECT Name FROM singer ORDER BY Name;",  # same key as the line above
        "SELECT count(*) FROM song",
        "SELEC oops",
        "SELECT Name FROM singer",
    ]
    return arms, _scripted_gateway({hashes[PromptDesignId.CONCISE]: completions}, cache_dir)


def test_pool_keeps_keys_or_errors_never_rows(dev_examples, singer_catalog):
    example = dev_examples[1]
    arms, gateway = _mixed_pool_gateway(example, singer_catalog, 5)
    pool = build_pool(example, singer_catalog, arms, seed=0, gateway=gateway, audit=True)
    outcomes = [c.outcome for c in pool.candidates]
    assert [type(o) for o in outcomes] == [OutcomeKey] * 3 + [ErrorKind, OutcomeKey]
    assert outcomes[3] is ErrorKind.SYNTAX
    for candidate in pool.candidates:
        if isinstance(candidate.outcome, OutcomeKey):
            assert candidate.outcome == canonical_key(execute(candidate.sql, singer_catalog), False)


def test_canonical_key_once_per_distinct_success_and_never_in_audit(
    dev_examples, singer_catalog, monkeypatch
):
    example = dev_examples[1]
    arms, gateway = _mixed_pool_gateway(example, singer_catalog, 5)
    keyed = []

    def counting_key(outcome, order_sensitive):
        keyed.append(outcome)
        return canonical_key(outcome, order_sensitive)

    monkeypatch.setattr(voting, "canonical_key", counting_key)
    result, pool = run_question(example, singer_catalog, arms, seed=0, gateway=gateway, audit=True)
    assert len(keyed) == 3  # three distinct statements succeed, one fails
    records = audit_records(pool, result)
    assert len(keyed) == 3
    assert [r["outcome_kind"] for r in records] == ["success"] * 3 + ["error", "success"]
    assert [r["selected"] for r in records] == [True, False, False, False, False]


def test_values_are_linked_only_for_designs_that_render_them(
    dev_examples, singer_catalog, monkeypatch
):
    calls = []

    def counting_link(*args):
        calls.append(args[0])
        return []

    monkeypatch.setattr(voting, "link_values", counting_link)
    example = dev_examples[1]
    baseline = ModelArm("m", PromptDesignId.BASELINE_DEFAULT, samples=1)
    concise = ModelArm("m", PromptDesignId.CONCISE, samples=1)
    gateway = _scripted_gateway({})
    build_pool(example, singer_catalog, [baseline, baseline], seed=0, gateway=gateway)
    assert calls == []
    build_pool(example, singer_catalog, [baseline, concise], seed=0, gateway=gateway)
    assert calls == [example.question]


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
    assert first is ErrorKind.TIMEOUT
    assert second == canonical_key(execute("SELECT count(*) FROM song", singer_catalog), False)
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
    result, pool = run_question(example, singer_catalog, arms, seed=0, gateway=gateway, audit=True)

    # each candidate on a connection of its own
    separately = [(sql, _reduced(execute(sql, singer_catalog))) for sql in pool.slots]
    separate = replace(pool, outcomes=dict(separately))
    assert len(set(separately)) == len(separate.outcomes)  # the candidates of one statement agree
    assert separate.outcomes == pool.outcomes
    reference = select_by_consistency(separate)
    assert result == reference
    assert audit_records(pool, result) == audit_records(separate, reference)


# --- early stop: a pool stops executing once the winner is fixed -------------------


def _synthetic_execute(sql, catalog, timeout=5.0, conn=None, released=None):
    """`SELECT k<key> ...` returns the one row (key,); any other statement is a syntax error."""
    match = re.match(r"SELECT k(\d+) ", sql)
    return _success([(int(match[1]),)]) if match else _error()


# four keys of three statements each, and two error statements
_synthetic_completion = st.one_of(
    st.builds("SELECT k{} v{}".format, st.integers(0, 3), st.integers(0, 2)),
    st.builds("SELEC e{}".format, st.integers(0, 1)),
)
_TIE = (["SELECT k1 v0", "SELECT k2 v0", "SELEC e0"], ["SELECT k2 v1", "SELECT k1 v2"])


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_synthetic_completion, min_size=1, max_size=12),
    st.lists(_synthetic_completion, min_size=1, max_size=12),
    st.sampled_from([None, 0, 1, 2]),
)
@example(*_TIE, None)
@example(*_TIE, 0)
@example(["SELEC e0", "SELEC e1"], ["SELEC e1"], 1)
@example(["SELECT k0 v0"] * 5 + ["SELECT k1 v0"], ["SELECT k0 v1", "SELEC e0", "SELECT k1 v1"], 2)
def test_early_stopped_vote_equals_the_full_vote_and_the_oracle(
    dev_examples, singer_catalog, concise, verbose, failing
):
    """Random pools: duplicates, statements sharing a key, errors, failed completions, ties, no survivor."""
    example = dev_examples[1]
    arms = [
        ModelArm("m", PromptDesignId.CONCISE, samples=len(concise)),
        ModelArm("m", PromptDesignId.VERBOSE, samples=len(verbose)),
    ]
    if failing is not None:
        arms.insert(failing, ModelArm("down", PromptDesignId.CONCISE, samples=2))
    hashes = _render_hashes(example, singer_catalog, arms)
    gateway = _scripted_gateway(
        {hashes[PromptDesignId.CONCISE]: concise, hashes[PromptDesignId.VERBOSE]: verbose}
    )
    with patch.object(voting, "execute", _synthetic_execute):
        stopped, full = (
            build_pool(example, singer_catalog, arms, seed=0, gateway=gateway, audit=audit)
            for audit in (False, True)
        )
        stopped_vote, full_vote = select_by_consistency(stopped), select_by_consistency(full)

    def vote(result):
        return result.selected_sql, result.winning_key, result.tie_broken, result.selected_sql is None

    assert vote(stopped_vote) == vote(full_vote)
    assert all(count <= full_vote.tallies[key] for key, count in stopped_vote.tallies.items())
    assert stopped_vote.filtered_error_count <= full_vote.filtered_error_count
    outcomes = [_synthetic_execute(c.sql, None) for c in full.candidates]  # a failed completion's "" fails
    winner, best, tie = majority_select(
        [(position, o.rows or [], not o.is_success) for position, o in enumerate(outcomes)]
    )
    if winner is None:
        assert full_vote.selected_sql is None
    else:
        assert full_vote.selected_sql == full.candidates[winner].sql
        assert full_vote.winning_key == full.candidates[winner].outcome
        assert (full_vote.tallies[full_vote.winning_key], full_vote.tie_broken) == (best, tie)


_ENDLESS = "WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM r) SELECT count(*) FROM r"


def _executed(example, catalog, completions, monkeypatch, timeout=0.5):
    """The statements a plain pool of `completions` executes, in order, and its vote."""
    arms = [ModelArm("m", PromptDesignId.CONCISE, samples=len(completions))]
    hashes = _render_hashes(example, catalog, arms)
    gateway = _scripted_gateway({hashes[PromptDesignId.CONCISE]: completions})
    calls = _counting_execute(monkeypatch)
    result, _ = run_question(example, catalog, arms, seed=0, gateway=gateway, timeout=timeout)
    return calls, result


def test_dominant_pool_never_executes_its_trailing_timeout(dev_examples, singer_catalog, monkeypatch):
    count, same = "SELECT count(*) FROM song", "SELECT COUNT(*) FROM song"  # two statements, one key
    completions = [count, "SELECT Name FROM singer", same, count, same, _ENDLESS]
    calls, result = _executed(dev_examples[1], singer_catalog, completions, monkeypatch)
    assert calls == [count, same]  # then 4 candidates outnumber the 2 whose statements have not run
    assert (result.selected_sql, result.tie_broken) == (count, False)


@pytest.mark.parametrize(
    "completions",
    [
        ["SELECT count(*) FROM song", "SELECT Name FROM singer", _ENDLESS],
        ["SELEC oops", "SELECT * FROM missing_table", "", _ENDLESS, "SELEC oops"],
    ],
    ids=["tie", "all-filtered"],
)
def test_tie_and_all_filtered_pools_execute_every_statement(
    dev_examples, singer_catalog, monkeypatch, completions
):
    calls, result = _executed(dev_examples[1], singer_catalog, completions, monkeypatch, timeout=0.2)
    assert sorted(calls) == sorted(set(completions))
    assert result.tie_broken or result.selected_sql is None


# --- the turn: a pool holds it, and lets it go only while SQLite runs a first step --


class _FirstFetchCursor:
    """A cursor that calls `rows()` at its first `fetchmany`, once the statement's first step ended."""

    def __init__(self, cursor, rows):
        self._cursor, self._rows = cursor, rows

    def __getattr__(self, name):
        return getattr(self._cursor, name)

    def fetchmany(self, size):
        if self._rows:
            self._rows, rows = None, self._rows
            rows()
        return self._cursor.fetchmany(size)


def _threads_fetching_or_keying(monkeypatch) -> list[int]:
    """At each entry: how many threads fetch rows (in `_fetch`, past its first step) or compute a key."""
    lock, inside, counts = threading.Lock(), [0], []

    @contextmanager
    def busy():
        with lock:
            inside[0] += 1
            counts.append(inside[0])
        try:
            yield
        finally:
            with lock:
                inside[0] -= 1

    fetch, key = execution._fetch, voting.canonical_key

    def watched_fetch(conn, *args):
        with ExitStack() as stack:
            cursor = lambda: _FirstFetchCursor(conn.cursor(), lambda: stack.enter_context(busy()))  # noqa: E731
            return fetch(SimpleNamespace(cursor=cursor), *args)

    def watched_key(*args, **kwargs):
        with busy():
            return key(*args, **kwargs)

    monkeypatch.setattr(execution, "_fetch", watched_fetch)
    monkeypatch.setattr(voting, "canonical_key", watched_key)
    return counts


def _on_threads(run, n):
    """`run(i)` for each i < n, each on a daemon thread started at once; their results, in order."""
    results = [None] * n
    threads = [threading.Thread(target=lambda i=i: results.__setitem__(i, run(i)), daemon=True) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return results


def test_workers_never_fetch_rows_or_compute_keys_at_once(tmp_path, monkeypatch):
    db_path = tmp_path / "wide.sqlite"
    with closing(sqlite3.connect(db_path)) as conn, conn:
        conn.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        conn.executemany("INSERT INTO t VALUES (?, ?)", ((i, f"value {i}") for i in range(20_000)))
    catalog = catalog_from_sqlite(db_path, "wide")
    questions = [ExampleItem(f"q{i}", f"List the values of part {i}.", None, "wide") for i in range(4)]
    # four keys of one candidate each: a tie, so every statement runs
    large = ["SELECT a, b FROM t", "SELECT b FROM t", "SELECT a FROM t", "SELECT a, b FROM t WHERE a % 7"]
    arms = [ModelArm("m", PromptDesignId.CONCISE, samples=len(large))]
    gateway = _scripted_gateway(
        {_render_hashes(question, catalog, arms)[PromptDesignId.CONCISE]: large for question in questions}
    )
    counts = _threads_fetching_or_keying(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # threads holding the interpreter lock hand it over far more often
    try:
        results = _on_threads(lambda i: run_question(questions[i], catalog, arms, seed=0, gateway=gateway)[0], 4)
    finally:
        sys.setswitchinterval(interval)
    assert [result.tie_broken for result in results] == [True] * 4
    assert len(counts) == 4 * 2 * len(large)  # each statement fetched and keyed, in every pool
    assert max(counts) == 1


def test_long_first_steps_of_two_pools_overlap(dev_examples, singer_catalog, monkeypatch):
    questions = [dev_examples[1], replace(dev_examples[1], question="How many singers are there, in all?")]
    arms = [ModelArm("m", PromptDesignId.CONCISE, samples=1)]
    gateway = _scripted_gateway(
        {_render_hashes(question, singer_catalog, arms)[PromptDesignId.CONCISE]: [_ENDLESS] for question in questions}
    )
    spans, held = [], []

    def timed_execute(*args, **kwargs):
        started = time.monotonic()
        outcome = execute(*args, **kwargs)
        spans.append((started, time.monotonic()))
        held.append(gateway._holder == threading.get_ident())  # the turn came back before any row
        return outcome

    monkeypatch.setattr(voting, "execute", timed_execute)
    pools = _on_threads(
        lambda i: run_question(questions[i], singer_catalog, arms, seed=0, gateway=gateway, timeout=1.0)[1], 2
    )
    assert [pool.outcomes for pool in pools] == [{_ENDLESS: ErrorKind.TIMEOUT}] * 2
    assert held == [True, True]
    (first_start, first_end), (second_start, second_end) = sorted(spans)
    assert first_end - first_start >= 1.0 and second_end - second_start >= 1.0
    assert second_start < first_end - 0.5  # the second statement ran while the first one did


# --- pool records: a warm pool replays, it does not execute -----------------------


def _counting_execute(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return execute(*args, **kwargs)

    monkeypatch.setattr(voting, "execute", counting)
    return calls


def _records(cache_dir):
    return sorted((cache_dir / "pools").glob("*.json"))


def _mixed_pool(example, catalog, cache_dir, timeout=5.0):
    """The mixed pool, built by a fresh gateway: four distinct statements, one of them failing; all run."""
    arms, gateway = _mixed_pool_gateway(example, catalog, 5, cache_dir)
    return build_pool(example, catalog, arms, seed=0, gateway=gateway, timeout=timeout, audit=True)


def test_rewritten_database_reexecutes_and_the_vote_follows(
    dev_examples, singer_catalog, tmp_path, monkeypatch
):
    db_path = tmp_path / "singer.sqlite"
    shutil.copyfile(singer_catalog.db_path, db_path)
    catalog = replace(singer_catalog, db_path=db_path)
    example = dev_examples[1]
    arms = [ModelArm("m", PromptDesignId.BASELINE_DEFAULT, samples=3)]  # renders no values
    hashes = _render_hashes(example, catalog, arms)
    completions = {
        hashes[PromptDesignId.BASELINE_DEFAULT]: ["SELECT 6", "SELECT 5", "SELECT count(*) FROM singer"]
    }
    calls = _counting_execute(monkeypatch)

    def vote(gateway):
        calls.clear()
        return run_question(example, catalog, arms, seed=0, gateway=gateway)[0].selected_sql

    gateway = _scripted_gateway(completions, tmp_path / "cache")
    assert (vote(gateway), len(calls)) == ("SELECT 6", 3)
    assert (vote(gateway), len(calls)) == ("SELECT 6", 0)

    shutil.copyfile(db_path, tmp_path / "six.sqlite")
    with sqlite3.connect(db_path) as conn:  # the same path, other content
        conn.execute("DELETE FROM singer WHERE rowid = (SELECT max(rowid) FROM singer)")
    conn.close()
    gateway = _scripted_gateway(completions, tmp_path / "cache")
    assert (vote(gateway), len(calls)) == ("SELECT 5", 3)

    os.replace(tmp_path / "six.sqlite", db_path)  # the first content again, under the same gateway
    assert (vote(gateway), len(calls)) == ("SELECT 6", 0)
    assert len(_records(tmp_path / "cache")) == 2


def test_another_timeout_misses(dev_examples, singer_catalog, tmp_path, monkeypatch):
    calls = _counting_execute(monkeypatch)
    pools = [
        _mixed_pool(dev_examples[1], singer_catalog, tmp_path / "cache", timeout)
        for timeout in (5.0, 5.0, 4.0, 5.0)
    ]
    assert len(calls) == 2 * 4  # four distinct statements, executed for 5.0 and for 4.0
    assert pools[1] == pools[0] == pools[3]
    assert [c.outcome for c in pools[2].candidates] == [c.outcome for c in pools[0].candidates]
    assert len(_records(tmp_path / "cache")) == 2


_MIXED_SQL = ["SELECT Name FROM singer", "SELECT count(*) FROM song", "SELEC oops", "SELECT 6"]


@pytest.mark.parametrize(
    "change",
    [
        {"seed": 1},
        {"timeout": 4.0},
        {"arm": {"temperature": 0.7}},
        {"arm": {"samples": 4}},
        {"arm": {"design": PromptDesignId.VERBOSE}},
        {"question": "How many singers are there, in all?"},
    ],
    ids=["seed", "timeout", "temperature", "samples", "design", "prompt"],
)
def test_changing_one_key_field_misses(dev_examples, singer_catalog, tmp_path, change):
    def pool(seed=0, timeout=5.0, arm=None, question=None):
        example = dev_examples[1] if question is None else replace(dev_examples[1], question=question)
        arms = [replace(ModelArm("m", PromptDesignId.CONCISE, samples=5), **(arm or {}))]
        hashes = _render_hashes(example, singer_catalog, arms)
        gateway = _scripted_gateway({h: _MIXED_SQL for h in hashes.values()}, tmp_path / "cache")
        with patch.object(Gateway, "sample", autospec=True, side_effect=Gateway.sample) as sample:
            built = build_pool(example, singer_catalog, arms, seed, gateway, timeout)
        return built, sample.call_count

    cold, cold_calls = pool()
    assert (pool(), cold_calls) == ((cold, 0), 1)  # the same inputs replay
    changed, calls = pool(**change)
    assert calls == 1 and len(_records(tmp_path / "cache")) == 2
    assert [c.sql for c in changed.candidates[:4]] == [c.sql for c in cold.candidates[:4]]


def test_grown_pool_equals_a_fresh_pool(dev_examples, singer_catalog, tmp_path):
    def votes(cache_dir, *sample_counts):
        for samples in sample_counts:
            arms, gateway = _mixed_pool_gateway(dev_examples[1], singer_catalog, samples, cache_dir)
            pool = build_pool(dev_examples[1], singer_catalog, arms, seed=0, gateway=gateway, audit=True)
        return audit_records(pool, select_by_consistency(pool)), [c.outcome for c in pool.candidates]

    assert votes(tmp_path / "grown", 3, 5) == votes(tmp_path / "fresh", 5)
    assert len(_records(tmp_path / "grown")) == 2


_recorded = st.none() | st.sampled_from(list(ErrorKind)) | st.text(max_size=4).map(OutcomeKey)  # None: not run


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.none() | st.sampled_from(["SELECT 1", "", '"x"', "[0]", "é"]) | st.text(max_size=4), max_size=12),
    st.data(),
)
def test_pool_record_round_trips(slots, data):
    """Any slots (failed, repeated) and outcomes (keys, every error kind, statements not run) decode as encoded."""
    drawn = {sql: data.draw(_recorded) for sql in dict.fromkeys(slots) if sql is not None}
    outcomes = {sql: o for sql, o in drawn.items() if o is not None}
    decoded = voting._decode_pool(voting._encode_pool(slots, outcomes), len(slots))
    assert decoded == (slots, outcomes)
    assert [type(o) for o in decoded[1].values()] == [type(o) for o in outcomes.values()]  # "syntax" == SYNTAX


def _edit(change):
    """A spoil that rewrites the outcomes and indexes of a record's decoded `[outcomes, indexes]`."""

    def edit(data):
        return json.dumps(change(*json.loads(data))).encode()

    return edit


@pytest.mark.parametrize(
    "spoil",
    [
        lambda data: data[: len(data) // 2],
        lambda data: b"not json",
        lambda data: b"\xff\xfe{}",
        _edit(lambda outcomes, indexes: [list(outcomes.items()), indexes]),
        _edit(lambda outcomes, indexes: [{}, []]),
        lambda data: data.replace(b'"syntax"', b'"bogus"'),
        lambda data: data.replace(b'["syntax"]', b'["syntax", 0.1, "a detail"]'),  # the old error shape
        lambda data: data.replace(b'["syntax"]', b"[]"),
        _edit(lambda outcomes, indexes: [{k: 7 for k in outcomes}, indexes]),
        _edit(lambda outcomes, indexes: [outcomes, [*indexes[:-1], len(outcomes)]]),
        _edit(lambda outcomes, indexes: [outcomes, [indexes[0], True, *indexes[2:]]]),
        _edit(lambda outcomes, indexes: [outcomes, indexes[:-1]]),
        _edit(lambda outcomes, indexes: [{**outcomes, "SELECT 99": "k"}, indexes]),
        lambda data: b"[" * 100000 + b"]" * 100000,
    ],
    ids=["truncated", "not-json", "not-utf8", "list", "empty", "bad-kind", "bad-elapsed",
         "short-error", "bad-value", "index-out-of-range", "true-index", "wrong-length",
         "outcome-without-position", "nested-too-deep"],
)
def test_spoiled_record_is_a_miss_and_is_rewritten(dev_examples, singer_catalog, tmp_path, monkeypatch, spoil):
    cache_dir = tmp_path / "cache"
    cold = _mixed_pool(dev_examples[1], singer_catalog, cache_dir)
    (record,) = _records(cache_dir)
    record.write_bytes(spoil(record.read_bytes()))
    calls = _counting_execute(monkeypatch)

    again = _mixed_pool(dev_examples[1], singer_catalog, cache_dir)
    assert len(calls) == 4
    assert [c.outcome for c in again.candidates] == [c.outcome for c in cold.candidates]
    assert _records(cache_dir) == [record]
    assert _mixed_pool(dev_examples[1], singer_catalog, cache_dir) == again
    assert len(calls) == 4


def test_recorded_timeout_replays(dev_examples, singer_catalog, tmp_path, monkeypatch):
    example = dev_examples[1]
    endless = "WITH RECURSIVE r(x) AS (SELECT 1 UNION ALL SELECT x+1 FROM r) SELECT count(*) FROM r"
    arms = [ModelArm("m", PromptDesignId.CONCISE, samples=2)]
    hashes = _render_hashes(example, singer_catalog, arms)
    completions = {hashes[PromptDesignId.CONCISE]: [endless, "SELECT count(*) FROM song"]}
    calls = _counting_execute(monkeypatch)
    pools, walls = [], []
    for _ in range(2):
        started = time.monotonic()
        pools.append(build_pool(
            example, singer_catalog, arms, seed=0,
            gateway=_scripted_gateway(completions, tmp_path / "cache"), timeout=0.2,
        ))
        walls.append(time.monotonic() - started)
    assert len(calls) == 2
    assert walls[0] >= 0.2  # the cold pool waited out its deadline
    cold, warm = (pool.candidates[0].outcome for pool in pools)
    assert warm is cold is ErrorKind.TIMEOUT
    assert pools[1] == pools[0]


def test_replay_encodes_nothing_and_an_audit_rewrites_a_stopped_record(
    dev_examples, singer_catalog, tmp_path, monkeypatch
):
    example, count = dev_examples[1], "SELECT count(*) FROM song"
    arms = [ModelArm("m", PromptDesignId.CONCISE, samples=4)]
    hashes = _render_hashes(example, singer_catalog, arms)
    completions = {hashes[PromptDesignId.CONCISE]: [count, count, count, "SELECT Name FROM singer"]}
    encodes, encode = [], voting._encode_pool
    monkeypatch.setattr(voting, "_encode_pool", lambda *args: encodes.append(args) or encode(*args))
    calls = _counting_execute(monkeypatch)

    def pool(audit):
        gateway = _scripted_gateway(completions, tmp_path / "cache")
        return build_pool(example, singer_catalog, arms, seed=0, gateway=gateway, audit=audit)

    def not_run():
        [record] = _records(tmp_path / "cache")
        return [sql for sql, value in json.loads(record.read_bytes())[0].items() if value is None]

    stopped = pool(audit=False)
    assert (len(calls), len(encodes), not_run()) == (1, 1, ["SELECT Name FROM singer"])
    assert pool(audit=False) == stopped
    assert (len(calls), len(encodes)) == (1, 1)  # replayed whole: no statement ran, nothing was encoded
    audited = pool(audit=True)
    assert (len(calls), len(encodes), not_run()) == (2, 2, [])  # the audit ran the rest and rewrote the record
    assert pool(audit=True) == audited
    assert (len(calls), len(encodes)) == (2, 2)


def test_no_record_without_a_cache_dir(dev_examples, singer_catalog, monkeypatch):
    calls = _counting_execute(monkeypatch)
    published = []
    monkeypatch.setattr(gateway_module, "_publish", lambda *args: published.append(args))
    pools = [_mixed_pool(dev_examples[1], singer_catalog, None) for _ in range(2)]
    assert len(calls) == 2 * 4
    assert published == []
    assert [c.outcome for c in pools[1].candidates] == [c.outcome for c in pools[0].candidates]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(_completion, min_size=1, max_size=8),
    st.lists(_completion, min_size=1, max_size=8),
    st.integers(0, 2),
)
def test_warm_pool_equals_cold_and_separate_executions(dev_examples, singer_catalog, concise, verbose, failing):
    example = dev_examples[1]
    arms = [
        ModelArm("m", PromptDesignId.CONCISE, samples=len(concise)),
        ModelArm("m", PromptDesignId.VERBOSE, samples=len(verbose)),
    ]
    arms.insert(failing, ModelArm("down", PromptDesignId.CONCISE, samples=2))
    hashes = _render_hashes(example, singer_catalog, arms)
    completions = {hashes[PromptDesignId.CONCISE]: concise, hashes[PromptDesignId.VERBOSE]: verbose}
    with tempfile.TemporaryDirectory() as cache:
        cold = build_pool(example, singer_catalog, arms, 0, _scripted_gateway(completions, Path(cache)), audit=True)
        with patch.object(voting, "execute", side_effect=AssertionError("a warm pool executed")):
            warm = build_pool(
                example, singer_catalog, arms, 0, _scripted_gateway(completions, Path(cache)), audit=True
            )
    assert warm == cold

    separately = [  # each candidate on its own connection; a failed completion is a RUNTIME error
        ErrorKind.RUNTIME if sql is None else _reduced(execute(sql, singer_catalog)) for sql in cold.slots
    ]
    assert [c.outcome for c in cold.candidates] == separately
    failed = [c.outcome for c in cold.candidates if c.arm.model_id == "down"]
    assert failed == [ErrorKind.RUNTIME] * 2
    reference_pool = replace(
        cold, outcomes={sql: outcome for sql, outcome in zip(cold.slots, separately) if sql is not None}
    )
    assert audit_records(cold, select_by_consistency(cold)) == audit_records(
        reference_pool, select_by_consistency(reference_pool)
    )


# --- database digest records: a warm pool reads no database bytes -----------------


def _rewrite_keeping_size_and_mtime(db_path, rewrite):
    before = os.stat(db_path)
    rewrite()
    os.utime(db_path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(db_path)
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (before.st_ino, before.st_size, before.st_mtime_ns)


def test_same_size_rewrite_with_restored_mtime_is_hashed_again_and_the_vote_follows(
    dev_examples, singer_catalog, tmp_path, monkeypatch, short_settle, hashed_files
):
    db_path = tmp_path / "singer.sqlite"
    shutil.copyfile(singer_catalog.db_path, db_path)
    catalog = replace(singer_catalog, db_path=db_path)
    example = dev_examples[1]
    arms = [ModelArm("m", PromptDesignId.BASELINE_DEFAULT, samples=3)]  # renders no values
    hashes = _render_hashes(example, catalog, arms)
    completions = {
        hashes[PromptDesignId.BASELINE_DEFAULT]: [
            "SELECT 'Tom Reed'", "SELECT 'Tom Reef'", "SELECT Name FROM singer WHERE Singer_ID = 4"
        ]
    }
    calls = _counting_execute(monkeypatch)

    def vote():
        """The winner, executions and hashes of one pool built by a fresh gateway."""
        calls.clear()
        hashed_files.clear()
        gateway = _scripted_gateway(completions, tmp_path / "cache")
        winner = run_question(example, catalog, arms, seed=0, gateway=gateway)[0].selected_sql
        return winner, len(calls), len(hashed_files)

    short_settle()
    assert vote() == ("SELECT 'Tom Reed'", 3, 1)
    assert vote() == ("SELECT 'Tom Reed'", 0, 0)  # both records hit

    original = db_path.read_bytes()

    def update():
        with sqlite3.connect(db_path) as conn:
            conn.execute("UPDATE singer SET Name = 'Tom Reef' WHERE Singer_ID = 4")
        conn.close()

    _rewrite_keeping_size_and_mtime(db_path, update)
    short_settle()
    assert vote() == ("SELECT 'Tom Reef'", 3, 1)
    assert vote() == ("SELECT 'Tom Reef'", 0, 0)

    _rewrite_keeping_size_and_mtime(db_path, lambda: db_path.write_bytes(original))
    short_settle()
    assert vote() == ("SELECT 'Tom Reed'", 0, 1)  # hashed again; the first pool record replays
    assert vote() == ("SELECT 'Tom Reed'", 0, 0)
    assert len(_records(tmp_path / "cache")) == 2
    assert len(list((tmp_path / "cache" / "databases").glob("*.json"))) == 1


def test_unsettled_database_is_hashed_for_every_pool_and_leaves_no_record(
    dev_examples, singer_catalog, tmp_path, monkeypatch, hashed_files
):
    db_path = tmp_path / "singer.sqlite"
    shutil.copyfile(singer_catalog.db_path, db_path)  # just written: inside the two-second window
    catalog = replace(singer_catalog, db_path=db_path)
    calls = _counting_execute(monkeypatch)
    pools = [_mixed_pool(dev_examples[1], catalog, tmp_path / "cache") for _ in range(3)]
    assert pools[0] == pools[1] == pools[2]
    assert (hashed_files, len(calls)) == ([str(db_path)] * 3, 4)  # the pool record still replays
    assert not (tmp_path / "cache" / "databases").exists()
