"""Work a repeat `predict` does on the benchmark's `tiny` spider-mix workload, counted by hand.

The workload is generated at seed 1 with `perfbench/workloads.generate`: two
databases of four questions, a `concise` 0-shot arm and a `verbose` 2-shot
arm of 32 samples each, every question linking values. A warm run replays
every pool record, so it samples and executes nothing; its per-run work is
one digest-record read per database, the demo blocks once per design with
shots, and `could_match` only for values whose core the question holds.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

from sqlvote import linking, prompts, voting
from sqlvote.catalog import load_catalogs, load_examples
from sqlvote.cli import _demo_sets, build_gateway, load_config, main
from sqlvote.gateway import Gateway, ModelArm, ScriptedBackend
from sqlvote.prompts import PromptDesignId

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402


def _quiet_main(argv: list[str]) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(argv)


def _count_calls(monkeypatch) -> dict:
    """Calls into the backend, the sampler, the executor, the block renderers and `could_match`."""
    calls = {"generate": 0, "sample": 0, "execute": 0, "could_match": [], "blocks": []}

    def counter(name, original):
        def count(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return count

    monkeypatch.setattr(ScriptedBackend, "generate", counter("generate", ScriptedBackend.generate))
    monkeypatch.setattr(Gateway, "sample", counter("sample", Gateway.sample))
    monkeypatch.setattr(voting, "execute", counter("execute", voting.execute))

    could_match = linking.could_match

    def counting_could_match(question_lower, value_lower):
        calls["could_match"].append((question_lower, value_lower))
        return could_match(question_lower, value_lower)

    monkeypatch.setattr(linking, "could_match", counting_could_match)
    for design, block in list(prompts._BLOCK_RENDERERS.items()):
        def counting_block(question, catalog, matches, design=design, block=block):
            calls["blocks"].append((design, question))
            return block(question, catalog, matches)
        monkeypatch.setitem(prompts._BLOCK_RENDERERS, design, counting_block)
    return calls


def test_warm_predict_does_its_per_run_work_once(tmp_path, short_settle, record_reads, monkeypatch):
    spec = workloads.generate("spider-mix", 1, tmp_path / "spider-mix", size="tiny")
    short_settle()  # the cold run records both databases' digests, so neither is hashed warm
    argv = ["predict", "--config", str(spec.config)]
    assert _quiet_main(argv) == 0
    predictions = spec.config.parent / "out" / "predictions.jsonl"
    cold = predictions.read_bytes()
    short_settle()  # the database files settle, so their digest records are kept

    calls = _count_calls(monkeypatch)
    record_reads.clear()
    assert _quiet_main(argv) == 0
    assert predictions.read_bytes() == cold

    assert (calls["generate"], calls["sample"], calls["execute"]) == (0, 0, 0)
    read_dirs = [path.parent.name for path in record_reads]
    assert read_dirs.count("databases") == 2  # one per database
    assert read_dirs.count("pools") == spec.questions  # one per pool

    designs = [design for design, _ in calls["blocks"]]
    assert designs.count(PromptDesignId.CONCISE) == spec.questions  # the 0-shot arm: test blocks only
    assert designs.count(PromptDesignId.VERBOSE) == spec.questions + 2  # the 2-shot arm: its demo blocks once
    assert designs.count(PromptDesignId.BASELINE_DEFAULT) == 0

    assert calls["could_match"]  # some value of the workload passes its core test
    for question, value in calls["could_match"]:
        need = linking._window(len(value))
        assert value[len(value) - need:need] in question


def test_equal_temperatures_share_one_pool(tmp_path, monkeypatch):
    """0.0, -0.0 and 0 are one temperature: one pool key, one record, one sampling and execution."""
    spec = workloads.generate("spider-mix", 1, tmp_path / "spider-mix", size="tiny")
    config = load_config(spec.config)
    catalogs = {c.db_id: c for c in load_catalogs(config.manifest, config.db_dir)}
    question = load_examples(config.dataset, list(catalogs.values()))[0]
    gateway = build_gateway(config)
    demo_sets = _demo_sets(config, catalogs)

    def pool_at(temperature):
        arms = [replace(arm, temperature=temperature) for arm in config.arms]
        return voting.build_pool(question, catalogs[question.db_id], arms, config.seed, gateway, config.timeout,
                                 demos_for=lambda arm: demo_sets[arm.shots])

    first = pool_at(0.0)
    calls = _count_calls(monkeypatch)
    for temperature in (-0.0, 0):
        assert pool_at(temperature) == first
    assert (calls["sample"], calls["execute"]) == (0, 0)
    assert len(list((config.cache_dir / "pools").glob("*.json"))) == 1
    assert repr(ModelArm("m", PromptDesignId.CONCISE, temperature=-0.0).temperature) == "0.0"
    assert type(ModelArm("m", PromptDesignId.CONCISE, temperature=1).temperature) is float
