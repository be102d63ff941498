from __future__ import annotations

import errno
import hashlib
import itertools
import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import yaml

from sqlvote import gateway as gateway_module
from sqlvote import cli, voting
from sqlvote.cli import load_config, main
from sqlvote.errors import ConfigError
from sqlvote.gateway import Gateway, ScriptedBackend

from conftest import read_golden
from pipeline_fixtures import write_run_config, write_scripted_fixture


@pytest.fixture()
def mini_run(fixture_root, tmp_path):
    scripted = tmp_path / "scripted"
    write_scripted_fixture(fixture_root, scripted)
    config_path = write_run_config(fixture_root, tmp_path, scripted)
    return fixture_root, tmp_path, config_path


def test_no_arms_configured(fixture_root, tmp_path, capsys):
    config = {
        "manifest": str(fixture_root / "tables.json"),
        "db_dir": str(fixture_root / "database"),
        "dataset": str(fixture_root / "mini_dev.json"),
        "arms": [],
    }
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(config))
    code = main(["predict", "--config", str(path)])
    assert code != 0
    assert "no arms configured" in capsys.readouterr().err


def test_arm_without_backend(fixture_root, tmp_path):
    config = {
        "manifest": str(fixture_root / "tables.json"),
        "db_dir": str(fixture_root / "database"),
        "dataset": str(fixture_root / "mini_dev.json"),
        "arms": [{"model": "mystery", "design": "concise"}],
    }
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(config))
    with pytest.raises(ConfigError):
        load_config(path)


def test_arm_weight_key_is_rejected(fixture_root, tmp_path):
    config = {
        "manifest": str(fixture_root / "tables.json"),
        "db_dir": str(fixture_root / "database"),
        "dataset": str(fixture_root / "mini_dev.json"),
        "backends": {"m": {"type": "scripted", "dir": "s"}},
        "arms": [
            {"model": "m", "design": "concise", "weight": 0.9},
            {"model": "m", "design": "verbose", "weight": 0.2},
        ],
    }
    path = tmp_path / "weights.yaml"
    path.write_text(yaml.safe_dump(config))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == (
        f"bad config value in {path}: arms[0].weight: ValueError: "
        "unknown key, not one of model, design, shots, samples, temperature"
    )
    for arm in config["arms"]:
        del arm["weight"]
    plain = tmp_path / "plain.yaml"
    plain.write_text(yaml.safe_dump(config))
    assert [arm.design.value for arm in load_config(plain).arms] == ["concise", "verbose"]


_TOP_KEYS = (
    "arms, seed, manifest, db_dir, dataset, output, timeout, fan_out, audit, demo_source, cache_dir, "
    "max_per_column, backends"
)


@pytest.mark.parametrize(
    "edit, error",
    [
        (lambda c: c.update(timout=0.01), f"timout: ValueError: unknown key, not one of {_TOP_KEYS}"),
        (
            lambda c: c["arms"][1].update(sample=4),
            "arms[1].sample: ValueError: unknown key, not one of model, design, shots, samples, temperature",
        ),
        (
            lambda c: c["backends"]["scripted-a"].update(endpoint="http://localhost:9"),
            "backends.scripted-a.endpoint: ValueError: unknown key, not one of type, dir",
        ),
        (
            lambda c: c["backends"].update(
                {"remote-x": {"type": "remote", "endpoint": "http://localhost:9", "dir": "s"}}
            ),
            "backends.remote-x.dir: ValueError: "
            "unknown key, not one of type, endpoint, auth_token_env, request_timeout",
        ),
        (lambda c: c.update(audit="false"), "audit: ValueError: must be true or false, not 'false'"),
        (lambda c: c.update(fan_out=0), "fan_out: ValueError: must be >= 1, not 0"),
        (
            lambda c: c["backends"].update({"remote-x": {"type": "grpc"}}),
            "backends.remote-x: ValueError: must be one of scripted, remote, not 'grpc'",
        ),
        (lambda c: c["arms"][0].update(shots=-3), "arms[0].shots: ValueError: must be >= 0, not -3"),
        (
            lambda c: c["arms"][1].update(temperature=float("nan")),
            "arms[1].temperature: ValueError: must be finite and >= 0, not nan",
        ),
        (
            lambda c: c["arms"][0].update(temperature=float("inf")),
            "arms[0].temperature: ValueError: must be finite and >= 0, not inf",
        ),
        (
            lambda c: c["arms"][0].update(temperature=-0.5),
            "arms[0].temperature: ValueError: must be finite and >= 0, not -0.5",
        ),
        *[
            (
                lambda c, model=model: c["arms"][0].update(model=model),
                f"arms[0].model: ValueError: must be a name other than '', '.' and '..', not {model!r}",
            )
            for model in ("..", ".", "")
        ],
    ],
    ids=[
        "unknown-top-level-key", "unknown-arm-key", "unknown-scripted-backend-key",
        "unknown-remote-backend-key", "audit-quoted-false", "fan-out-zero", "unknown-backend-type",
        "negative-shots", "nan-temperature", "infinite-temperature", "negative-temperature",
        "model-parent-dir", "model-this-dir", "model-empty",
    ],
)
def test_config_error_names_the_section_and_key(mini_run, capsys, edit, error):
    fixture_root, work, config_path = mini_run
    config = yaml.safe_load(config_path.read_text())
    edit(config)
    config_path.write_text(yaml.safe_dump(config))
    assert main(["predict", "--config", str(config_path)]) == 1
    assert capsys.readouterr().err == f"bad config value in {config_path}: {error}\n"
    assert not (work / "predictions.jsonl").exists()


def test_example_config_loads():
    root = Path(__file__).resolve().parents[1]
    config = load_config(root / "configs" / "example.yaml")
    assert [(arm.model_id, arm.design.value, arm.samples) for arm in config.arms] == [
        ("remote-llm", "concise", 32), ("remote-llm", "verbose", 32),
    ]
    assert {name: spec["type"] for name, spec in config.backends.items()} == {
        "remote-llm": "remote", "replay": "scripted",
    }
    # the README's sentence on arm keys names exactly the keys an arm reads
    sentence = re.search(r"An arm reads (.*?);", (root / "README.md").read_text(encoding="utf-8"), re.S)
    assert set(re.findall(r"`(\w+)`", sentence.group(1))) == set(cli._ARM)


@pytest.mark.parametrize(
    "key, value",
    [
        ("arms", ["concise"]), ("seed", "abc"), ("backends", ["scripted-a"]),
        ("timeout", float("nan")), ("timeout", 0), ("timeout", -1), ("timeout", float("inf")),
        ("max_per_column", -1),
    ],
    ids=[
        "arm-not-a-mapping", "seed-not-a-number", "backends-not-a-mapping",
        "timeout-nan", "timeout-zero", "timeout-negative", "timeout-infinite",
        "max-per-column-negative",
    ],
)
def test_malformed_config_value_is_a_config_error(mini_run, capsys, key, value):
    fixture_root, work, config_path = mini_run
    config = yaml.safe_load(config_path.read_text())
    config[key] = value
    config_path.write_text(yaml.safe_dump(config))
    assert main(["predict", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("bad config value in ") and err.count("\n") == 1


def test_config_not_utf8_is_a_config_error(tmp_path, capsys):
    config_path = tmp_path / "config.yaml"
    config_path.write_bytes(b"\xff\xfe[")
    assert main(["predict", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read config {config_path}: ") and err.count("\n") == 1


def test_predict_writes_five_records(mini_run, capsys):
    fixture_root, work, config_path = mini_run
    assert main(["predict", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "predicted 5 questions" in out
    lines = (work / "predictions.jsonl").read_text().strip().splitlines()
    assert len(lines) == 5
    records = [json.loads(line) for line in lines]
    assert [r["example_id"] for r in records] == [f"{i:06d}" for i in range(5)]
    assert all(r["sql"].strip() for r in records)


def test_predict_deterministic_cold_then_warm(mini_run):
    fixture_root, work, config_path = mini_run
    assert main(["predict", "--config", str(config_path)]) == 0
    cold = (work / "predictions.jsonl").read_bytes()
    assert main(["predict", "--config", str(config_path)]) == 0
    warm = (work / "predictions.jsonl").read_bytes()
    assert cold == warm


def test_warm_predict_executes_nothing(mini_run, monkeypatch):
    fixture_root, work, config_path = mini_run
    calls = []
    execute, connect = voting.execute, voting.connect_readonly
    monkeypatch.setattr(voting, "execute", lambda *a, **k: calls.append(a[0]) or execute(*a, **k))
    monkeypatch.setattr(voting, "connect_readonly", lambda *a: calls.append("connect") or connect(*a))
    runs = []
    for _ in range(2):
        calls.clear()
        assert main(["predict", "--config", str(config_path), "--audit"]) == 0
        outputs = [(work / name).read_bytes() for name in ("predictions.jsonl", "predictions.jsonl.audit.jsonl")]
        runs.append((outputs, len(calls)))
    (cold, cold_calls), (warm, warm_calls) = runs
    assert cold_calls > 5 and warm_calls == 0
    assert warm == cold


def _counting_statements(monkeypatch):
    """Every statement `voting.execute` runs, and "connect" for every pool connection opened."""
    calls = []
    execute, connect = voting.execute, voting.connect_readonly
    monkeypatch.setattr(voting, "execute", lambda *a, **k: calls.append(a[0]) or execute(*a, **k))
    monkeypatch.setattr(voting, "connect_readonly", lambda *a: calls.append("connect") or connect(*a))
    return calls


def _predict(config_path, capsys, *flags):
    """Predictions, audit file (with `--audit`) and captured output of one `predict` run."""
    assert main(["predict", "--config", str(config_path), *flags]) == 0
    work = config_path.parent
    names = ["predictions.jsonl", *(["predictions.jsonl.audit.jsonl"] if flags else [])]
    return [(work / name).read_bytes() for name in names], capsys.readouterr()


def _skipped_statements(cache_dir):
    """The statements that the pool records hold as not run (a null value)."""
    records = [json.loads(path.read_bytes())[0] for path in (cache_dir / "pools").glob("*.json")]
    return sorted(sql for recorded in records for sql, value in recorded.items() if value is None)


def test_plain_warm_predict_after_a_plain_cold_one_executes_nothing(mini_run, monkeypatch, capsys):
    fixture_root, work, config_path = mini_run
    calls = _counting_statements(monkeypatch)
    cold = _predict(config_path, capsys)
    assert len(calls) > 5 and _skipped_statements(work / "cache")  # some pools stopped early
    calls.clear()
    assert _predict(config_path, capsys) == cold
    assert calls == []


def test_negative_zero_temperature_replays_a_zero_temperature_run(mini_run, monkeypatch, capsys):
    fixture_root, work, config_path = mini_run
    config = yaml.safe_load(config_path.read_text())

    def predict_at(temperature):
        for arm in config["arms"]:
            arm["temperature"] = temperature
        config_path.write_text(yaml.safe_dump(config))
        return _predict(config_path, capsys)

    cold = predict_at(0.0)
    calls = _counting_statements(monkeypatch)
    generate = ScriptedBackend.generate
    monkeypatch.setattr(ScriptedBackend, "generate", lambda *a: calls.append("generate") or generate(*a))
    assert predict_at(-0.0) == cold
    assert "temperature: -0.0" in config_path.read_text()
    assert calls == []


def test_audit_over_a_plain_cache_runs_only_what_the_records_lack(mini_run, tmp_path_factory, monkeypatch, capsys):
    fixture_root, work, config_path = mini_run
    fresh = tmp_path_factory.mktemp("fresh")
    expected = _predict(write_run_config(fixture_root, fresh, work / "scripted"), capsys, "--audit")
    _predict(config_path, capsys)
    skipped = _skipped_statements(work / "cache")
    calls = _counting_statements(monkeypatch)
    assert _predict(config_path, capsys, "--audit") == expected
    assert sorted(sql for sql in calls if sql != "connect") == skipped and skipped
    assert _skipped_statements(work / "cache") == []  # the merged records were rewritten


def test_plain_predict_after_an_audit_replays_without_executing(mini_run, monkeypatch, capsys):
    fixture_root, work, config_path = mini_run
    (predictions, _), output = _predict(config_path, capsys, "--audit")
    calls = _counting_statements(monkeypatch)
    assert _predict(config_path, capsys) == ([predictions], output)
    assert calls == []


def test_warm_predict_samples_and_extracts_nothing(mini_run, monkeypatch, capsys):
    fixture_root, work, config_path = mini_run
    names = ("predictions.jsonl", "predictions.jsonl.audit.jsonl")
    assert main(["predict", "--config", str(config_path), "--audit"]) == 0
    cold = [(work / name).read_bytes() for name in names], capsys.readouterr()

    def refuse(*args, **kwargs):
        raise AssertionError("a warm predict read its completions")

    monkeypatch.setattr(Gateway, "sample", refuse)
    monkeypatch.setattr(gateway_module, "_read_entry", refuse)
    monkeypatch.setattr(voting, "extract_sql", refuse)
    assert main(["predict", "--config", str(config_path), "--audit"]) == 0
    assert ([(work / name).read_bytes() for name in names], capsys.readouterr()) == cold


def test_warm_predict_reads_no_database_bytes(mini_run, short_settle, hashed_files):
    fixture_root, work, config_path = mini_run
    short_settle()  # the fixture's database files are settled
    runs = []
    for _ in range(2):
        hashed_files.clear()
        assert main(["predict", "--config", str(config_path), "--audit"]) == 0
        outputs = [(work / name).read_bytes() for name in ("predictions.jsonl", "predictions.jsonl.audit.jsonl")]
        runs.append((outputs, len(hashed_files)))
    (cold, cold_hashed), (warm, warm_hashed) = runs
    assert cold_hashed >= 1 and warm_hashed == 0
    assert warm == cold
    assert len(list((work / "cache" / "databases").glob("*.json"))) == 1  # every question is on one file


@pytest.mark.parametrize("audit", [False, True], ids=["plain", "audit"])
def test_predict_fails_only_the_completion_that_does_not_encode(mini_run, capsys, audit):
    fixture_root, work, config_path = mini_run
    flags = ["--audit"] if audit else []
    assert main(["predict", "--config", str(config_path), *flags]) == 0
    expected = (work / "predictions.jsonl").read_bytes()
    record_path = work / "scripted" / "q0_concise.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    assert record["completions"][2] == "SELEC broken"  # an error candidate either way
    record["completions"][2] = "SELECT '\ud800'"  # a lone surrogate, as a JSON body may carry one
    record_path.write_text(json.dumps(record), encoding="utf-8")
    shutil.rmtree(work / "cache")
    capsys.readouterr()

    assert main(["predict", "--config", str(config_path), *flags]) == 0
    assert (work / "predictions.jsonl").read_bytes() == expected
    assert "0 failures" in capsys.readouterr().out
    if audit:
        audit_lines = (work / "predictions.jsonl.audit.jsonl").read_text(encoding="utf-8").splitlines()
        failed = json.loads(audit_lines[2])
        assert (failed["example_id"], failed["pool_position"]) == ("000000", 2)
        assert (failed["sql"], failed["error_kind"]) == ("", "runtime")


def test_entry_that_is_not_utf8_is_sampled_again_and_replaced(mini_run):
    fixture_root, work, config_path = mini_run
    assert main(["predict", "--config", str(config_path)]) == 0
    expected = (work / "predictions.jsonl").read_bytes()
    entry = sorted((work / "cache").rglob("*.txt"))[0]
    text = entry.read_bytes()
    entry.write_bytes(b"\xff\xfe SELECT")
    shutil.rmtree(work / "cache" / "pools")  # else the pools replay without reading their entries

    assert main(["predict", "--config", str(config_path)]) == 0
    assert (work / "predictions.jsonl").read_bytes() == expected
    assert entry.read_bytes() == text


def _repeating_run(fixture_root, work):
    """A run whose scripted records hold 2 texts for 3 samples, so each call's sample 2 repeats sample 0."""
    scripted = work / "scripted"
    write_scripted_fixture(fixture_root, scripted)
    for path in scripted.glob("*.json"):
        record = json.loads(path.read_text(encoding="utf-8"))
        record["completions"] = record["completions"][:2]
        path.write_text(json.dumps(record), encoding="utf-8")
    return write_run_config(fixture_root, work, scripted)


def _entries(cache_dir):
    return {path.relative_to(cache_dir): path.read_bytes() for path in cache_dir.rglob("*.txt")}


def _call_of(entry: Path) -> tuple[Path, str]:
    """The sampling call of an entry `<model>/<prompt hash>_<temperature>_<seed>_<index>.txt`."""
    return entry.parent, entry.name.rsplit("_", 1)[0]


def test_cold_predict_links_the_repeated_texts_of_a_call(fixture_root, tmp_path):
    assert main(["predict", "--config", str(_repeating_run(fixture_root, tmp_path))]) == 0
    calls: dict[tuple[Path, str], list[Path]] = {}
    for path in (tmp_path / "cache").rglob("*.txt"):
        calls.setdefault(_call_of(path), []).append(path)
    assert len(calls) == 10  # 5 questions x 2 arms
    for entries in calls.values():
        assert len(entries) == 3
        assert len({p.stat().st_ino for p in entries}) == len({p.read_bytes() for p in entries}) == 2


def test_cold_predict_stores_each_distinct_text_of_the_cache_once(fixture_root, tmp_path):
    assert main(["predict", "--config", str(_repeating_run(fixture_root, tmp_path))]) == 0
    entries = list((tmp_path / "cache").rglob("*.txt"))
    distinct = {p.read_bytes() for p in entries}
    assert len(distinct) < 2 * len({_call_of(p) for p in entries})  # some texts repeat across calls
    assert len({p.stat().st_ino for p in entries}) == len(distinct)


def test_cold_predict_makes_no_directory_per_call(fixture_root, tmp_path, short_settle):
    short_settle()  # the fixture's database files are settled, so their digest records are written
    assert main(["predict", "--config", str(_repeating_run(fixture_root, tmp_path))]) == 0
    cache = tmp_path / "cache"
    directories = {path.relative_to(cache).as_posix() for path in cache.rglob("*") if path.is_dir()}
    assert directories == {"scripted-a", "texts", "pools", "databases"}
    assert len(list((cache / "scripted-a").glob("*.txt"))) == 30  # 10 calls x 3 samples
    assert list(cache.rglob("*.tmp")) == []


def test_predict_without_hard_links_writes_the_same_entries(fixture_root, tmp_path, monkeypatch):
    linked, copied = tmp_path / "linked", tmp_path / "copied"
    for work in (linked, copied):
        work.mkdir()
    assert main(["predict", "--config", str(_repeating_run(fixture_root, linked))]) == 0

    def no_links(*args, **kwargs):
        raise OSError(errno.EPERM, "Operation not permitted")

    monkeypatch.setattr(gateway_module.os, "link", no_links)
    assert main(["predict", "--config", str(_repeating_run(fixture_root, copied))]) == 0
    assert (copied / "predictions.jsonl").read_bytes() == (linked / "predictions.jsonl").read_bytes()
    assert _entries(copied / "cache") == _entries(linked / "cache")
    entries = list((copied / "cache").rglob("*.txt"))
    assert len({p.stat().st_ino for p in entries}) == len(entries) == 30  # a file each
    assert list(copied.rglob("*.tmp")) == []


@pytest.mark.parametrize(
    "content", ["not json", '{"completions": ["SELECT 1"]}'], ids=["not-json", "no-prompt-hash"]
)
def test_malformed_scripted_record_is_a_config_error(mini_run, capsys, content):
    fixture_root, work, config_path = mini_run
    record = work / "scripted" / "q9_bad.json"
    record.write_text(content, encoding="utf-8")
    assert main(["predict", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert str(record) in err and err.count("\n") == 1


def test_scripted_completion_that_is_not_a_string_is_a_config_error(mini_run, capsys):
    fixture_root, work, config_path = mini_run
    record_path = work / "scripted" / "q0_concise.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    record["completions"][0] = 1
    record_path.write_text(json.dumps(record), encoding="utf-8")
    assert main(["predict", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bad scripted record {record_path}: ") and err.count("\n") == 1


def test_unwritable_output_closes_the_audit_file(fixture_root, tmp_path, capsys):
    scripted = tmp_path / "scripted"
    write_scripted_fixture(fixture_root, scripted)
    config_path = write_run_config(fixture_root, tmp_path, scripted, output_name="out", audit=True)
    (tmp_path / "out").mkdir()  # the predictions file cannot be opened; the audit file can
    assert main(["predict", "--config", str(config_path)]) == 1  # a ResourceWarning would be an error
    assert "out" in capsys.readouterr().err


def test_predict_audit_records(mini_run):
    fixture_root, work, config_path = mini_run
    assert main(["predict", "--config", str(config_path), "--audit"]) == 0
    audit_lines = (work / "predictions.jsonl.audit.jsonl").read_text().strip().splitlines()
    assert len(audit_lines) == 5 * 6  # 5 questions x (2 arms x 3 samples)
    record = json.loads(audit_lines[0])
    for field in ("pool_position", "sql", "arm", "outcome_kind", "outcome_key", "selected"):
        assert field in record
    selected = [json.loads(line) for line in audit_lines if json.loads(line)["selected"]]
    assert len(selected) == 5


def test_evaluate_prints_ex(mini_run, capsys):
    fixture_root, work, config_path = mini_run
    main(["predict", "--config", str(config_path)])
    capsys.readouterr()
    code = main([
        "evaluate",
        "--pred", str(work / "predictions.jsonl"),
        "--dataset", str(fixture_root / "mini_dev.json"),
        "--db-dir", str(fixture_root / "database"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "EX: 1.0000" in out
    report_lines = (work / "predictions.jsonl.report.jsonl").read_text().strip().splitlines()
    assert len(report_lines) == 5


def test_evaluate_seven_of_ten(fixture_root, tmp_path, capsys):
    examples = json.loads((fixture_root / "mini_dev.json").read_text())
    records = (examples * 2)[:10]
    dataset = tmp_path / "ten.json"
    dataset.write_text(json.dumps(records))
    pred_path = tmp_path / "pred.jsonl"
    with open(pred_path, "w") as handle:
        for i, record in enumerate(records):
            sql = record["query"] if i < 7 else "SELECT NULL"
            handle.write(json.dumps({"example_id": f"{i:06d}", "sql": sql}) + "\n")
    code = main([
        "evaluate", "--pred", str(pred_path), "--dataset", str(dataset),
        "--db-dir", str(fixture_root / "database"),
    ])
    assert code == 0
    assert "EX: 0.7000" in capsys.readouterr().out


def test_evaluate_ts_line_and_bound(mini_run, capsys, tmp_path):
    fixture_root, work, config_path = mini_run
    main(["predict", "--config", str(config_path)])
    capsys.readouterr()
    code = main([
        "evaluate",
        "--pred", str(work / "predictions.jsonl"),
        "--dataset", str(fixture_root / "mini_dev.json"),
        "--db-dir", str(fixture_root / "database"),
        "--ts", "--suites", "3", "--rows", "20", "--seed", "4",
        "--suite-dir", str(tmp_path / "suites"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "EX: " in out and "TS (simplified): " in out
    ex = float(out.split("EX: ")[1].split()[0])
    ts = float(out.split("TS (simplified): ")[1].split()[0])
    assert ts <= ex


def test_evaluate_missing_db_file(fixture_root, tmp_path, capsys):
    dataset = tmp_path / "ghost.json"
    dataset.write_text(json.dumps([{"question": "q?", "query": "SELECT 1", "db_id": "ghost"}]))
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text(json.dumps({"example_id": "000000", "sql": "SELECT 1"}) + "\n")
    code = main([
        "evaluate", "--pred", str(pred_path), "--dataset", str(dataset),
        "--db-dir", str(fixture_root / "database"),
    ])
    assert code == 1
    assert str(fixture_root / "database" / "ghost" / "ghost.sqlite") in capsys.readouterr().err


def test_evaluate_checks_predictions_before_generating_suites(fixture_root, tmp_path, capsys):
    dataset = tmp_path / "two.json"
    dataset.write_text(json.dumps([
        {"question": "q0", "query": "SELECT 1", "db_id": "singer"},
        {"question": "q1", "query": "SELECT 1", "db_id": "car_1"},
    ]))
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text(json.dumps({"example_id": "000000", "sql": "SELECT 1"}) + "\n")
    suite_dir = tmp_path / "suites"
    code = main([
        "evaluate", "--pred", str(pred_path), "--dataset", str(dataset),
        "--db-dir", str(fixture_root / "database"), "--ts", "--suites", "2",
        "--suite-dir", str(suite_dir),
    ])
    assert code == 1
    assert "no prediction for example 000001" in capsys.readouterr().err
    assert not (suite_dir.exists() and any(suite_dir.iterdir()))


def test_evaluate_unreadable_db_file(tmp_path, capsys):
    junk = tmp_path / "database" / "junk" / "junk.sqlite"
    junk.parent.mkdir(parents=True)
    junk.write_text("not a database")
    dataset = tmp_path / "junk.json"
    dataset.write_text(json.dumps([{"question": "q?", "query": "SELECT 1", "db_id": "junk"}]))
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text(json.dumps({"example_id": "000000", "sql": "SELECT 1"}) + "\n")
    code = main([
        "evaluate", "--pred", str(pred_path), "--dataset", str(dataset),
        "--db-dir", str(tmp_path / "database"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read database at {junk}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        '{"example_id": "000000"}',
        '{"example_id": "000000", "sql": 5}',
        "[" * 100000 + "]" * 100000,
    ],
    ids=["not-json", "no-sql", "sql-not-a-string", "nested-too-deep"],
)
def test_evaluate_malformed_prediction_line(fixture_root, tmp_path, capsys, line):
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text(json.dumps({"example_id": "000001", "sql": "SELECT 1"}) + "\n" + line + "\n")
    code = main([
        "evaluate", "--pred", str(pred_path),
        "--dataset", str(fixture_root / "mini_dev.json"),
        "--db-dir", str(fixture_root / "database"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{pred_path}:2: ") and err.count("\n") == 1


# (file, path to the field in the singer manifest entry or the first record, wrongly typed value)
_WRONG_TYPES = {
    "table-index-a-string": ("manifest", ["column_names_original", 1, 0], "0"),
    "column-not-a-pair": ("manifest", ["column_names_original", 1], [0]),
    "key-index-a-string": ("manifest", ["primary_keys", 0], "1"),
    "key-index-nested": ("manifest", ["primary_keys", 0], [[1]]),
    "column-type-not-a-string": ("manifest", ["column_types", 1], 5),
    "question-a-number": ("dataset", ["question"], 5),
    "db-id-a-list": ("dataset", ["db_id"], ["singer"]),
    "query-a-number": ("evaluate", ["query"], 5),
    "query-a-list": ("evaluate", ["query"], ["SELECT 1"]),
}


@pytest.mark.parametrize("name", list(_WRONG_TYPES))
def test_wrongly_typed_manifest_or_dataset_field_is_one_line(mini_run, capsys, name):
    fixture_root, work, config_path = mini_run
    target, path, value = _WRONG_TYPES[name]
    source = fixture_root / ("tables.json" if target == "manifest" else "mini_dev.json")
    data = json.loads(source.read_text(encoding="utf-8"))
    field = data[1] if target == "manifest" else data[0]
    for key in path[:-1]:
        field = field[key]
    field[path[-1]] = value
    edited = work / source.name
    edited.write_text(json.dumps(data), encoding="utf-8")
    if target == "evaluate":
        pred_path = work / "pred.jsonl"
        pred_path.write_text("".join(
            json.dumps({"example_id": f"{i:06d}", "sql": "SELECT 1"}) + "\n" for i in range(len(data))
        ))
        argv = ["evaluate", "--pred", str(pred_path), "--dataset", str(edited),
                "--db-dir", str(fixture_root / "database")]
    else:
        config = yaml.safe_load(config_path.read_text())
        config[target] = str(edited)
        config_path.write_text(yaml.safe_dump(config))
        argv = ["predict", "--config", str(config_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    prefix = "malformed schema manifest: " if target == "manifest" else "malformed dataset: "
    assert err.startswith(prefix) and err.count("\n") == 1


def test_evaluate_prediction_file_not_utf8(fixture_root, tmp_path, capsys):
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_bytes(b"\xff\xfe[")
    code = main([
        "evaluate", "--pred", str(pred_path),
        "--dataset", str(fixture_root / "mini_dev.json"),
        "--db-dir", str(fixture_root / "database"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{pred_path}: not UTF-8 text: ") and err.count("\n") == 1


def test_predict_unreadable_db_fails_each_question(fixture_root, tmp_path, capsys):
    db_dir = tmp_path / "database"
    shutil.copytree(fixture_root / "database", db_dir)
    junk = db_dir / "singer" / "singer.sqlite"
    junk.write_text("not a database")
    scripted = tmp_path / "scripted"
    scripted.mkdir()
    config_path = write_run_config(fixture_root, tmp_path, scripted)
    config = yaml.safe_load(config_path.read_text())
    config["db_dir"] = str(db_dir)
    # a baseline-only arm renders no values, so value linking never reads the file
    config["arms"] = [{"model": "scripted-a", "design": "baseline_default", "samples": 2}]
    config_path.write_text(yaml.safe_dump(config))
    assert main(["predict", "--config", str(config_path)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "predicted 5 questions: 0 tie-breaks, 0 all-filtered, 5 failures\n"
    failed = [line for line in captured.err.splitlines() if "FAILED" in line]
    assert failed == [
        f"{i:06d}: FAILED (cannot read database at {junk}: file is not a database)" for i in range(5)
    ]
    records = [json.loads(line) for line in (tmp_path / "predictions.jsonl").read_text().splitlines()]
    assert [r["sql"] for r in records] == ["SELECT NULL"] * 5


def test_evaluate_report_records_give_a_reason(fixture_root, tmp_path):
    records = [
        {"question": "q0", "query": "SELECT Name FROM singer", "db_id": "singer"},
        {"question": "q1", "query": "SELECT Name FROM singer", "db_id": "singer"},
        {"question": "q2", "query": "SELECT nope FROM nothing", "db_id": "singer"},
    ]
    dataset = tmp_path / "three.json"
    dataset.write_text(json.dumps(records))
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text("".join(
        json.dumps({"example_id": f"{i:06d}", "sql": sql}) + "\n"
        for i, sql in enumerate(["SELECT Name FROM singer", "SELEC Name", "SELECT 1"])
    ))
    report = tmp_path / "report.jsonl"
    code = main([
        "evaluate", "--pred", str(pred_path), "--dataset", str(dataset),
        "--db-dir", str(fixture_root / "database"), "--report", str(report),
    ])
    assert code == 0
    scores = [json.loads(line) for line in report.read_text().splitlines()]
    assert [list(score) for score in scores] == [["example_id", "ex", "ts", "gold_error", "reason"]] * 3
    assert [score["reason"] for score in scores] == [None, "pred_error:syntax", "gold_error"]


@pytest.mark.parametrize(
    "spec, key, kind",
    [
        (
            {"type": "remote", "endpoint": "http://localhost:9", "request_timeout": "abc"},
            "request_timeout", "ValueError",
        ),
        ({"type": "remote"}, "endpoint", "KeyError"),
        ({"type": "remote", "endpoint": "file:///etc/hostname"}, "endpoint", "ValueError"),
        ({"type": "remote", "endpoint": "localhost:8000/complete"}, "endpoint", "ValueError"),
        *(
            (
                {"type": "remote", "endpoint": "http://localhost:9", "request_timeout": t},
                "request_timeout", "ValueError",
            )
            for t in (float("nan"), 0, -1, float("inf"))
        ),
    ],
    ids=[
        "timeout-not-a-number", "no-endpoint", "file-endpoint", "endpoint-without-scheme",
        "timeout-nan", "timeout-zero", "timeout-negative", "timeout-infinite",
    ],
)
def test_bad_remote_backend_value_is_a_config_error(mini_run, capsys, spec, key, kind):
    fixture_root, work, config_path = mini_run
    config = yaml.safe_load(config_path.read_text())
    config["backends"]["remote-x"] = spec
    config_path.write_text(yaml.safe_dump(config))
    assert main(["predict", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bad config value in {config_path}: backends.remote-x.{key}: {kind}: ")
    assert err.count("\n") == 1


def test_import_loads_no_http_client_library():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import sqlvote.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] in ('requests', 'urllib3')))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


@pytest.mark.parametrize("ts", [False, True], ids=["ex", "ts"])
def test_evaluate_scores_a_prediction_that_does_not_encode_as_a_pred_error(fixture_root, tmp_path, ts):
    records = [
        {"question": "q0", "query": "SELECT Name FROM singer", "db_id": "singer"},
        {"question": "q1", "query": "SELECT Name FROM singer", "db_id": "singer"},
    ]
    dataset = tmp_path / "two.json"
    dataset.write_text(json.dumps(records))
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text("".join(
        json.dumps({"example_id": f"{i:06d}", "sql": sql}) + "\n"
        for i, sql in enumerate(["SELECT '\ud800' FROM singer", "SELECT name FROM singer"])
    ))
    report = tmp_path / "report.jsonl"
    code = main([
        "evaluate", "--pred", str(pred_path), "--dataset", str(dataset),
        "--db-dir", str(fixture_root / "database"), "--report", str(report),
        "--suite-dir", str(tmp_path / "suites"), *(["--ts", "--suites", "2"] if ts else []),
    ])
    assert code == 0
    scores = [json.loads(line) for line in report.read_text().splitlines()]
    assert [(score["ex"], score["reason"]) for score in scores] == [(False, "pred_error:runtime"), (True, None)]


@pytest.mark.parametrize("flag", ["--suites", "--rows"])
def test_evaluate_ts_rejects_zero(fixture_root, tmp_path, capsys, flag):
    pred_path = tmp_path / "pred.jsonl"
    pred_path.write_text("")
    code = main([
        "evaluate", "--pred", str(pred_path),
        "--dataset", str(fixture_root / "mini_dev.json"),
        "--db-dir", str(fixture_root / "database"),
        "--ts", flag, "0", "--suite-dir", str(tmp_path / "suites"),
    ])
    assert code == 1
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("design", ["concise", "verbose", "baseline_default"])
def test_show_prompt_matches_golden(fixture_root, tmp_path, capsys, design):
    config_path = write_run_config(fixture_root, tmp_path, tmp_path / "scripted", dataset_name="dev.json")
    code = main([
        "show-prompt", "--config", str(config_path),
        "--example", "000000", "--design", design, "--shots", "0",
    ])
    assert code == 0
    assert capsys.readouterr().out == read_golden(design)


def test_show_prompt_unknown_design(fixture_root, tmp_path, capsys):
    config_path = write_run_config(fixture_root, tmp_path, tmp_path / "scripted", dataset_name="dev.json")
    code = main([
        "show-prompt", "--config", str(config_path),
        "--example", "000000", "--design", "mystery", "--shots", "0",
    ])
    assert code != 0
    assert "unknown prompt design" in capsys.readouterr().err


def test_show_prompt_unknown_example(fixture_root, tmp_path, capsys):
    config_path = write_run_config(fixture_root, tmp_path, tmp_path / "scripted", dataset_name="dev.json")
    code = main([
        "show-prompt", "--config", str(config_path),
        "--example", "999999", "--design", "concise", "--shots", "0",
    ])
    assert code != 0


def test_show_prompt_four_shot_contains_zero_shot(fixture_root, tmp_path, capsys):
    scripted = tmp_path / "scripted"
    config = yaml.safe_load(
        write_run_config(fixture_root, tmp_path, scripted, dataset_name="dev.json").read_text()
    )
    config["demo_source"] = str(fixture_root / "mini_dev.json")
    config_path = tmp_path / "config4.yaml"
    config_path.write_text(yaml.safe_dump(config))
    main(["show-prompt", "--config", str(config_path), "--example", "000000",
          "--design", "concise", "--shots", "0"])
    zero = capsys.readouterr().out
    code = main(["show-prompt", "--config", str(config_path), "--example", "000000",
                 "--design", "concise", "--shots", "4"])
    assert code == 0
    four = capsys.readouterr().out
    assert zero in four and four != zero


@pytest.mark.parametrize("design", ["concise", "verbose", "baseline_default"])
def test_show_prompt_two_shot_matches_golden(fixture_root, tmp_path, capsys, design):
    config = yaml.safe_load(
        write_run_config(fixture_root, tmp_path, tmp_path / "scripted", dataset_name="dev.json").read_text()
    )
    config["demo_source"] = str(fixture_root / "mini_dev.json")
    config_path = tmp_path / "config2.yaml"
    config_path.write_text(yaml.safe_dump(config))
    code = main([
        "show-prompt", "--config", str(config_path),
        "--example", "000000", "--design", design, "--shots", "2",
    ])
    assert code == 0
    assert capsys.readouterr().out == read_golden(design, "car_1__000000__2shot.txt")


def test_show_prompt_refuses_negative_shots(fixture_root, tmp_path, capsys):
    config_path = write_run_config(fixture_root, tmp_path, tmp_path / "scripted", dataset_name="dev.json")
    code = main([
        "show-prompt", "--config", str(config_path),
        "--example", "000000", "--design", "concise", "--shots", "-3",
    ])
    assert code == 1
    assert capsys.readouterr() == ("", "--shots must be >= 0, not -3\n")


def test_cache_cli(mini_run, capsys):
    fixture_root, work, config_path = mini_run
    cache_dir = work / "cache"
    main(["predict", "--config", str(config_path)])
    capsys.readouterr()
    assert main(["cache", "stats", "--dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    # 5 questions x 2 arms x 3 samples, one file each
    assert "entries: 30" in out
    assert main(["cache", "clear", "--dir", str(cache_dir)]) == 0
    capsys.readouterr()
    main(["cache", "stats", "--dir", str(cache_dir)])
    assert "entries: 0" in capsys.readouterr().out
    assert list(cache_dir.iterdir()) == []  # pool records went too


def test_cache_clear_removes_pool_records_and_texts(mini_run, short_settle, capsys):
    fixture_root, work, config_path = mini_run
    cache_dir = work / "cache"
    short_settle()
    assert main(["predict", "--config", str(config_path)]) == 0
    assert len(list((cache_dir / "pools").glob("*.json"))) == 5
    assert len(list((cache_dir / "texts").iterdir())) == len(set(_entries(cache_dir).values()))
    assert len(list((cache_dir / "databases").glob("*.json"))) >= 1
    assert main(["cache", "clear", "--dir", str(cache_dir)]) == 0
    assert capsys.readouterr().out.endswith("cleared 30 entries\n")
    assert list(cache_dir.iterdir()) == []


# --- fan_out: workers take turns on Python and overlap only blocking calls ---------


def _set_fan_out(config_path: Path, fan_out: int) -> None:
    config = yaml.safe_load(config_path.read_text())
    config["fan_out"] = fan_out
    config_path.write_text(yaml.safe_dump(config))


def _meet_first_two(monkeypatch, owner, attr: str) -> None:
    """The first two calls of `owner.attr` wait for each other: they must overlap, or both fail."""
    barrier = threading.Barrier(2, timeout=10)
    calls = itertools.count()
    original = getattr(owner, attr)

    def meeting(*args, **kwargs):
        if next(calls) < 2:
            barrier.wait()
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, meeting)


@pytest.mark.parametrize(
    "owner, attr", [(ScriptedBackend, "generate"), (voting, "execute")], ids=["generate", "execute"]
)
def test_workers_overlap_backend_calls_and_statements(mini_run, monkeypatch, owner, attr):
    fixture_root, work, config_path = mini_run
    _set_fan_out(config_path, 2)
    _meet_first_two(monkeypatch, owner, attr)
    assert main(["predict", "--config", str(config_path)]) == 0


# A worker that waits for the turn forever would keep the process from exiting, so it runs in a child.
_UNREADABLE_ONCE = """
import itertools, sys
sys.path.insert(0, sys.argv.pop(1))
from sqlvote import cli, voting
from sqlvote.errors import DbUnreadable
connect, calls = voting.connect_readonly, itertools.count()

def unreadable_once(catalog):  # called while the turn is let go, around the pool's statements
    if next(calls) == 0:
        raise DbUnreadable(str(catalog.db_path), "injected")
    return connect(catalog)

voting.connect_readonly = unreadable_once
sys.exit(cli.main(sys.argv[1:]))
"""


def test_question_failing_in_a_blocking_section_frees_the_turn(mini_run):
    fixture_root, work, config_path = mini_run
    _set_fan_out(config_path, 2)
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run(
        [sys.executable, "-c", _UNREADABLE_ONCE, src, "predict", "--config", str(config_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 0 and run.stdout.endswith(", 1 failures\n")
    failed = (work / "predictions.jsonl").read_text().splitlines()

    assert main(["predict", "--config", str(config_path)]) == 0
    clean = (work / "predictions.jsonl").read_text().splitlines()
    differing = [(a, b) for a, b in zip(failed, clean) if a != b]
    assert len(differing) == 1 and json.loads(differing[0][0])["sql"] == "SELECT NULL"


def _cache_snapshot(cache_dir: Path) -> dict[str, bytes]:
    files = (path for path in cache_dir.rglob("*") if path.is_file())
    return {path.relative_to(cache_dir).as_posix(): path.read_bytes() for path in files}


def test_outputs_are_identical_at_every_fan_out(fixture_root, tmp_path, short_settle, capsys):
    short_settle()  # the fixture's database files are settled: every run writes their digest records
    scripted = tmp_path / "scripted"
    write_scripted_fixture(fixture_root, scripted)
    runs = {}
    for fan_out in (1, 2, 8):
        work = tmp_path / f"fan_out_{fan_out}"
        work.mkdir()
        config_path = write_run_config(fixture_root, work, scripted, audit=True)
        _set_fan_out(config_path, fan_out)
        for phase in ("cold", "warm"):
            assert main(["predict", "--config", str(config_path)]) == 0
            outputs = [(work / name).read_bytes() for name in ("predictions.jsonl", "predictions.jsonl.audit.jsonl")]
            runs[fan_out, phase] = (outputs, capsys.readouterr())
        runs[fan_out, "cache"] = _cache_snapshot(work / "cache")
    assert runs[1, "cold"] == runs[1, "warm"]
    for fan_out, part in itertools.product((2, 8), ("cold", "warm", "cache")):
        assert runs[fan_out, part] == runs[1, part]


# The audit file of the mini run, as written before the vote stopped building per-candidate objects.
_MINI_AUDIT_SHA256 = "32a669cb69e46ad6b436f82df0f0c36062590c707cf7d8e5080ddc77b1a17ea2"


def test_predict_and_audit_build_no_candidate(mini_run, monkeypatch):
    fixture_root, work, config_path = mini_run
    assert main(["predict", "--config", str(config_path)]) == 0
    expected = (work / "predictions.jsonl").read_bytes()
    shutil.rmtree(work / "cache")

    def no_candidate(*args, **kwargs):
        raise AssertionError("a Candidate was built")

    monkeypatch.setattr(voting, "Candidate", no_candidate)
    for flags in ([], ["--audit"]):
        for phase in ("cold", "warm"):
            assert main(["predict", "--config", str(config_path), *flags]) == 0, (flags, phase)
            assert (work / "predictions.jsonl").read_bytes() == expected, (flags, phase)
            if flags:
                audit = (work / "predictions.jsonl.audit.jsonl").read_bytes()
                assert hashlib.sha256(audit).hexdigest() == _MINI_AUDIT_SHA256, phase
        shutil.rmtree(work / "cache")
