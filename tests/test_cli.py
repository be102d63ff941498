from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest
import yaml

from sqlvote import voting
from sqlvote.cli import load_config, main
from sqlvote.errors import ConfigError
from sqlvote.gateway import ScriptedBackend

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


def test_arm_weight_key_is_ignored(fixture_root, tmp_path):
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
    for arm in config["arms"]:
        del arm["weight"]
    plain = tmp_path / "plain.yaml"
    plain.write_text(yaml.safe_dump(config))
    assert load_config(path).arms == load_config(plain).arms


@pytest.mark.parametrize(
    "key, value",
    [
        ("arms", ["concise"]), ("seed", "abc"), ("backends", ["scripted-a"]),
        ("timeout", float("nan")), ("timeout", 0), ("timeout", -1), ("timeout", float("inf")),
    ],
    ids=[
        "arm-not-a-mapping", "seed-not-a-number", "backends-not-a-mapping",
        "timeout-nan", "timeout-zero", "timeout-negative", "timeout-infinite",
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

    assert main(["predict", "--config", str(config_path)]) == 0
    assert (work / "predictions.jsonl").read_bytes() == expected
    assert entry.read_bytes() == text


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
    ["not json", '{"example_id": "000000"}', '{"example_id": "000000", "sql": 5}'],
    ids=["not-json", "no-sql", "sql-not-a-string"],
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
    "spec, kind",
    [
        ({"type": "remote", "endpoint": "http://localhost:9", "request_timeout": "abc"}, "ValueError"),
        ({"type": "remote"}, "KeyError"),
        ({"type": "remote", "endpoint": "file:///etc/hostname"}, "ValueError"),
        ({"type": "remote", "endpoint": "localhost:8000/complete"}, "ValueError"),
        *(
            ({"type": "remote", "endpoint": "http://localhost:9", "request_timeout": t}, "ValueError")
            for t in (float("nan"), 0, -1, float("inf"))
        ),
    ],
    ids=[
        "timeout-not-a-number", "no-endpoint", "file-endpoint", "endpoint-without-scheme",
        "timeout-nan", "timeout-zero", "timeout-negative", "timeout-infinite",
    ],
)
def test_bad_remote_backend_value_is_a_config_error(mini_run, capsys, spec, kind):
    fixture_root, work, config_path = mini_run
    config = yaml.safe_load(config_path.read_text())
    config["backends"]["remote-x"] = spec
    config_path.write_text(yaml.safe_dump(config))
    assert main(["predict", "--config", str(config_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"bad config value for remote backend 'remote-x': {kind}: ")
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
    assert list(cache_dir.iterdir()) == []  # outcome records went too


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


def _cache_snapshot(cache_dir: Path) -> dict[str, object]:
    snapshot: dict[str, object] = {}
    for path in sorted(cache_dir.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            if path.parent.name == "outcomes":  # an error outcome keeps its measured elapsed time
                data = {sql: v if isinstance(v, str) else v[::2] for sql, v in json.loads(data).items()}
            snapshot[path.relative_to(cache_dir).as_posix()] = data
    return snapshot


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
