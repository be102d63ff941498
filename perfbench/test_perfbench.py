"""Tests for the benchmark's own generator and checks, at tiny sizes."""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

CHECKOUT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(CHECKOUT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, name):
    workloads.generate(name, 5, tmp_path / "a", size="tiny")
    workloads.generate(name, 5, tmp_path / "b", size="tiny")
    first, second = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert first.keys() == second.keys()
    assert [k for k in first if first[k] != second[k]] == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_gives_different_inputs(tmp_path, name):
    workloads.generate(name, 5, tmp_path / "a", size="tiny")
    workloads.generate(name, 6, tmp_path / "b", size="tiny")
    first, second = _files(tmp_path / "a"), _files(tmp_path / "b")
    for key in ("dev.json", "expected.json"):
        assert first[key] != second[key]
    databases = [k for k in first if k.endswith(".sqlite")]
    assert databases and all(first[k] != second.get(k) for k in databases)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_every_check(tmp_path, name, trace):
    result = run.run_benchmark(name, 3, 0, trace, CHECKOUT, work=tmp_path / name, size="tiny")
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] > 0
    listed = json.loads((CHECKOUT / "BENCHMARK.json").read_text())["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_design_covers_every_pool_kind(tmp_path):
    spec = workloads.generate("spider-mix", 5, tmp_path / "w")
    kinds = set(spec.expected["kinds"])
    assert kinds == set(workloads._SPIDER_POOLS)
    assert spec.questions == 64


def test_checks_catch_a_departure_from_the_design(tmp_path):
    spec = workloads.generate("spider-mix", 3, tmp_path / "w", size="tiny")
    expected = spec.expected
    expected["predictions"][0] = expected["predictions"][0].replace('"sql": "', '"sql": "SELECT 1 -- ')
    expected["ts"][1] = not expected["ts"][1]
    (spec.root / "expected.json").write_text(json.dumps(expected), encoding="utf-8")
    result = run.measure(spec, CHECKOUT / "src", 0, False, time.monotonic())
    assert not result["correct"]
    # question 0 in cold and in warm predict, every copy of question 1 in evaluate
    assert result["failed"] == 2 + spec.eval_copies


def test_requests_standin_fails_like_a_network_error(monkeypatch):
    import importlib.util

    monkeypatch.setenv("PYTHONPATH", "first")
    assert run.standin_env()["PYTHONPATH"].split(os.pathsep) == ["first", str(run.STANDINS)]
    spec = importlib.util.spec_from_file_location("requests_standin", run.STANDINS / "requests.py")
    standin = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(standin)
    with pytest.raises(standin.RequestException):
        standin.post("http://localhost/", json={}, timeout=1)
