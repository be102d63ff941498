from __future__ import annotations

import errno
import hashlib
import json
import os
import socket
import sys
import tempfile
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqlvote import gateway as gateway_module
from sqlvote.errors import BackendError, BackendUnavailable, DuplicateModelId
from sqlvote.execution import db_signature
from sqlvote.gateway import (
    Completion,
    Gateway,
    ModelArm,
    RemoteBackend,
    ScriptedBackend,
    cache_clear,
    cache_stats,
)
from sqlvote.prompts import PromptDesignId, RenderedPrompt, content_hash_of

from conftest import SHORT_SETTLE_NS, wait_to_settle


def _prompt(text="ask: [SQL]: "):
    return RenderedPrompt(text, PromptDesignId.CONCISE, content_hash_of(text))


def _arm(samples=2, model_id="scripted-a", design=PromptDesignId.CONCISE, temperature=0.5):
    return ModelArm(model_id=model_id, design=design, samples=samples, temperature=temperature)


def _scripted_for(prompt, completions):
    return ScriptedBackend({prompt.content_hash: completions})


def _entry(cache_dir, prompt, seed, index, model="scripted-a"):
    """Where the entry of (model, prompt, temperature 0.5, seed, index) lives."""
    return cache_dir / model / f"{prompt.content_hash}_0.5_{seed}_{index}.txt"


def test_defaults():
    arm = ModelArm("m", PromptDesignId.CONCISE)
    assert arm.samples == 32
    assert arm.temperature == 0.5


def test_scripted_sample_in_order(tmp_path):
    prompt = _prompt()
    gateway = Gateway(cache_dir=tmp_path)
    gateway.register_backend("scripted-a", _scripted_for(prompt, ["SELECT 1", "SELECT 2"]))
    completions = gateway.sample(_arm(), prompt, seed=3)
    assert [c.text for c in completions] == ["SELECT 1", "SELECT 2"]
    assert [c.sample_index for c in completions] == [0, 1]
    assert not any(c.from_cache for c in completions)


def test_cache_round_trip(tmp_path):
    prompt = _prompt()
    first_gateway = Gateway(cache_dir=tmp_path)
    first_gateway.register_backend("scripted-a", _scripted_for(prompt, ["SELECT 1", "SELECT 2"]))
    cold = first_gateway.sample(_arm(), prompt, seed=3)

    # Fresh gateway, backend that would answer differently: cache must win.
    second_gateway = Gateway(cache_dir=tmp_path)
    second_gateway.register_backend("scripted-a", _scripted_for(prompt, ["WRONG", "WRONG"]))
    warm = second_gateway.sample(_arm(), prompt, seed=3)
    assert [c.text for c in warm] == [c.text for c in cold]
    assert all(c.from_cache for c in warm)
    assert sorted(tmp_path.rglob("*.txt")) == [_entry(tmp_path, prompt, 3, 0), _entry(tmp_path, prompt, 3, 1)]


def test_cache_keeps_carriage_returns(tmp_path):
    prompt = _prompt()
    texts = ["SELECT 1\r\nFROM t\rX", "SELECT 2\r"]
    gateway = Gateway(cache_dir=tmp_path)
    gateway.register_backend("scripted-a", _scripted_for(prompt, texts))
    cold = gateway.sample(_arm(), prompt, seed=3)
    warm = gateway.sample(_arm(), prompt, seed=3)
    assert [c.text for c in cold] == texts
    assert [c.text for c in warm] == texts
    assert all(c.from_cache for c in warm)


def test_entry_names_keep_the_exact_temperature(tmp_path):
    """Close temperatures sample apart (6 significant digits would merge them); -0.0 is 0.0; 0.5, 0, 1 as before."""
    prompt = _prompt()
    calls = []

    class Echo:
        def generate(self, prompt_text, indexes, temperature, seed):
            calls.append(temperature)
            return [f"SELECT {temperature!r}" for _ in indexes]

    gateway = Gateway(cache_dir=tmp_path)
    gateway.register_backend("scripted-a", Echo())
    temperatures = [0.1234567, 0.1234568, 0.0, -0.0, 1.0, 0.5]
    texts = [[c.text for c in gateway.sample(_arm(temperature=t), prompt, seed=0)] for t in temperatures]
    assert calls == [0.1234567, 0.1234568, 0.0, 1.0, 0.5]
    assert [t[0] for t in texts] == [f"SELECT {t!r}" for t in [0.1234567, 0.1234568, 0.0, 0.0, 1.0, 0.5]]
    names = {p.name for p in (tmp_path / "scripted-a").iterdir()}
    written = ["0.1234567", "0.1234568", "0", "1", "0.5"]
    assert names == {f"{prompt.content_hash}_{t}_0_{i}.txt" for t in written for i in (0, 1)}


def test_exactly_n_with_failures(tmp_path):
    prompt = _prompt()
    gateway = Gateway(cache_dir=tmp_path)
    gateway.register_backend("scripted-a", ScriptedBackend({}))  # unknown hash -> BackendError
    completions = gateway.sample(_arm(samples=5), prompt, seed=0)
    assert len(completions) == 5
    assert all(c.failed for c in completions)


def test_sample_count_32(tmp_path):
    prompt = _prompt()
    gateway = Gateway(cache_dir=tmp_path)
    gateway.register_backend("scripted-a", _scripted_for(prompt, ["SELECT 1"]))
    completions = gateway.sample(_arm(samples=32), prompt, seed=0)
    assert len(completions) == 32


def test_arm_independence(tmp_path):
    concise = _prompt("concise text [SQL]: ")
    verbose = RenderedPrompt(
        "verbose text The corresponding SQL is: ",
        PromptDesignId.VERBOSE,
        content_hash_of("verbose text The corresponding SQL is: "),
    )
    gateway = Gateway(cache_dir=tmp_path)
    gateway.register_backend(
        "m", ScriptedBackend({concise.content_hash: ["A"], verbose.content_hash: ["B"]})
    )
    a = gateway.sample(_arm(samples=1, model_id="m"), concise, seed=0)
    b = gateway.sample(_arm(samples=1, model_id="m", design=PromptDesignId.VERBOSE), verbose, seed=0)
    assert a[0].text == "A" and b[0].text == "B"
    entries, _ = cache_stats(tmp_path)
    assert entries == 2


def test_register_twice():
    gateway = Gateway()
    gateway.register_backend("m", ScriptedBackend({}))
    with pytest.raises(DuplicateModelId):
        gateway.register_backend("m", ScriptedBackend({}))


def test_unregistered_model():
    gateway = Gateway()
    with pytest.raises(BackendUnavailable):
        gateway.sample(_arm(model_id="ghost"), _prompt(), seed=0)


def test_scripted_from_dir(tmp_path):
    prompt = _prompt()
    record = {"prompt_hash": prompt.content_hash, "completions": ["SELECT 7"]}
    (tmp_path / "rec0.json").write_text(json.dumps(record))
    backend = ScriptedBackend.from_dir(tmp_path)
    assert backend.generate(prompt.text, [0, 1], 0.5, 0) == ["SELECT 7", "SELECT 7"]


def test_cache_stats_and_clear(tmp_path):
    prompt = _prompt()
    gateway = Gateway(cache_dir=tmp_path)
    gateway.register_backend("scripted-a", _scripted_for(prompt, ["SELECT 1", "SELECT 2"]))
    gateway.sample(_arm(samples=2), prompt, seed=0)
    entry = _entry(tmp_path, prompt, 0, 0)
    (entry.parent / "1.tmp").write_text("SEL", encoding="utf-8")  # left by a killed writer
    (tmp_path / "databases").mkdir()
    (tmp_path / "databases" / f"{'0' * 64}.json").write_text('["tag", 1, 2, 3, 4, 5, "d"]', encoding="utf-8")
    assert cache_stats(tmp_path) == (2, len("SELECT 1") + len("SELECT 2"))  # completions only
    assert cache_clear(tmp_path) == 2
    assert cache_stats(tmp_path) == (0, 0)
    assert list(tmp_path.iterdir()) == []


def test_pool_grown_on_a_warm_cache_equals_a_fresh_pool(tmp_path):
    prompt = _prompt()
    texts = [f"SELECT {i}" for i in range(8)]

    def sample(cache_dir, samples):
        gateway = Gateway(cache_dir=cache_dir)
        gateway.register_backend("scripted-a", _scripted_for(prompt, texts))
        return [(c.text, c.sample_index) for c in gateway.sample(_arm(samples=samples), prompt, seed=0)]

    assert sample(tmp_path / "grown", 4) == list(zip(texts[:4], range(4)))
    assert sample(tmp_path / "grown", 8) == sample(tmp_path / "fresh", 8) == list(zip(texts, range(8)))


def test_text_that_does_not_encode_fails_and_is_not_cached(tmp_path):
    prompt = _prompt()
    gateway = Gateway(cache_dir=tmp_path)
    gateway.register_backend("scripted-a", _scripted_for(prompt, ["SELECT 1", "SELECT '\ud800'"]))
    for _ in range(2):  # the second call asks the backend again for the failed index only
        good, bad = gateway.sample(_arm(), prompt, seed=0)
        assert (good.text, good.failed) == ("SELECT 1", False)
        assert bad.failed and not bad.from_cache
        assert bad.text == "backend returned text that does not encode as UTF-8: surrogates not allowed"
        assert cache_stats(tmp_path) == (1, len("SELECT 1"))
    assert good.from_cache


def test_concurrent_writers_share_one_cache(tmp_path):
    """Two gateways on one cache, each writing the same entries at the same time."""
    texts = {name: [f"SELECT '{name}{k}' " * 200 for k in range(8)] for name in "AB"}
    _write_concurrently(tmp_path, texts)
    cached = [path.read_text(encoding="utf-8") for path in tmp_path.rglob("*.txt")]
    assert len(cached) == 150 * 8
    assert set(cached) <= set(texts["A"]) | set(texts["B"])  # whole texts a backend returned
    assert list(tmp_path.rglob("*.tmp")) == []


def test_concurrent_writers_of_linked_entries_keep_each_index_text(tmp_path):
    """Each writer repeats its texts in another pattern; no entry may take a sibling's text."""
    periods = {"A": 2, "B": 3}
    texts = {name: [f"SELECT '{name}{k % periods[name]}' " * 200 for k in range(8)] for name in periods}
    _write_concurrently(tmp_path, texts)
    for path in tmp_path.rglob("*.txt"):
        index = int(path.stem.rsplit("_", 1)[1])
        assert path.read_text(encoding="utf-8") in (texts["A"][index], texts["B"][index])
    assert len(list(tmp_path.rglob("*.txt"))) == 150 * 8
    assert list(tmp_path.rglob("*.tmp")) == []


def _write_concurrently(tmp_path, texts):
    """Two gateways on one cache, answering from `texts[name]`, sample the same 150 calls in step."""
    prompt = _prompt()
    arm = _arm(samples=8)
    barrier = threading.Barrier(2, timeout=30)
    errors: list[Exception] = []

    def writer(name):
        gateway = Gateway(cache_dir=tmp_path)
        gateway.register_backend("scripted-a", _scripted_for(prompt, texts[name]))
        try:
            for seed in range(150):
                barrier.wait()
                gateway.sample(arm, prompt, seed=seed)
        except Exception as exc:  # recorded for the main thread to report
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(name,)) for name in "AB"]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_repeated_texts_of_a_call_share_one_file(tmp_path):
    prompt = _prompt()
    gateway = Gateway(cache_dir=tmp_path)
    gateway.register_backend("scripted-a", _scripted_for(prompt, ["SELECT 1", "SELECT 22"]))
    gateway.sample(_arm(samples=5), prompt, seed=0)  # indexes 0, 2, 4 repeat; 1 and 3 repeat
    entries = sorted(tmp_path.rglob("*.txt"))
    assert [p.read_bytes() for p in entries] == [b"SELECT 1", b"SELECT 22"] * 2 + [b"SELECT 1"]
    assert len({p.stat().st_ino for p in entries}) == 2
    assert cache_stats(tmp_path) == (5, 3 * len("SELECT 1") + 2 * len("SELECT 22"))  # apparent bytes
    assert list(tmp_path.rglob("*.tmp")) == []


def test_replacing_a_linked_entry_leaves_its_siblings(tmp_path):
    prompt = _prompt()
    gateway = Gateway(cache_dir=tmp_path)
    gateway.register_backend("scripted-a", _scripted_for(prompt, ["SELECT 1", "SELECT 2"]))
    gateway.sample(_arm(samples=4), prompt, seed=0)
    entries = sorted(tmp_path.rglob("*.txt"))
    assert os.path.samefile(entries[0], entries[2])
    gateway_module._publish(str(entries[0]), b"SELECT 9")
    assert [p.read_bytes() for p in entries] == [b"SELECT 9", b"SELECT 2", b"SELECT 1", b"SELECT 2"]
    warm = gateway.sample(_arm(samples=4), prompt, seed=0)
    assert [c.text for c in warm] == ["SELECT 9", "SELECT 2", "SELECT 1", "SELECT 2"]


def test_an_entry_replaced_while_its_repeats_are_linked_changes_no_sibling(tmp_path, monkeypatch):
    text = tmp_path / "text"
    paths = [str(tmp_path / f"{i}.txt") for i in range(3)]
    link = os.link

    def another_writer_first(source, target):
        gateway_module._publish(paths[0], b"SELECT 2")  # replaces the first entry meanwhile
        link(source, target)

    monkeypatch.setattr(gateway_module.os, "link", another_writer_first)
    gateway_module._link_entries(str(text), paths, b"SELECT 1")
    # the other writer replaced the first entry last; the text file and the entries linked to it keep their bytes
    assert [Path(p).read_bytes() for p in paths] == [b"SELECT 2", b"SELECT 1", b"SELECT 1"]
    assert text.read_bytes() == b"SELECT 1"
    assert all(os.path.samefile(p, text) for p in paths[1:])


def test_publish_whose_second_rename_fails_leaves_no_temp(tmp_path, monkeypatch):
    text = tmp_path / "text"
    text.write_bytes(b"SELECT 1")  # holds the bytes already, so only the entries are renamed into place
    paths = [str(tmp_path / f"{i}.txt") for i in range(3)]
    for path in paths:  # spoiled entries: each name is taken, so each is replaced by rename
        Path(path).write_bytes(b"\xff")
    replace, renamed = os.replace, []

    def second_fails(source, target):
        renamed.append(target)
        if len(renamed) == 2:
            raise OSError(errno.EIO, "rename failed")
        replace(source, target)

    monkeypatch.setattr(gateway_module.os, "replace", second_fails)
    with pytest.raises(OSError, match="rename failed"):
        gateway_module._link_entries(str(text), paths, b"SELECT 1")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0.txt", "1.txt", "2.txt", "text"]
    assert (tmp_path / "0.txt").read_bytes() == text.read_bytes() == b"SELECT 1"
    assert os.path.samefile(tmp_path / "0.txt", text)
    assert [Path(p).read_bytes() for p in paths[1:]] == [b"\xff"] * 2


def test_a_text_edited_in_place_is_published_again_before_it_is_linked(tmp_path):
    prompt = _prompt()
    gateway = Gateway(cache_dir=tmp_path)
    gateway.register_backend("scripted-a", _scripted_for(prompt, ["SELECT 1"]))

    def entries(seed):
        return [_entry(tmp_path, prompt, seed, i) for i in range(2)]

    gateway.sample(_arm(), prompt, seed=0)
    text = tmp_path / "texts" / hashlib.sha256(b"SELECT 1").hexdigest()
    assert all(os.path.samefile(p, text) for p in entries(0))
    with open(text, "r+b") as handle:  # an edit in place reaches every entry linked to the file
        handle.write(b"SELECT 9")
    assert [c.text for c in gateway.sample(_arm(), prompt, seed=1)] == ["SELECT 1"] * 2
    assert text.read_bytes() == b"SELECT 1"
    assert [p.read_bytes() for p in entries(1)] == [b"SELECT 1"] * 2
    assert all(os.path.samefile(p, text) for p in entries(1))
    assert [p.read_bytes() for p in entries(0)] == [b"SELECT 9"] * 2  # the edited file, no longer the text file
    gateway.sample(_arm(), prompt, seed=2)  # a later call links the fresh file as it is
    assert all(os.path.samefile(p, text) for p in entries(2))


def test_a_spoiled_entry_is_replaced_by_rename_and_its_siblings_keep_their_inodes(tmp_path, monkeypatch):
    prompt = _prompt()
    gateway = Gateway(cache_dir=tmp_path)
    gateway.register_backend("scripted-a", _scripted_for(prompt, ["SELECT 1", "SELECT 2"]))
    gateway.sample(_arm(samples=3), prompt, seed=0)
    entries = [_entry(tmp_path, prompt, 0, i) for i in range(4)]
    inodes = [p.stat().st_ino for p in entries[:3]]
    entries[0].unlink()
    entries[0].write_bytes(b"\xff\xfe SELECT")  # not UTF-8, in a file of its own
    replace, renamed = os.replace, []

    def record(source, target):
        renamed.append(Path(target))
        replace(source, target)

    monkeypatch.setattr(gateway_module.os, "replace", record)
    grown = gateway.sample(_arm(samples=4), prompt, seed=0)  # index 0 sampled again, index 3 new
    assert [(c.text, c.from_cache) for c in grown] == [
        ("SELECT 1", False), ("SELECT 2", True), ("SELECT 1", True), ("SELECT 2", False)
    ]
    assert renamed == [entries[0]]  # the new index 3 is linked straight to its name
    text = tmp_path / "texts" / hashlib.sha256(b"SELECT 1").hexdigest()
    assert os.path.samefile(entries[0], text) and os.path.samefile(entries[0], entries[2])
    assert [p.stat().st_ino for p in entries[1:3]] == inodes[1:]
    assert os.path.samefile(entries[3], entries[1])
    assert list(tmp_path.rglob("*.tmp")) == []


def test_an_entry_linked_again_to_its_own_text_leaves_no_temp(tmp_path):
    text = tmp_path / "text"
    path = str(tmp_path / "0.txt")
    for _ in range(2):  # the second link finds the name taken by a link of the same file: rename does nothing
        gateway_module._link_entries(str(text), [path], b"SELECT 1")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["0.txt", "text"]
    assert os.path.samefile(path, text)


def test_a_cache_of_nested_entries_is_sampled_again_and_cleared(tmp_path):
    prompt = _prompt()
    nested = tmp_path / "scripted-a" / prompt.content_hash / "0.5" / "3"  # the layout of earlier versions
    nested.mkdir(parents=True)
    for i in range(2):
        (nested / f"{i}.txt").write_text(f"SELECT {i + 7}", encoding="utf-8")
    gateway = Gateway(cache_dir=tmp_path)
    gateway.register_backend("scripted-a", _scripted_for(prompt, ["SELECT 1", "SELECT 2"]))
    completions = gateway.sample(_arm(), prompt, seed=3)
    assert [(c.text, c.from_cache) for c in completions] == [("SELECT 1", False), ("SELECT 2", False)]
    assert [_entry(tmp_path, prompt, 3, i).read_text(encoding="utf-8") for i in range(2)] == ["SELECT 1", "SELECT 2"]
    assert cache_stats(tmp_path) == (4, 4 * len("SELECT 1"))
    assert cache_clear(tmp_path) == 4
    assert list(tmp_path.iterdir()) == []


def test_each_model_id_is_one_directory_inside_the_cache(tmp_path):
    prompt = _prompt()
    cache, outside = tmp_path / "cache", tmp_path / "outside"
    gateway = Gateway(cache_dir=cache)
    models = [str(outside), "openai/gpt-4o", "50%"]
    for model in models:
        gateway.register_backend(model, _scripted_for(prompt, ["SELECT 1", "SELECT 2"]))
        assert [c.text for c in gateway.sample(_arm(model_id=model), prompt, seed=0)] == ["SELECT 1", "SELECT 2"]
        assert all(c.from_cache for c in gateway.sample(_arm(model_id=model), prompt, seed=0))
    assert not outside.exists()
    model_dirs = ["%2F" + str(outside)[1:].replace("/", "%2F"), "openai%2Fgpt-4o", "50%25"]
    assert sorted(p.name for p in cache.iterdir()) == sorted([*model_dirs, "texts"])
    assert all(len(list((cache / d).iterdir())) == 2 for d in model_dirs)
    assert cache_clear(cache) == 6
    assert list(cache.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache"]


@pytest.mark.parametrize("model", ["", ".", ".."])
def test_a_model_id_that_names_no_directory_of_its_own_is_refused(model):
    with pytest.raises(ValueError, match="model id must not be"):
        _arm(model_id=model)


def _refuse_links(*args):
    raise OSError(errno.EMLINK, "Too many links")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["scripted-a", "scripted-b"]),
            st.lists(st.sampled_from(["SELECT 1", "SELECT 2", "", "é\r\n"]) | st.text(max_size=3), min_size=1, max_size=6),
        ),
        min_size=1,
        max_size=5,
    ),
    st.booleans(),
)
def test_cold_sample_stores_each_distinct_text_once(calls, links_fail):
    """Calls of two models whose texts repeat within and across calls: one inode per distinct text."""
    prompts = [_prompt(f"ask {k}: [SQL]: ") for k in range(len(calls))]
    tables: dict[str, dict[str, list[str]]] = {"scripted-a": {}, "scripted-b": {}}
    for prompt, (model, texts) in zip(prompts, calls):
        tables[model][prompt.content_hash] = texts
    with tempfile.TemporaryDirectory() as root, patch.object(
        gateway_module.os, "link", _refuse_links if links_fail else os.link
    ):
        cache = Path(root)
        gateway = Gateway(cache_dir=cache)
        for model, table in tables.items():
            gateway.register_backend(model, ScriptedBackend(table))

        def sample_all():
            return [
                gateway.sample(_arm(len(texts), model), prompt, seed=0) for prompt, (model, texts) in zip(prompts, calls)
            ]

        assert [[c.text for c in s] for s in sample_all()] == [texts for _, texts in calls]
        entries = []
        for prompt, (model, texts) in zip(prompts, calls):
            for i, text in enumerate(texts):
                entries.append(_entry(cache, prompt, 0, i, model))
                assert entries[-1].read_bytes() == text.encode("utf-8")
        assert len(list(cache.rglob("*.txt"))) == len(entries)
        distinct = {text for _, texts in calls for text in texts}
        inodes = {p.stat().st_ino for p in entries}
        assert len(inodes) == (len(entries) if links_fail else len(distinct))
        assert list(cache.rglob("*.tmp")) == []
        warm = sample_all()
        assert [[c.text for c in s] for s in warm] == [texts for _, texts in calls]
        assert all(c.from_cache for s in warm for c in s)


# --- remote backend wire contract ------------------------------------------------


class _Script:
    """Sequence of (status, body) responses the fake endpoint plays back."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []
        self.lock = threading.Lock()


@contextmanager
def _running(handler):
    """A local HTTP server answering on its own thread; shut down and closed on exit."""
    server = HTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()  # shutdown() waits a poll
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@contextmanager
def _serve(script: _Script):
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            payload = json.loads(self.rfile.read(length))
            with script.lock:
                script.requests.append((payload, dict(self.headers)))
                status, body = (
                    script.responses.pop(0) if script.responses else (500, "exhausted")
                )
            data = body.encode() if isinstance(body, str) else json.dumps(body).encode()
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    with _running(Handler) as server:
        yield f"http://127.0.0.1:{server.server_port}/complete"


def _remote(url, **kwargs):
    kwargs.setdefault("sleep", lambda _: None)
    return RemoteBackend(url, "SQLVOTE_TEST_TOKEN", request_timeout=5.0, model="m1", **kwargs)


def test_remote_success(monkeypatch):
    script = _Script([(200, {"completions": ["SELECT 1"]})])
    monkeypatch.setenv("SQLVOTE_TEST_TOKEN", "sekrit")
    with _serve(script) as url:
        texts = _remote(url).generate("prompt text", [0], 0.5, 0)
    assert texts == ["SELECT 1"]
    payload, headers = script.requests[0]
    assert payload == {
        "model": "m1",
        "prompt": "prompt text",
        "n": 1,
        "temperature": 0.5,
        "stop": [";", "\n\n"],
    }
    assert headers.get("Authorization") == "Bearer sekrit"


def test_remote_rate_limited_thrice():
    script = _Script([(429, "slow down")] * 3)
    with _serve(script) as url, pytest.raises(BackendError) as err:
        _remote(url).generate("p", [0], 0.5, 0)
    assert err.value.status == 429
    assert len(script.requests) == 3


def test_remote_short_response():
    script = _Script([(200, {"completions": ["only one"]})])
    with _serve(script) as url, pytest.raises(BackendError) as err:
        _remote(url).generate("p", [0, 1, 2], 0.5, 0)
    assert "short response" in str(err.value)


@pytest.mark.parametrize(
    "body", [[], "null", "\"text\"", {"completions": [None]}, {"completions": ["SELECT 1", 7]}]
)
def test_remote_body_not_an_object(body):
    script = _Script([(200, body)])
    with _serve(script) as url, pytest.raises(BackendError) as err:
        _remote(url).generate("p", [0], 0.5, 0)
    assert "bad response body" in str(err.value)
    assert len(script.requests) == 1


def test_remote_retries_then_succeeds():
    script = _Script([(503, "boom"), (200, {"completions": ["SELECT 2"]})])
    with _serve(script) as url:
        assert _remote(url).generate("p", [0], 0.5, 0) == ["SELECT 2"]
    assert len(script.requests) == 2


def test_remote_non_retriable_4xx():
    script = _Script([(400, "bad request")])
    with _serve(script) as url, pytest.raises(BackendError) as err:
        _remote(url).generate("p", [0], 0.5, 0)
    assert err.value.status == 400
    assert len(script.requests) == 1


def test_remote_refused_connection_is_retried():
    slept = []
    with socket.socket() as probe:  # bound but not listening: connections are refused, and no one takes the port
        probe.bind(("127.0.0.1", 0))
        url = f"http://127.0.0.1:{probe.getsockname()[1]}/complete"
        with pytest.raises(BackendError) as err:
            _remote(url, sleep=slept.append).generate("p", [0], 0.5, 0)
    assert slept == [1.0, 2.0]
    assert err.value.status is None


def test_remote_body_cut_short_is_retried():
    posts = []

    class CutShort(BaseHTTPRequestHandler):
        def do_POST(self):
            posts.append(self.rfile.read(int(self.headers["Content-Length"])))
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b'{"completions"')  # 14 of the 100 bytes, then the connection closes

        def log_message(self, *args):
            pass

    slept = []
    with _running(CutShort) as server, pytest.raises(BackendError) as err:
        _remote(f"http://127.0.0.1:{server.server_port}/complete", sleep=slept.append).generate("p", [0], 0.5, 0)
    assert len(posts) == 3
    assert slept == [1.0, 2.0]
    assert err.value.status is None


def test_remote_retries_through_an_https_proxy_stay_tls(monkeypatch):
    first_bytes = []

    class Proxy(BaseHTTPRequestHandler):
        def do_CONNECT(self):
            self.send_response(200)
            self.end_headers()
            first_bytes.append(self.rfile.read(1))  # 0x16 opens a TLS handshake; b"P" a bare POST
            self.close_connection = True

        def log_message(self, *args):
            pass

    monkeypatch.delenv("no_proxy", raising=False)
    with _running(Proxy) as server:
        monkeypatch.setenv("https_proxy", f"http://127.0.0.1:{server.server_port}")
        with pytest.raises(BackendError):
            _remote("https://127.0.0.1:1/complete").generate("p", [0], 0.5, 0)
    assert first_bytes == [b"\x16"] * 3


@pytest.mark.parametrize("code", [301, 302, 303, 307, 308])
@pytest.mark.parametrize("scheme", ["http", "ftp"])
def test_remote_redirect_is_refused(monkeypatch, code, scheme):
    reached, posts = [], []

    class Elsewhere(BaseHTTPRequestHandler):
        def do_GET(self):
            reached.append(self.headers.get("Authorization"))
            data = json.dumps({"completions": ["SELECT 1"]}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        do_POST = do_GET

        def log_message(self, *args):
            pass

    class Redirect(BaseHTTPRequestHandler):
        def do_POST(self):
            posts.append(self.rfile.read(int(self.headers["Content-Length"])))
            self.send_response(code)
            self.send_header("Location", f"{scheme}://127.0.0.1:{elsewhere.server_port}/complete")
            self.send_header("Content-Length", "0")
            self.end_headers()

        def log_message(self, *args):
            pass

    monkeypatch.setenv("SQLVOTE_TEST_TOKEN", "sekrit")
    with _running(Elsewhere) as elsewhere, _running(Redirect) as server, pytest.raises(BackendError) as err:
        _remote(f"http://127.0.0.1:{server.server_port}/complete").generate("p", [0], 0.5, 0)
    assert err.value.status == code
    assert len(posts) == 1  # a redirect is an error at once, not retried
    assert reached == []  # nothing, and so no token, reaches the Location


def test_failed_samples_become_placeholders(tmp_path):
    """Gateway turns BackendError into failed completions, never exceptions."""
    script = _Script([(429, "x")] * 3)
    gateway = Gateway(cache_dir=tmp_path)
    with _serve(script) as url:
        gateway.register_backend("m1", _remote(url))
        completions = gateway.sample(_arm(samples=2, model_id="m1"), _prompt(), seed=0)
    assert len(completions) == 2
    assert all(isinstance(c, Completion) and c.failed for c in completions)
    assert cache_stats(tmp_path) == (0, 0)  # failures are not cached


def test_reply_nested_too_deep_fails_the_samples(tmp_path):
    """A body json cannot decode without recursing too deep is a failed sample, not a traceback."""
    script = _Script([(200, "[" * 100_000)])
    gateway = Gateway(cache_dir=tmp_path)
    with _serve(script) as url:
        gateway.register_backend("m1", _remote(url))
        completions = gateway.sample(_arm(samples=2, model_id="m1"), _prompt(), seed=0)
    assert [c.failed for c in completions] == [True, True]
    assert all(c.text.startswith("backend error: status 200: bad response body: maximum recursion depth")
               for c in completions)
    assert cache_stats(tmp_path) == (0, 0)


class _ShortBackend:
    """Returns only the first `give` of the texts asked for, and records each request size."""

    def __init__(self, give: int):
        self.give = give
        self.requests: list[int] = []

    def generate(self, prompt, indexes, temperature, seed):
        self.requests.append(len(indexes))
        return [f"SELECT {len(self.requests)}{i}" for i in range(min(len(indexes), self.give))]


def test_short_reply_fails_missing_indexes_and_caches_nothing_for_them(tmp_path):
    prompt = _prompt()
    backend = _ShortBackend(give=2)
    gateway = Gateway(cache_dir=tmp_path)
    gateway.register_backend("scripted-a", backend)

    first = gateway.sample(_arm(samples=5), prompt, seed=0)
    assert [c.text for c in first[:2]] == ["SELECT 10", "SELECT 11"]
    assert [c.failed for c in first] == [False, False, True, True, True]
    assert [c.sample_index for c in first] == [0, 1, 2, 3, 4]
    cached = {p: p.read_text(encoding="utf-8") for p in tmp_path.rglob("*.txt")}
    assert cached == {_entry(tmp_path, prompt, 0, 0): "SELECT 10", _entry(tmp_path, prompt, 0, 1): "SELECT 11"}

    # The next call asks again for exactly the indexes that were not returned.
    second = gateway.sample(_arm(samples=5), prompt, seed=0)
    assert backend.requests == [5, 3]
    assert [c.from_cache for c in second] == [True, True, False, False, False]
    assert [c.text for c in second[2:4]] == ["SELECT 20", "SELECT 21"]
    assert second[4].failed


# --- database digest records ------------------------------------------------------

def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _digest_records(cache_dir):
    return sorted((cache_dir / "databases").glob("*.json"))


def _replace_at(index, value):
    def spoil(data):
        record = json.loads(data)
        record[index] = value
        return json.dumps(record).encode()
    return spoil


@pytest.mark.parametrize(
    "spoil",
    [
        lambda data: data[: len(data) // 2],
        lambda data: b"not json",
        lambda data: b"\xff\xfe[]",
        lambda data: b"{}",
        lambda data: b"7",
        _replace_at(0, "sqlvote-db-digest-0"),
        lambda data: json.dumps(json.loads(data)[1:]).encode(),
        lambda data: json.dumps(json.loads(data) + ["x"]).encode(),
        _replace_at(4, 0),
        _replace_at(2, 0),
        _replace_at(-1, 7),
        lambda data: b"[" * 100000 + b"]" * 100000,
    ],
    ids=["truncated", "not-json", "not-utf8", "object", "number", "wrong-tag", "short", "long",
         "other-mtime", "other-inode", "digest-not-text", "nested-too-deep"],
)
def test_spoiled_digest_record_is_a_miss_and_is_rewritten(tmp_path, short_settle, hashed_files, spoil):
    db, cache_dir = tmp_path / "db.sqlite", tmp_path / "cache"
    db.write_bytes(b"x" * 5000)
    short_settle()
    assert Gateway(cache_dir=cache_dir)._db_digest(db) == _sha256(db)
    (record,) = _digest_records(cache_dir)
    written = record.read_bytes()
    assert json.loads(written) == ["sqlvote-db-digest-1", *db_signature(db), _sha256(db)]
    record.write_bytes(spoil(written))

    hashed_files.clear()
    assert Gateway(cache_dir=cache_dir)._db_digest(db) == _sha256(db)
    assert hashed_files == [str(db)]
    assert _digest_records(cache_dir) == [record] and record.read_bytes() == written
    assert Gateway(cache_dir=cache_dir)._db_digest(db) == _sha256(db)
    assert hashed_files == [str(db)]


def test_file_changed_while_hashed_leaves_no_record(tmp_path, monkeypatch, short_settle):
    db, cache_dir = tmp_path / "db.sqlite", tmp_path / "cache"
    db.write_bytes(b"x" * 5000)
    short_settle()
    file_digest = hashlib.file_digest

    def rewritten_meanwhile(handle, name):
        digest = file_digest(handle, name)
        db.write_bytes(b"y" * 5000)
        return digest

    monkeypatch.setattr(hashlib, "file_digest", rewritten_meanwhile)
    Gateway(cache_dir=cache_dir)._db_digest(db)
    assert not (cache_dir / "databases").exists()


def test_settled_file_reads_its_record_once_per_gateway(tmp_path, short_settle, hashed_files, record_reads):
    db, cache_dir = tmp_path / "db.sqlite", tmp_path / "cache"
    db.write_bytes(b"x" * 5000)
    short_settle()
    writer = Gateway(cache_dir=cache_dir)
    assert writer._db_digest(db) == _sha256(db)  # no record yet: one read that finds nothing
    (record,) = _digest_records(cache_dir)
    assert writer._db_digest(db) == _sha256(db)  # remembered as written: no second read or hash
    assert record_reads == [record] and hashed_files == [str(db)]

    reader = Gateway(cache_dir=cache_dir)  # a new gateway remembers nothing
    assert reader._db_digest(db) == reader._db_digest(db) == _sha256(db)
    assert record_reads == [record, record] and hashed_files == [str(db)]

    db.write_bytes(b"y" * 5000)  # a new signature: the remembered digest no longer holds
    assert reader._db_digest(db) == _sha256(db)
    assert hashed_files == [str(db), str(db)]


def test_unsettled_file_is_hashed_on_every_call_and_not_remembered(tmp_path, hashed_files):
    db, cache_dir = tmp_path / "db.sqlite", tmp_path / "cache"
    db.write_bytes(b"x" * 5000)  # changed within the two-second settle window
    gateway = Gateway(cache_dir=cache_dir)
    for _ in range(3):
        assert gateway._db_digest(db) == _sha256(db)
    assert hashed_files == [str(db)] * 3
    assert gateway._digests == {} and not (cache_dir / "databases").exists()


_CONTENTS = [b"a" * 4096, b"b" * 4096, b"c" * 4097]
_step = st.one_of(
    st.tuples(st.just("write"), st.sampled_from(range(len(_CONTENTS))), st.booleans()),
    st.tuples(st.just("restore mtime")),
    st.tuples(st.just("restart")),
    st.tuples(st.just("settle")),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_step, max_size=12))
def test_digest_always_matches_the_current_bytes(steps):
    """Over rewrites in place or by rename, mtime restores, restarts and waits, no stale digest."""
    with tempfile.TemporaryDirectory() as tmp, patch.object(gateway_module, "_SETTLE_NS", SHORT_SETTLE_NS):
        db, cache_dir = Path(tmp) / "db.sqlite", Path(tmp) / "cache"
        db.write_bytes(_CONTENTS[0])
        first_mtime = os.stat(db).st_mtime_ns
        gateway = Gateway(cache_dir=cache_dir)
        assert gateway._db_digest(db) == _sha256(db)
        for kind, *args in steps:
            if kind == "write":
                content, in_place = _CONTENTS[args[0]], args[1]
                if in_place:
                    with open(db, "r+b") as handle:
                        handle.write(content)
                        handle.truncate()
                else:
                    (Path(tmp) / "new").write_bytes(content)
                    os.replace(Path(tmp) / "new", db)
            elif kind == "restore mtime":
                os.utime(db, ns=(first_mtime, first_mtime))
            elif kind == "restart":
                gateway = Gateway(cache_dir=cache_dir)
            else:
                wait_to_settle()
            assert gateway._db_digest(db) == _sha256(db)

