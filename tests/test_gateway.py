from __future__ import annotations

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
    return RenderedPrompt(text, PromptDesignId.CONCISE, "q0", content_hash_of(text))


def _arm(samples=2, model_id="scripted-a", design=PromptDesignId.CONCISE, temperature=0.5):
    return ModelArm(model_id=model_id, design=design, samples=samples, temperature=temperature)


def _scripted_for(prompt, completions):
    return ScriptedBackend({prompt.content_hash: completions})


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
    entries = tmp_path / "scripted-a" / prompt.content_hash / "0.5" / "3"
    assert sorted(tmp_path.rglob("*.txt")) == [entries / "0.txt", entries / "1.txt"]


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
        "q0",
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
    entry = next(tmp_path.rglob("0.txt"))
    (entry.parent / "1.tmp").write_text("SEL", encoding="utf-8")  # left by a killed writer
    (tmp_path / "outcomes").mkdir()
    (tmp_path / "outcomes" / f"{'0' * 64}.json").write_text('{"SELECT 1": "k"}', encoding="utf-8")
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
    prompt = _prompt()
    arm = _arm(samples=8)
    texts = {name: [f"SELECT '{name}{k}' " * 200 for k in range(8)] for name in "AB"}
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
    cached = [path.read_text(encoding="utf-8") for path in tmp_path.rglob("*.txt")]
    assert len(cached) == 150 * 8
    assert set(cached) <= set(texts["A"]) | set(texts["B"])  # whole texts a backend returned
    assert list(tmp_path.rglob("*.tmp")) == []


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
    threading.Thread(target=server.serve_forever, daemon=True).start()
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
    cached = {p.name: p.read_text(encoding="utf-8") for p in tmp_path.rglob("*.txt")}
    assert cached == {"0.txt": "SELECT 10", "1.txt": "SELECT 11"}

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
    ],
    ids=["truncated", "not-json", "not-utf8", "object", "number", "wrong-tag", "short", "long",
         "other-mtime", "other-inode", "digest-not-text"],
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

