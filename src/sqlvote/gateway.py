"""Completion sampling across pluggable backends, with an on-disk cache.

Each arm draws `samples` i.i.d. completions for one rendered prompt. The
cache is content-addressed by (model, prompt hash, temperature, seed, index)
so recorded runs replay byte-identically and repeat runs cost nothing.

The cache also keeps one execution-outcome record per pool, at
`outcomes/<digest>.json`. The digest covers a format tag, the SQLite
version, the SHA-256 of the database file's bytes, `repr(timeout)` and the
pool's sorted distinct statements. The record maps each statement to its
outcome key, or to its error kind, elapsed time and detail. A warm run
replays the recorded outcomes, timeouts included, and executes nothing;
a changed database file, timeout or SQLite version re-executes. The file's
SHA-256 comes from its digest record, `databases/<SHA-256 of its absolute
path>.json`, while the file's stat (`execution.db_signature`) equals the
recorded one, so a warm run reads no database bytes. A miss hashes the
file, and records it only if its stat held while it was hashed and it had
last changed more than _SETTLE_NS before: any later write moves its ctime
(git's "racily clean" rule). Like make and git, this trusts the file
system's timestamps. `cache clear` drops the records with the completions.

Workers take turns (`Gateway.turn`) to run Python, and let go of the turn only
around calls that block without the interpreter: threads running Python side by
side would hand the interpreter lock back and forth on every short file read.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from http.client import HTTPException
from pathlib import Path
from typing import Callable, Collection, Protocol
from urllib.error import HTTPError
from urllib.request import HTTPRedirectHandler, Request, build_opener

from .errors import BackendError, BackendUnavailable, DbUnreadable, DuplicateModelId
from .execution import ErrorKind, ExecutionOutcome, KeyOrError, OutcomeKey, db_signature
from .prompts import PromptDesignId, RenderedPrompt, content_hash_of

DEFAULT_SAMPLES = 32
DEFAULT_TEMPERATURE = 0.5
DEFAULT_STOP = (";", "\n\n")  # sent with every remote request; a constant, so not a cache key part
_RETRY_ATTEMPTS = 3
_RETRY_BASE_DELAY = 1.0
_TEMP_SUFFIX = ".tmp"  # a write in progress; never read as an entry
_OUTCOME_DIR = "outcomes"  # under the cache directory: one outcome record per pool
_OUTCOME_FORMAT = "sqlvote-outcomes-1"  # change it when a record's meaning changes
_DIGEST_DIR = "databases"  # under the cache directory: one digest record per database file
_DIGEST_FORMAT = "sqlvote-db-digest-1"  # a record: [format, *execution.db_signature, sha256]
_SETTLE_NS = 2 * 10**9  # only a file unchanged this long before hashing gets a digest record


@dataclass(frozen=True)
class ModelArm:
    """One (model, design, shots) configuration contributing candidates."""

    model_id: str
    design: PromptDesignId
    shots: int = 0
    samples: int = DEFAULT_SAMPLES
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be >= 1")

    def describe(self) -> dict:
        return {
            "model": self.model_id,
            "design": self.design.value,
            "shots": self.shots,
            "samples": self.samples,
            "temperature": self.temperature,
        }


@dataclass(frozen=True)
class Completion:
    text: str
    arm: ModelArm
    sample_index: int
    from_cache: bool = False
    failed: bool = False


class GenerationBackend(Protocol):
    def generate(self, prompt: str, indexes: list[int], temperature: float, seed: int) -> list[str]:
        """Return one completion string per sample index, in the order of `indexes`."""
        ...


class ScriptedBackend:
    """Deterministic replay backend: completions keyed by prompt content hash."""

    def __init__(self, completions_by_hash: dict[str, list[str]]):
        self._table = {k: list(v) for k, v in completions_by_hash.items()}

    @classmethod
    def from_dir(cls, path: Path | str) -> "ScriptedBackend":
        """Load fixture records {"prompt_hash": ..., "completions": [...]} from *.json files."""
        table: dict[str, list[str]] = {}
        for record_path in sorted(Path(path).glob("*.json")):
            record = json.loads(record_path.read_text(encoding="utf-8"))
            table[record["prompt_hash"]] = list(record["completions"])
        return cls(table)

    def generate(self, prompt: str, indexes: list[int], temperature: float, seed: int) -> list[str]:
        scripted = self._table.get(content_hash_of(prompt))
        if not scripted:
            raise BackendError(f"no scripted completions for prompt hash {content_hash_of(prompt)[:12]}")
        return [scripted[i % len(scripted)] for i in indexes]


class _NoRedirects(HTTPRedirectHandler):
    def redirect_request(self, *args):  # a 3xx is then an HTTPError: following it would send the token on
        return None


class RemoteBackend:
    """HTTP completion backend speaking the POST-JSON wire contract."""

    def __init__(
        self,
        endpoint: str,
        auth_token_env: str,
        request_timeout: float = 60.0,
        model: str | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.endpoint = endpoint
        self.auth_token_env = auth_token_env
        self.request_timeout = request_timeout
        self.model = model
        self._sleep = sleep

    def _headers(self) -> dict:
        headers = {"Content-Type": "application/json"}
        token = os.environ.get(self.auth_token_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        return headers

    def generate(self, prompt: str, indexes: list[int], temperature: float, seed: int) -> list[str]:
        n = len(indexes)  # the wire contract asks for a count; the gateway caches them by index
        payload = {
            "model": self.model or "",
            "prompt": prompt,
            "n": n,
            "temperature": temperature,
            "stop": list(DEFAULT_STOP),
        }
        last_error = "no attempt made"
        last_status: int | None = None
        for attempt in range(_RETRY_ATTEMPTS):
            if attempt:
                self._sleep(_RETRY_BASE_DELAY * 2 ** (attempt - 1))
            # both built each attempt: a proxy handler reads the proxy variables once and rewrites the Request
            request = Request(self.endpoint, json.dumps(payload).encode(), self._headers(), method="POST")
            try:
                try:
                    with build_opener(_NoRedirects).open(request, timeout=self.request_timeout) as response:
                        status, body = response.status, response.read()
                except HTTPError as exc:  # an error status is a reply, not a transport failure
                    with exc:
                        status, body = exc.code, exc.read()
            except (OSError, HTTPException) as exc:  # URLError, a timeout, IncompleteRead
                last_error, last_status = str(exc), None
                continue
            if status != 200:
                text = body.decode("utf-8", "replace")[:200]
                if status == 429 or status >= 500:
                    last_error, last_status = text, status
                    continue
                raise BackendError(text, status)
            try:
                completions = json.loads(body)["completions"]
            except (ValueError, KeyError, TypeError, RecursionError) as exc:  # no object; nested too deep
                raise BackendError(f"bad response body: {exc}", status) from exc
            if not isinstance(completions, list) or len(completions) < n:
                raise BackendError("short response", status)
            if not all(isinstance(c, str) for c in completions):
                raise BackendError("bad response body: a completion is not a string", status)
            return completions[:n]
        raise BackendError(last_error, last_status)


@dataclass
class Gateway:
    """Routes sampling to registered backends; persists completions, pool outcomes and digests."""

    cache_dir: Path | None = None
    _backends: dict[str, GenerationBackend] = field(default_factory=dict)
    _turn: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)
    _holder: int | None = field(default=None, repr=False, compare=False)  # the thread holding _turn

    @contextmanager
    def turn(self):
        """Run the body as the one worker executing Python, outside its `_blocking` sections."""
        with self._turn:
            self._holder = threading.get_ident()
            try:
                yield
            finally:
                self._holder = None

    @contextmanager
    def _blocking(self):
        """Let go of the turn, if this thread holds it, while the body blocks; never under another lock."""
        if self._holder != threading.get_ident():
            yield
            return
        self._holder = None
        self._turn.release()
        try:
            yield
        finally:
            self._turn.acquire()
            self._holder = threading.get_ident()

    def register_backend(self, model_id: str, backend: GenerationBackend) -> None:
        if model_id in self._backends:
            raise DuplicateModelId(model_id)
        self._backends[model_id] = backend

    def _entry_dir(self, arm: ModelArm, prompt: RenderedPrompt, seed: int) -> str | None:
        if self.cache_dir is None:
            return None
        return os.path.join(
            self.cache_dir, arm.model_id, prompt.content_hash, format(arm.temperature, "g"), str(seed)
        )

    def sample(self, arm: ModelArm, prompt: RenderedPrompt, seed: int) -> list[Completion]:
        """Exactly arm.samples completions, cache first, placeholders on failure."""
        backend = self._backends.get(arm.model_id)
        if backend is None:
            raise BackendUnavailable(arm.model_id)

        entries = self._entry_dir(arm, prompt, seed)
        results: list[Completion | None] = [None] * arm.samples
        missing: list[int] = []
        for i in range(arm.samples):
            text = None if entries is None else _read_entry(os.path.join(entries, f"{i}.txt"))
            if text is None:
                missing.append(i)
            else:
                results[i] = Completion(text, arm, i, from_cache=True)

        if missing:
            try:
                with self._blocking():
                    texts = backend.generate(prompt.text, missing, arm.temperature, seed)
            except BackendError as exc:
                for i in missing:
                    results[i] = Completion(str(exc), arm, i, failed=True)
            else:
                for i in missing[len(texts):]:  # a short reply: never cache text it did not return
                    results[i] = Completion(
                        f"backend returned {len(texts)} of {len(missing)} completions", arm, i, failed=True
                    )
                writes: list[tuple[str, bytes]] = []
                for i, text in zip(missing, texts):
                    try:
                        data = text.encode("utf-8")
                    except UnicodeEncodeError as exc:  # a lone surrogate: no file or statement holds it
                        detail = f"backend returned text that does not encode as UTF-8: {exc.reason}"
                        results[i] = Completion(detail, arm, i, failed=True)
                        continue
                    results[i] = Completion(text, arm, i)
                    if entries is not None:
                        writes.append((os.path.join(entries, f"{i}.txt"), data))
                if writes:
                    with self._blocking():
                        os.makedirs(entries, exist_ok=True)
                        for path, data in writes:
                            _publish(path, data)
        return [c for c in results if c is not None]

    def outcomes(
        self,
        db_path: Path,
        timeout: float,
        statements: Collection[str],
        execute_all: Callable[[], dict[str, KeyOrError]],
    ) -> dict[str, KeyOrError]:
        """Each statement's key or error on the database, from its record or from `execute_all`.

        Without a cache this is `execute_all()`. Otherwise the pool's record
        is read; on a miss `execute_all()` runs and its result is recorded.
        A record that does not decode to exactly these statements' outcomes
        is a miss, and is rewritten. The database file's digest comes from
        its digest record (see `_db_digest`); a file that cannot be read
        raises DbUnreadable.
        """
        if self.cache_dir is None:
            with self._blocking():
                return execute_all()
        identity = json.dumps(
            [_OUTCOME_FORMAT, sqlite3.sqlite_version, self._db_digest(db_path), repr(timeout),
             sorted(statements)]
        )
        path = os.path.join(
            self.cache_dir, _OUTCOME_DIR, hashlib.sha256(identity.encode("ascii")).hexdigest() + ".json"
        )
        try:
            with open(path, "rb") as handle:
                recorded = _decode_outcomes(handle.read(), statements)
        except FileNotFoundError:
            recorded = None
        if recorded is not None:
            return recorded
        with self._blocking():
            outcomes = execute_all()
            os.makedirs(os.path.dirname(path), exist_ok=True)
            _publish(path, _encode_outcomes(outcomes).encode("utf-8"))
        return outcomes

    def _db_digest(self, db_path: Path) -> str:
        """SHA-256 of the file's bytes, from its digest record while the file's signature holds.

        A missing, malformed or outdated record is a miss: the file is
        hashed, and the record is rewritten if the file is settled (see the
        module docstring). Two threads may both hash a file on a miss; they
        write the same record.
        """
        signature = db_signature(db_path)
        path = os.path.join(
            self.cache_dir, _DIGEST_DIR,
            hashlib.sha256(os.fsencode(os.path.abspath(db_path))).hexdigest() + ".json",
        )
        try:
            with open(path, "rb") as handle:
                tag, *recorded, digest = json.loads(handle.read())
            if [tag, *recorded] == [_DIGEST_FORMAT, *signature] and isinstance(digest, str):
                return digest
        except (FileNotFoundError, TypeError, ValueError):  # not UTF-8, not JSON, not a list
            pass
        started = time.time_ns()
        with self._blocking():  # a large file would otherwise hold the turn for seconds
            try:
                with open(db_path, "rb") as handle:
                    digest = hashlib.file_digest(handle, "sha256").hexdigest()
            except OSError as exc:
                raise DbUnreadable(str(db_path), str(exc)) from exc
            last_change = max(signature[3:])  # the later of mtime and ctime
            if last_change < started - _SETTLE_NS and db_signature(db_path) == signature:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                _publish(path, json.dumps([_DIGEST_FORMAT, *signature, digest]).encode("utf-8"))
        return digest


def _read_entry(path: str) -> str | None:
    """A cache entry's text, line endings kept as written; None if there is none or it is not UTF-8."""
    try:
        with open(path, "rb") as handle:
            return handle.read().decode("utf-8")
    except (FileNotFoundError, UnicodeDecodeError):  # a bad entry is sampled again and replaced
        return None


def _encode_outcomes(outcomes: dict[str, KeyOrError]) -> str:
    return json.dumps(
        {
            sql: outcome.key if isinstance(outcome, OutcomeKey)
            else [outcome.error_kind.value, outcome.elapsed, outcome.detail]
            for sql, outcome in outcomes.items()
        }
    )


def _decode_outcomes(data: bytes, statements: Collection[str]) -> dict[str, KeyOrError] | None:
    """The outcomes a record holds, or None unless it holds exactly `statements`, well formed."""
    try:
        recorded = json.loads(data)
        if recorded.keys() != set(statements):
            return None
        outcomes: dict[str, KeyOrError] = {}
        for sql, value in recorded.items():
            if isinstance(value, str):
                outcomes[sql] = OutcomeKey(value)
                continue
            kind, elapsed, detail = value
            if not isinstance(elapsed, float) or not isinstance(detail, str):
                return None
            outcomes[sql] = ExecutionOutcome.error(ErrorKind(kind), elapsed, detail)
        return outcomes
    except (AttributeError, TypeError, ValueError):  # not JSON, not a mapping, a bad entry
        return None


def _publish(path: str, data: bytes) -> None:
    """Write `data` to a temp file of its own beside `path`, then rename it into place.

    Each write has its own random temp name, so writers in other threads or
    processes sharing the cache never rename or truncate each other's file.
    """
    tmp = f"{path}.{os.urandom(16).hex()}{_TEMP_SUFFIX}"
    try:
        with open(tmp, "xb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def cache_stats(cache_dir: Path | str) -> tuple[int, int]:
    """(entry count, total bytes) over all cached completion files."""
    entries = 0
    total = 0
    root = Path(cache_dir)
    if root.is_dir():
        for path in root.rglob("*.txt"):
            entries += 1
            total += path.stat().st_size
    return entries, total


def cache_clear(cache_dir: Path | str) -> int:
    """Remove all completion entries, outcome and digest records, and stray temp files.

    Returns how many completion entries were deleted.
    """
    removed = 0
    root = Path(cache_dir)
    if not root.is_dir():
        return 0
    for path in sorted(root.rglob("*.txt"), reverse=True):
        path.unlink()
        removed += 1
    for path in [*(root / _OUTCOME_DIR).glob("*.json"), *(root / _DIGEST_DIR).glob("*.json")]:
        path.unlink()
    for path in list(root.rglob("*" + _TEMP_SUFFIX)):  # left by a writer that was killed
        path.unlink()
    for path in sorted((p for p in root.rglob("*") if p.is_dir()), reverse=True):
        try:
            path.rmdir()
        except OSError:
            pass
    return removed
