"""Completion sampling across pluggable backends, with an on-disk cache.

Each arm draws `samples` i.i.d. completions for one rendered prompt. The
cache is content-addressed by (model, prompt hash, temperature, seed, index)
so recorded runs replay byte-identically and repeat runs cost nothing. An
entry is `<model>/<prompt hash>_<temperature>_<seed>_<index>.txt`, the model
id percent-encoded into one directory and the temperature in its shortest
exact form (`0.5`, `-0.0` as `0`, `1.0` as `1`): a sampling call makes no
directory, and no other part holds a `_`, so no two keys share a name. Each
distinct text is stored once for the whole cache, at `texts/<SHA-256 of its
UTF-8 bytes>`, and every entry holding it is a hard link of that file (see
`_link_entries`), so an entry is replaced by rename, never edited in place.

The cache also keeps voting's pool records, at `pools/<digest>.json`
(`Gateway.pool_record`; see `voting`), and one digest record per database
file, `databases/<SHA-256 of its absolute path>.json`, which gives the
file's SHA-256 while its stat (`execution.db_signature`) equals the recorded
one, so a warm run reads no database bytes. A miss hashes the file, and
records it only if its stat held while it was hashed and it had last changed
more than _SETTLE_NS before: any later write moves its ctime (git's "racily
clean" rule). Like make and git, this trusts the file system's timestamps.
A `Gateway` remembers the digest of each record it read or wrote while the
file's stat still equals the record's, so a run reads each record once; a
file it did not record is hashed on every call. `cache clear` drops the
records with the completions.

Workers take turns (`Gateway.turn`) to run Python, and let go of the turn only
while they block without the interpreter (`blocking`): backend calls, cache
writes, hashing or opening a database, and a statement's long first step. Only
the holder fetches rows, so one result set at a time is in memory.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from http.client import HTTPException
from pathlib import Path
from typing import Callable, Protocol
from urllib.error import HTTPError
from urllib.parse import quote
from urllib.request import HTTPRedirectHandler, Request, build_opener

from .errors import BackendError, BackendUnavailable, ConfigError, DbUnreadable, DuplicateModelId
from .execution import db_signature
from .prompts import PromptDesignId, RenderedPrompt, content_hash_of

DEFAULT_SAMPLES = 32
DEFAULT_TEMPERATURE = 0.5
DEFAULT_STOP = (";", "\n\n")  # sent with every remote request; a constant, so not a cache key part
_RETRY_ATTEMPTS = 3
_RETRY_BASE_DELAY = 1.0
_TEMP_SUFFIX = ".tmp"  # a write in progress; never read as an entry
_POOL_DIR = "pools"  # under the cache directory: one record per pool, keyed by the pool's inputs
_DIGEST_DIR = "databases"  # under the cache directory: one digest record per database file
_DIGEST_FORMAT = "sqlvote-db-digest-1"  # a record: [format, *execution.db_signature, sha256]
_SETTLE_NS = 2 * 10**9  # only a file unchanged this long before hashing gets a digest record
_TEXT_DIR = "texts"  # under the cache directory: one file per distinct completion text, named by its SHA-256
_HASH = "[0-9a-f]{64}"
# What the cache writes, by path under its directory: a completion entry (flat, or
# nested as earlier versions wrote it), a pool, digest or text file, and their temp names.
_CACHE_FILE = re.compile(
    rf"(?:(?P<entry>[^/]+/{_HASH}(?:_[^_/]+_-?[0-9]+_|/[^/]+/[^/]+/)[0-9]+\.txt)"
    rf"|(?:{_POOL_DIR}|{_DIGEST_DIR})/{_HASH}\.json|{_TEXT_DIR}/{_HASH})"
    rf"(?P<temp>\.[0-9a-f]{{32}}{re.escape(_TEMP_SUFFIX)})?"
)


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
        object.__setattr__(self, "temperature", float(self.temperature) + 0.0)  # in keys, 1 is 1.0, -0.0 is 0.0
        if self.model_id in ("", ".", ".."):  # each would name no cache directory of its own
            raise ValueError(f"model id must not be {self.model_id!r}")

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
            try:
                record = json.loads(record_path.read_text(encoding="utf-8"))
                completions = record["completions"]
                if type(completions) is not list or set(map(type, completions)) - {str}:
                    raise TypeError("completions is not a list of strings")
                table[record["prompt_hash"]] = completions
            except (KeyError, TypeError, ValueError, RecursionError) as exc:  # not JSON, not such a record
                raise ConfigError(f"bad scripted record {record_path}: {type(exc).__name__}: {exc}") from exc
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
    """Routes sampling to registered backends; persists completions, pool records and digests."""

    cache_dir: Path | None = None
    _backends: dict[str, GenerationBackend] = field(default_factory=dict)
    _turn: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)
    _holder: int | None = field(default=None, repr=False, compare=False)  # the thread holding _turn
    _digests: dict = field(default_factory=dict, repr=False, compare=False)  # record path -> (signature, digest)

    @contextmanager
    def turn(self):
        """Run the body as the one worker executing Python, outside its `blocking` sections."""
        with self._turn:
            self._holder = threading.get_ident()
            try:
                yield
            finally:
                self._holder = None

    @contextmanager
    def blocking(self):
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

    def _entry_prefix(self, arm: ModelArm, prompt: RenderedPrompt, seed: int) -> str | None:
        if self.cache_dir is None:
            return None
        model_dir = quote(arm.model_id, safe="")  # one path component: "/" and "%" are encoded
        temperature = repr(arm.temperature).removesuffix(".0")  # exact; 1.0 as :g wrote it
        return os.path.join(self.cache_dir, model_dir, f"{prompt.content_hash}_{temperature}_{seed}_")

    def sample(self, arm: ModelArm, prompt: RenderedPrompt, seed: int) -> list[Completion]:
        """Exactly arm.samples completions, cache first, placeholders on failure."""
        backend = self._backends.get(arm.model_id)
        if backend is None:
            raise BackendUnavailable(arm.model_id)

        prefix = self._entry_prefix(arm, prompt, seed)
        results: list[Completion | None] = [None] * arm.samples
        missing: list[int] = []
        for i in range(arm.samples):
            text = None if prefix is None else _read_entry(f"{prefix}{i}.txt")
            if text is None:
                missing.append(i)
            else:
                results[i] = Completion(text, arm, i, from_cache=True)

        if missing:
            try:
                with self.blocking():
                    texts = backend.generate(prompt.text, missing, arm.temperature, seed)
            except BackendError as exc:
                for i in missing:
                    results[i] = Completion(str(exc), arm, i, failed=True)
            else:
                for i in missing[len(texts):]:  # a short reply: never cache text it did not return
                    results[i] = Completion(
                        f"backend returned {len(texts)} of {len(missing)} completions", arm, i, failed=True
                    )
                writes: dict[bytes, list[str]] = {}  # each distinct text is written once, its repeats linked
                for i, text in zip(missing, texts):
                    try:
                        data = text.encode("utf-8")
                    except UnicodeEncodeError as exc:  # a lone surrogate: no file or statement holds it
                        detail = f"backend returned text that does not encode as UTF-8: {exc.reason}"
                        results[i] = Completion(detail, arm, i, failed=True)
                        continue
                    results[i] = Completion(text, arm, i)
                    if prefix is not None:
                        writes.setdefault(data, []).append(f"{prefix}{i}.txt")
                if writes:
                    text_dir = os.path.join(self.cache_dir, _TEXT_DIR)
                    with self.blocking():
                        os.makedirs(os.path.dirname(prefix), exist_ok=True)
                        os.makedirs(text_dir, exist_ok=True)
                        for data, paths in writes.items():
                            _link_entries(os.path.join(text_dir, hashlib.sha256(data).hexdigest()), paths, data)
        return [c for c in results if c is not None]

    def pool_record(self, db_path: Path, key: list) -> tuple[str, bytes | None] | None:
        """A pool record's path and bytes (None if it has none), or None without a cache.

        The name covers the SQLite version, the SHA-256 of the database
        file's bytes (see `_db_digest`) and `key`. A file that cannot be read
        raises DbUnreadable.
        """
        if self.cache_dir is None:
            return None
        identity = json.dumps([sqlite3.sqlite_version, self._db_digest(db_path), key]).encode("ascii")
        path = os.path.join(self.cache_dir, _POOL_DIR, hashlib.sha256(identity).hexdigest() + ".json")
        try:
            with open(path, "rb") as handle:
                return path, handle.read()
        except FileNotFoundError:
            return path, None

    def store(self, path: str, data: bytes) -> None:
        """Give the cache file `path` the bytes `data` (see `_publish`), the turn let go meanwhile."""
        with self.blocking():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            _publish(path, data)

    def _db_digest(self, db_path: Path) -> str:
        """SHA-256 of the file's bytes, from its digest record while the file's signature holds.

        The record is read once while the signature holds (see the module
        docstring). A missing, malformed or outdated record is a miss: the
        file is hashed, and the record is rewritten if the file is settled.
        Two threads may both hash a file on a miss; they write the same record.
        """
        signature = db_signature(db_path)
        path = os.path.join(
            self.cache_dir, _DIGEST_DIR,
            hashlib.sha256(os.fsencode(os.path.abspath(db_path))).hexdigest() + ".json",
        )
        if (remembered := self._digests.get(path)) and remembered[0] == signature:
            return remembered[1]
        try:
            with open(path, "rb") as handle:
                tag, *recorded, digest = json.loads(handle.read())
            if [tag, *recorded] == [_DIGEST_FORMAT, *signature] and isinstance(digest, str):
                self._digests[path] = signature, digest
                return digest
        except (FileNotFoundError, TypeError, ValueError, RecursionError):  # not UTF-8, JSON or a list
            pass
        started = time.time_ns()
        with self.blocking():  # a large file would otherwise hold the turn for seconds
            try:
                with open(db_path, "rb") as handle:
                    digest = hashlib.file_digest(handle, "sha256").hexdigest()
            except OSError as exc:
                raise DbUnreadable(str(db_path), str(exc)) from exc
            last_change = max(signature[3:])  # the later of mtime and ctime
            if last_change < started - _SETTLE_NS and db_signature(db_path) == signature:
                self.store(path, json.dumps([_DIGEST_FORMAT, *signature, digest]).encode("utf-8"))
                self._digests[path] = signature, digest
        return digest


def _read_entry(path: str) -> str | None:
    """A cache file's text, line endings kept as written; None if there is none or it is not UTF-8."""
    try:
        with open(path, "rb") as handle:
            return handle.read().decode("utf-8")
    except (FileNotFoundError, UnicodeDecodeError):  # a bad entry is sampled again and replaced
        return None


def _publish(path: str, data: bytes, text: str | None = None) -> None:
    """Give `path` the bytes `data` whole or not at all: a temp name of its own (a link of `text`, if any), renamed."""
    tmp = f"{path}.{os.urandom(16).hex()}{_TEMP_SUFFIX}"
    try:
        try:
            if text is None:
                raise FileNotFoundError("no file to link")
            os.link(text, tmp)
        except OSError:  # no hard links, too many links, or the text file was cleared meanwhile
            with open(tmp, "xb") as handle:
                handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    if text is not None:  # a rename onto another link of the same file does nothing, and keeps the temp
        Path(tmp).unlink(missing_ok=True)


def _link_entries(text: str, paths: list[str], data: bytes) -> None:
    """Make each entry in `paths` a hard link of the text file `text`, linked straight to its name.

    The text file is read back first and published again unless it holds
    `data`, so an in-place edit is never linked. A name that is taken (a
    spoiled entry, or another writer's) is replaced by rename through
    `_publish`, and an entry is written on its own when it cannot be linked.
    """
    if _read_entry(text) != data.decode("utf-8"):  # missing, or edited in place
        _publish(text, data)
    for path in paths:
        try:
            os.link(text, path)
        except FileExistsError:
            _publish(path, data, text)
        except OSError:  # no hard links, too many links, or the text file was cleared meanwhile
            _publish(path, data)


def _cache_files(root: Path) -> list[tuple[Path, bool]]:
    """Each file under `root` named as the cache names its files, and whether it is a completion entry."""
    found = []
    for directory, _, names in os.walk(root):
        for name in names:
            path = Path(directory, name)
            if match := _CACHE_FILE.fullmatch(path.relative_to(root).as_posix()):
                found.append((path, bool(match["entry"]) and not match["temp"]))
    return found


def cache_stats(cache_dir: Path | str) -> tuple[int, int]:
    """(entry count, total bytes) over all completion entries; each entry counts its size, linked or not."""
    sizes = [path.stat().st_size for path, entry in _cache_files(Path(cache_dir)) if entry]
    return len(sizes), sum(sizes)


def cache_clear(cache_dir: Path | str) -> int:
    """Remove the files the cache writes, a killed writer's temp files included, then the directories
    that leaves empty; nothing else. Returns how many completion entries were deleted."""
    root = Path(cache_dir)
    files = _cache_files(root)
    emptied: set[Path] = set()
    for path, _ in files:
        path.unlink()
        emptied.update(path.relative_to(root).parents[:-1])
    for directory in sorted(emptied, key=lambda d: len(d.parts), reverse=True):
        try:
            (root / directory).rmdir()
        except OSError:  # it still holds a file the cache did not write
            pass
    return sum(entry for _, entry in files)
