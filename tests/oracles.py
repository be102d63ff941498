"""Independent reference implementations used as test oracles.

Everything here is deliberately written without touching the package
internals it checks: brute-force, quadratic, or Decimal-based versions of
the same contracts. The eager test-suite references at the end are the one
exception: they compose the package's own suite generator and EX.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import random
import re
import string
from contextlib import closing
from dataclasses import replace
from decimal import ROUND_HALF_EVEN, Decimal

from sqlvote import evaluation, execution
from sqlvote.errors import GoldExecutionFailed


def lcs_ratio(question: str, value: str) -> float:
    """Quadratic longest-common-contiguous-substring ratio, lowercased."""
    a = question.lower()
    b = value.lower()
    if not a or not b:
        return 0.0
    best = 0
    # dp[j] = length of common suffix ending at a[i], b[j]
    previous = [0] * (len(b) + 1)
    for i in range(1, len(a) + 1):
        current = [0] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                current[j] = previous[j - 1] + 1
                best = max(best, current[j])
        previous = current
    return best / len(b)


def scan_matches(question: str, db_values: dict, threshold: float) -> set[tuple[str, str, str]]:
    """Brute-force scan: every (table, column, value) whose ratio clears threshold.

    `db_values` maps (table, column) -> iterable of text cell values.
    """
    hits = set()
    for (table, column), values in db_values.items():
        for value in values:
            if value and lcs_ratio(question, value) >= threshold:
                hits.add((table, column, value))
    return hits


def normalize_rows(rows, order_sensitive: bool) -> tuple:
    """Decimal-based row normalization, independent of the package's hashing."""

    def scalar(v):
        if v is None:
            return ("null",)
        if isinstance(v, bool):
            v = int(v)
        if isinstance(v, (int, float)):
            quantized = Decimal(repr(float(v))).quantize(Decimal("0.000001"), ROUND_HALF_EVEN)
            if quantized == 0:
                quantized = Decimal("0.000000")
            return ("num", str(quantized))
        if isinstance(v, bytes):
            return ("blob", v)
        return ("text", v)

    normalized = [tuple(scalar(v) for v in row) for row in rows]
    if not order_sensitive:
        normalized.sort()
    return tuple(normalized)


def _canonical_scalar(value) -> object:
    if value is None:
        return None
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, (int, float)):
        v = float(value)
        if not math.isfinite(v):
            return f"n:{v}"
        v = round(v, 6)
        if v == 0:
            v = 0.0
        return f"n:{v:.6f}"
    if isinstance(value, bytes):
        return f"b:{value.hex()}"
    return f"t:{value}"


def canonical_digest(rows, order_sensitive: bool) -> str:
    """A row at a time: the serialization `sqlvote.execution.canonical_key` must reproduce.

    Each row is the compact JSON list of its canonical scalars; the digest is
    the SHA-256 of those lines, sorted unless order matters.
    """
    serialized = [
        json.dumps([_canonical_scalar(v) for v in row], ensure_ascii=False, separators=(",", ":"))
        for row in rows
    ]
    if not order_sensitive:
        serialized.sort()
    return hashlib.sha256("\n".join(serialized).encode("utf-8")).hexdigest()


def rows_equal(rows_a, rows_b, order_sensitive: bool) -> bool:
    return normalize_rows(rows_a, order_sensitive) == normalize_rows(rows_b, order_sensitive)


def majority_select(entries: list[tuple[int, object, bool]]):
    """O(n^2) pairwise-equality majority vote.

    `entries` holds (pool_position, rows, is_error); rows compare as
    multisets after normalization. Returns (winner_position, group_count,
    tie_broken) or (None, 0, False) when everything is filtered.
    """
    valid = [(pos, rows) for pos, rows, is_error in entries if not is_error]
    if not valid:
        return None, 0, False

    assigned: list[int] = [-1] * len(valid)
    groups: list[list[int]] = []
    for i, (_, rows_i) in enumerate(valid):
        if assigned[i] != -1:
            continue
        group = [i]
        assigned[i] = len(groups)
        for j in range(i + 1, len(valid)):
            if assigned[j] == -1 and rows_equal(rows_i, valid[j][1], order_sensitive=False):
                group.append(j)
                assigned[j] = len(groups)
        groups.append(group)

    best = max(len(g) for g in groups)
    leaders = [g for g in groups if len(g) == best]
    winner_group = min(leaders, key=lambda g: min(valid[i][0] for i in g))
    winner_position = min(valid[i][0] for i in winner_group)
    return winner_position, best, len(leaders) > 1


# --- reference SQL scanners ------------------------------------------------------
# A character loop for `;` cuts and top-level ORDER BY, and a regex for the
# first word after leading comments: two separate encodings of the lexical
# rules that `sqlvote.execution` reads with one tokenizer.

WRITE_VERBS = frozenset(
    "insert update delete replace drop create alter vacuum reindex attach detach "
    "pragma analyze begin commit rollback savepoint release end".split()
)
# the first run of ASCII letters after leading whitespace, comments and `;`
FIRST_WORD = re.compile(r"(?:\s|;|--[^\n]*(?:\n|$)|/\*(?:[^*]|\*(?!/))*(?:\*/|$))*([A-Za-z]+)")


def scan_unquoted(sql: str):
    """Yield (index, char, depth) for chars outside literals, quoted identifiers and comments."""
    depth = 0
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch in "'\"`":
            quote = ch
            i += 1
            while i < n:
                if sql[i] == quote:
                    if i + 1 < n and sql[i + 1] == quote:  # doubled-quote escape
                        i += 2
                        continue
                    break
                i += 1
            i += 1
            continue
        if ch == "[":
            end = sql.find("]", i + 1)
            i = n if end == -1 else end + 1
            continue
        if ch == "-" and sql.startswith("-", i + 1):
            end = sql.find("\n", i + 2)
            i = n if end == -1 else end
            continue
        if ch == "/" and sql.startswith("*", i + 1):
            end = sql.find("*/", i + 2)
            i = n if end == -1 else end + 2
            continue
        if ch == "(":
            yield i, ch, depth
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
            yield i, ch, depth
        else:
            yield i, ch, depth
        i += 1


def _leading_word(text: str) -> str:
    """The word characters that open `text` once leading whitespace and comments are dropped."""
    while True:
        text = text.lstrip()
        if text.startswith("--"):
            text = text.partition("\n")[2]
        elif text.startswith("/*"):
            end = text.find("*/", 2)
            text = "" if end == -1 else text[end + 2:]
        else:
            word = ""
            for ch in text:
                if not (ch.isalnum() or ch == "_"):
                    break
                word += ch
            return word


def extract_sql(completion_text: str, prefix_select: bool = False) -> str:
    """Fence stripping, then a cut at the first unquoted, uncommented `;`.

    The baseline prefix is added unless the first word after comments is `select`.
    """
    text = completion_text
    if "```" in text:
        start = text.index("```") + 3
        end = text.find("```", start)
        body = text[start:] if end == -1 else text[start:end]
        first_line, _, rest = body.partition("\n")
        if first_line.strip().isalpha():
            body = rest
        text = body
    text = text.strip()
    for i, ch, _ in scan_unquoted(text):
        if ch == ";":
            text = text[:i].strip()
            break
    if not text:
        return ""
    if prefix_select and _leading_word(text).lower() != "select":
        text = "SELECT " + text
    return text


def is_order_sensitive(sql: str) -> bool:
    """Blank everything but top-level code, then search for ORDER BY."""
    top = [" "] * len(sql)
    for i, ch, depth in scan_unquoted(sql):
        if depth == 0 and ch not in "()":
            top[i] = ch
    return re.search(r"\border\s+by\b", "".join(top), re.IGNORECASE) is not None


# --- reference suite rows ----------------------------------------------------------
# The per-cell row loop that `sqlvote.evaluation.generate_suite_db` replaced
# with a draw fixed per column: every cell re-reads its column's kind and, for
# a fresh NUMBER value, rebuilds the observed numeric list. Same RNG, same
# draws, same order.


def _random_word(rng: random.Random) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 8)))


def _random_value(rng: random.Random, col_type: str, observed: list):
    if col_type == "number":
        numeric = [v for v in observed if isinstance(v, (int, float))]
        if numeric:
            low, high = min(numeric), max(numeric)
            return rng.randint(int(low), max(int(low), int(high)))
        return rng.randint(-1000, 1000)
    if col_type == "time":
        day = datetime.date(1990, 1, 1) + datetime.timedelta(days=rng.randint(0, 14975))
        return day.isoformat()
    if col_type == "boolean":
        return rng.randint(0, 1)
    return " ".join(_random_word(rng) for _ in range(rng.randint(1, 3)))


def suite_rows(catalog, spec, suite_index: int, observed: dict, order: list[int], dropped: set):
    """(table name, rows) in insertion order, drawn a cell at a time.

    `order` is the parent-first table order and `dropped` the foreign keys
    the generator leaves unenforced; `observed` maps (table, column) to the
    original column's distinct values.
    """
    rng = random.Random(f"{catalog.db_id}/{spec.seed}/{suite_index}")
    generated: dict[int, list[tuple]] = {}
    written = []
    for t in order:
        table = catalog.tables[t]
        pk_indices = [c for (pt, c) in catalog.primary_keys if pt == t]
        fk_of = {}
        for fk in catalog.foreign_keys:
            (child_t, child_c), (parent_t, parent_c) = fk
            if child_t == t and fk not in dropped:
                fk_of[child_c] = (parent_t, parent_c)
        parent_pool = {
            c: sorted(
                {row[parent_c] for row in generated.get(parent_t, ()) if row[parent_c] is not None},
                key=repr,
            )
            for c, (parent_t, parent_c) in fk_of.items()
        }
        rows: list[tuple] = []
        pk_seen: set[tuple] = set()
        attempts = 0
        while len(rows) < spec.rows_per_table and attempts < spec.rows_per_table * 20:
            attempts += 1
            row = []
            for c, col in enumerate(table.columns):
                if c in fk_of:
                    pool = parent_pool[c]
                    row.append(rng.choice(pool) if pool else None)
                elif c in pk_indices and col.data_type.value == "number":
                    row.append(rng.randint(1, max(1000, spec.rows_per_table * 20)))
                else:
                    source = observed[(t, c)]
                    if source and rng.random() < 0.5:
                        row.append(rng.choice(source))
                    else:
                        row.append(_random_value(rng, col.data_type.value, source))
            if pk_indices:
                pk_tuple = tuple(row[c] for c in pk_indices)
                if pk_tuple in pk_seen or None in pk_tuple:
                    continue
                pk_seen.add(pk_tuple)
            rows.append(tuple(row))
        generated[t] = rows
        written.append((table.name, rows))
    return written


# --- eager test-suite references ---------------------------------------------------
# Every suite built up front, each on its own: `sqlvote.evaluation` must give
# the same suite bytes and the same TS while it builds a suite only when a
# score first reaches it.


def suite_db(catalog, spec, k: int, out_dir):
    """Suite k of `catalog`, with its observed values read on a connection of its own."""
    with closing(execution.connect_readonly(catalog)) as conn:
        observed = evaluation._observed_values(catalog, conn)
    return evaluation.generate_suite_db(catalog, spec, k, out_dir, observed=observed)


def ts_match(pred_sql: str, gold_sql: str, catalog, spec, suite_dir) -> bool:
    """EX on the original database, then on every suite, all built up front.

    A gold failing on a suite skips that suite; failing on the original raises.
    """
    if not evaluation.exec_match(pred_sql, gold_sql, catalog):
        return False
    suites = [
        replace(catalog, db_path=suite_db(catalog, spec, k, suite_dir)) for k in range(1, spec.suite_count + 1)
    ]
    for suite in suites:
        try:
            if not evaluation.exec_match(pred_sql, gold_sql, suite):
                return False
        except GoldExecutionFailed:
            continue
    return True
