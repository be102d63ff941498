"""Outside-in spans for one sqlvote process, and the per-layer metrics they give.

`install` replaces the public functions that `cli`, `voting` and `evaluation`
call with timing wrappers, at the module attributes those callers look up, so
no file under `src/` changes. A span is `(id, name, start, end, parent,
question id, attrs)`; the parent is the innermost open span of the same
thread, and spans under `run_question` carry its example id. Spans stay in
memory until the process writes them out.

Span durations are wall time of the calling thread. With `fan_out: 2` they
include time spent waiting for the interpreter lock while the other worker
runs, so busy times of one phase can add up to more than its wall time.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time


class Recorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str, describe=None, question=False) -> None:
        """Time every call of `owner.attr`; `describe(args, result)` adds attrs."""
        original = getattr(owner, attr)
        local = self._local
        spans = self.spans
        ids = self._ids

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            outer_qid = local.__dict__.get("qid")
            qid = args[0].example_id if question else outer_qid
            local.qid = qid
            span_id = next(ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                spans.append((span_id, name, start, time.perf_counter(), parent, qid,
                              {"error": type(exc).__name__}))
                raise
            finally:
                stack.pop()
                local.qid = outer_qid
            end = time.perf_counter()
            spans.append((span_id, name, start, end, parent, qid,
                          describe(args, result) if describe else None))
            return result

        setattr(owner, attr, wrapper)


def _sample_attrs(args, completions):
    return {
        "n": len(completions),
        "hits": sum(c.from_cache for c in completions),
        "failed": sum(c.failed for c in completions),
    }


def _execute_attrs(args, outcome):
    if outcome.is_success:
        return {"rows": len(outcome.rows)}
    return {"error": outcome.error_kind.value}


def _select_attrs(args, result):
    pool = args[0]
    counts = sorted(result.tallies.values(), reverse=True) + [0]
    return {
        "total": result.total_candidates,
        "survivors": result.total_candidates - result.filtered_error_count,
        "distinct_sql": len({c.sql for c in pool.candidates}),
        "tie": result.tie_broken,
        "margin": counts[0] - counts[1] if result.tallies else None,
    }


def install(recorder: Recorder, full: bool) -> None:
    """Wrap `cli.run_question` always; with `full`, every layer boundary."""
    from sqlvote import cli, evaluation, gateway, voting

    recorder.wrap(cli, "run_question", "voting.run_question", question=True)
    if not full:
        return
    recorder.wrap(cli, "load_catalogs", "catalog.load_catalogs")
    recorder.wrap(cli, "load_examples", "catalog.load_examples")
    recorder.wrap(cli, "build_gateway", "gateway.build")
    recorder.wrap(cli, "link_values", "linking.link_values", lambda a, r: {"n": len(r)})
    recorder.wrap(cli, "evaluate_file", "evaluation.evaluate_file")
    recorder.wrap(voting, "link_values", "linking.link_values", lambda a, r: {"n": len(r)})
    recorder.wrap(voting, "render", "prompts.render")
    recorder.wrap(gateway.Gateway, "sample", "gateway.sample", _sample_attrs)
    recorder.wrap(voting, "extract_sql", "execution.extract_sql")
    recorder.wrap(voting, "execute", "execution.execute", _execute_attrs)
    recorder.wrap(voting, "select_by_consistency", "voting.select", _select_attrs)
    recorder.wrap(voting, "canonical_key", "execution.canonical_key")
    recorder.wrap(evaluation, "load_examples", "catalog.load_examples")
    recorder.wrap(evaluation, "catalog_from_sqlite", "catalog.from_sqlite")
    recorder.wrap(evaluation, "exec_match", "evaluation.exec_match")
    recorder.wrap(evaluation, "ts_match", "evaluation.ts_match")
    recorder.wrap(evaluation, "generate_suite_db", "evaluation.generate_suite_db")
    recorder.wrap(evaluation, "execute", "execution.execute", _execute_attrs)
    recorder.wrap(evaluation, "canonical_key", "execution.canonical_key")


# --- metrics from recorded spans ------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, `q` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _covered(children: list[tuple], start: float, end: float) -> float:
    """Length of the union of child intervals, clipped to [start, end]."""
    total = 0.0
    reach = start
    for _, _, c_start, c_end, *_ in sorted(children, key=lambda s: s[2]):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            total += c_end - c_start
            reach = c_end
    return total


def _children(spans: list[tuple]) -> dict[int, list[tuple]]:
    by_parent: dict[int, list[tuple]] = {}
    for span in spans:
        if span[4] is not None:
            by_parent.setdefault(span[4], []).append(span)
    return by_parent


def _shift(spans: list[tuple], offset: int) -> list[tuple]:
    return [
        (s[0] + offset, s[1], s[2], s[3], None if s[4] is None else s[4] + offset, *s[5:])
        for s in spans
    ]


def self_seconds(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus the part its child spans cover."""
    kids = _children(spans)
    return {s[0]: (s[3] - s[2]) - _covered(kids.get(s[0], []), s[2], s[3]) for s in spans}


def layer_metrics(
    cold: list[tuple], warm: list[tuple], evaluate: list[tuple], cache_files: int, cache_bytes: int
) -> dict[str, float]:
    """Per-layer numbers of one traced cycle.

    Predict-side numbers cover the cold and the warm phase together; setup
    numbers come from the cold phase; evaluation numbers from `evaluate --ts`.
    Busy times are self times, except `evaluation.exec_match_busy_s`, which
    includes the executions and canonical keys inside each match.
    """
    # span ids restart in every process; shift them apart before combining
    warm, evaluate = _shift(warm, 1 << 40), _shift(evaluate, 2 << 40)
    predict = cold + warm
    own = self_seconds(predict + evaluate)

    def named(spans, name):
        return [s for s in spans if s[1] == name]

    def busy(spans):
        return sum(own[s[0]] for s in spans)

    def ms(spans):
        return [(s[3] - s[2]) * 1000 for s in spans]

    link = named(predict, "linking.link_values")
    render = named(predict, "prompts.render")
    sample = named(predict, "gateway.sample")
    execute = named(predict, "execution.execute")
    select = named(predict, "voting.select")
    questions = named(predict, "voting.run_question")
    errors = [s[6].get("error") for s in execute]
    kids = _children(predict)
    matches = named(evaluate, "evaluation.exec_match")
    suites = named(evaluate, "evaluation.generate_suite_db")
    return {
        "catalog.load_s": busy(named(cold, "catalog.load_catalogs") + named(cold, "catalog.load_examples")),
        "gateway.backend_load_s": busy(named(cold, "gateway.build")),
        "linking.calls": len(link),
        "linking.busy_s": busy(link),
        "linking.call_ms.p50": percentile(ms(link), 50),
        "linking.call_ms.p90": percentile(ms(link), 90),
        "linking.matches": sum(s[6]["n"] for s in link),
        "prompts.render_calls": len(render),
        "prompts.busy_s": busy(render),
        "gateway.sample_calls": len(sample),
        "gateway.busy_s": busy(sample),
        "gateway.cold_busy_s": busy(named(cold, "gateway.sample")),
        "gateway.warm_busy_s": busy(named(warm, "gateway.sample")),
        "gateway.cache_hits": sum(s[6]["hits"] for s in sample),
        "gateway.cache_misses": sum(s[6]["n"] - s[6]["hits"] for s in sample),
        "gateway.failed_completions": sum(s[6]["failed"] for s in sample),
        "gateway.cache_files": cache_files,
        "gateway.cache_bytes": cache_bytes,
        "execution.calls": len(execute),
        "execution.busy_s": busy(execute),
        "execution.call_ms.p50": percentile(ms(execute), 50),
        "execution.call_ms.p99": percentile(ms(execute), 99),
        "execution.extract_busy_s": busy(named(predict, "execution.extract_sql")),
        "execution.canonical_busy_s": busy(named(predict, "execution.canonical_key")),
        "execution.distinct_sql_ratio": statistics.fmean(
            s[6]["distinct_sql"] / s[6]["total"] for s in select
        ),
        "execution.errors.syntax": errors.count("syntax"),
        "execution.errors.runtime": errors.count("runtime"),
        "execution.errors.timeout": errors.count("timeout"),
        "execution.errors.empty_sql": errors.count("empty_sql"),
        "execution.rows_returned": sum(s[6].get("rows", 0) for s in execute),
        "voting.run_question_ms.p50": percentile(ms(questions), 50),
        "voting.run_question_ms.p90": percentile(ms(questions), 90),
        "voting.select_busy_s": busy(select),
        "voting.survivor_ratio": sum(s[6]["survivors"] for s in select) / sum(s[6]["total"] for s in select),
        "voting.tie_breaks": sum(s[6]["tie"] for s in select),
        "voting.all_filtered": sum(s[6]["survivors"] == 0 for s in select),
        "voting.margin.p50": percentile([s[6]["margin"] for s in select if s[6]["margin"] is not None], 50),
        "evaluation.exec_match_calls": len(matches),
        "evaluation.executions": len(named(evaluate, "execution.execute")),
        "evaluation.exec_match_busy_s": sum(s[3] - s[2] for s in matches),
        "evaluation.suite_dbs_generated": len(suites),
        "evaluation.suite_gen_busy_s": busy(suites),
        "trace.coverage": sum(_covered(kids.get(q[0], []), q[2], q[3]) for q in questions)
        / sum(q[3] - q[2] for q in questions),
    }
