"""Offline benchmark for `sqlvote predict` (cold and warm cache) and `evaluate --ts`.

    python3 perfbench/run.py --workload spider-mix --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout. The benchmark generates the workload
from the seed under `.bench_work/`, then repeats cycles while the next one is
expected to end within `--seconds` (at least one). A cycle runs the real command line (`sqlvote.cli.main`) in a
fresh child process per phase: `predict` on an empty cache (cold), `predict`
again on the filled cache (warm) and `evaluate --ts` on the predictions.

`evaluate` scores the workload's evaluation dataset, the questions repeated
a few times (see `workloads.EVAL_COPIES`), with each copy taking its
question's prediction.

With `--trace 0` the run reports the end-to-end metrics, each the median of
its samples over all cycles. With `--trace 1` a cycle first runs one untraced
cold `predict` as the base of `trace.overhead`, then the three phases with
spans at every layer boundary, and the run reports the per-layer metrics (see
`spans.layer_metrics`).

Every phase is checked: predictions equal the generator's designed winners,
cold and warm predictions are byte-identical, per-question EX and TS equal the
designed values, a cold run leaves questions x samples cache entries, and no
database file changes. The last stdout line is one JSON object
`{"correct", "attempted", "failed", "metrics"}`. An operation is one question
(one copy, in `evaluate`) in one phase; it fails when it raised or failed a
check. A changed database file and differing prediction files each count as
one more failure. The exit code is 1 if any check failed, 2 if the checkout
holds no sqlvote sources, 3 if no `python3` on PATH can import them. When the
running interpreter lacks sqlvote's dependencies, the run restarts itself
under another `python3` on PATH (see `choose_interpreter`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PHASE = HERE / "phase.py"
STANDINS = HERE / "standins"  # modules sqlvote imports but the benchmark never uses
RUN_LIMIT_S = 165  # stop starting cycles that would end past this
REEXEC_MARK = "PERFBENCH_REEXEC"  # set when run.py restarted itself under another python3

END_TO_END = {
    "setup_s": "s",
    "predict_cold_qps": "1/s",
    "predict_warm_qps": "1/s",
    "evaluate_ts_qps": "1/s",
    "peak_rss_mb": "MB",
}
# Counts that depend only on the inputs; they must repeat exactly across cycles.
REPEATING = ("voting.tie_breaks", "voting.all_filtered", "voting.margin.p50")


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms." in name:
        return "ms"
    if name.endswith(("ratio", "coverage", "overhead")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


class PhaseFailed(Exception):
    pass


class Run:
    """One benchmark run over one generated workload."""

    def __init__(self, workload, src: Path, started: float):
        self.workload = workload
        self.src = src
        self.started = started
        self.out = workload.root / "out"
        self.expected = workload.expected
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    # --- phases -------------------------------------------------------------

    def phase(self, name: str, trace: bool, command: list[str]) -> dict:
        result_path = self.out / f"{name}.result.json"
        remaining = RUN_LIMIT_S + 10 - (time.monotonic() - self.started)
        with open(self.out / f"{name}.log", "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, str(PHASE), str(result_path), "1" if trace else "0",
                     str(self.src), "--", *command],
                    stdout=log, stderr=subprocess.STDOUT, timeout=max(remaining, 1.0),
                )
            except subprocess.TimeoutExpired as exc:
                raise PhaseFailed(f"{name}: no result within {exc.timeout:.0f} s") from exc
        if proc.returncode != 0 or not result_path.is_file():
            raise PhaseFailed(f"{name}: exit code {proc.returncode}, see {self.out / (name + '.log')}")
        return json.loads(result_path.read_text(encoding="utf-8"))

    def predict(self, name: str, trace: bool) -> dict:
        result = self.phase(name, trace, ["predict", "--config", str(self.workload.config)])
        (self.out / "predictions.jsonl").replace(self.out / f"{name}.jsonl")
        lines = (self.out / f"{name}.jsonl").read_text(encoding="utf-8").splitlines()
        raised = {s[5] for s in result["spans"] if s[1] == "voting.run_question" and s[6]}
        wrong = {
            i for i, line in enumerate(self.expected["predictions"])
            if i >= len(lines) or lines[i] != line or f"{i:06d}" in raised
        }
        self.count(name, len(self.expected["predictions"]), wrong, "prediction differs from design")
        starts = [s[2] for s in result["spans"] if s[1] == "voting.run_question"]
        result["first_question"] = min(starts)
        return result

    def evaluate(self, name: str, trace: bool, predictions: Path) -> dict:
        """Score the evaluation dataset, whose copies of question i share its prediction."""
        lines = predictions.read_text(encoding="utf-8").splitlines()
        copies = self.out / "eval_predictions.jsonl"
        with open(copies, "w", encoding="utf-8") as handle:
            for i in range(len(lines) * self.workload.eval_copies):
                sql = json.loads(lines[i % len(lines)])["sql"]
                handle.write(json.dumps({"example_id": f"{i:06d}", "sql": sql}, ensure_ascii=False) + "\n")
        report = self.out / "report.jsonl"
        result = self.phase(name, trace, [
            "evaluate", "--pred", str(copies), "--dataset", str(self.workload.eval_dataset),
            "--db-dir", str(self.workload.db_dir), "--ts", "--report", str(report),
            "--suite-dir", str(self.out / "suites"),
        ])
        scores = [json.loads(line) for line in report.read_text(encoding="utf-8").splitlines()]
        n = len(self.expected["ex"])
        total = n * self.workload.eval_copies
        wrong = {
            i for i in range(total)
            if i >= len(scores) or scores[i]["gold_error"] is not None
            or scores[i]["ex"] != self.expected["ex"][i % n] or scores[i]["ts"] != self.expected["ts"][i % n]
        }
        self.count(name, total, wrong, "EX/TS differ from design")
        return result

    def count(self, phase: str, attempted: int, wrong: set[int], what: str) -> None:
        self.attempted += attempted
        self.failed += len(wrong)
        if wrong:
            self.problems.append(f"{phase}: {what} for questions {sorted(wrong)[:10]}")

    def check_cache(self, phase: str) -> None:
        entries = sum(1 for _ in (self.out / "cache").rglob("*.txt"))
        if entries != self.expected["cache_entries"]:
            self.failed += self.workload.questions
            self.problems.append(f"{phase}: {entries} cache entries, expected {self.expected['cache_entries']}")

    def check_identical(self, cold: str, warm: str) -> None:
        a = (self.out / f"{cold}.jsonl").read_bytes()
        b = (self.out / f"{warm}.jsonl").read_bytes()
        if a != b:
            self.failed += 1
            self.problems.append(f"{cold} and {warm} predictions differ")

    def fresh_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()

    # --- cycles -------------------------------------------------------------

    def cycle(self) -> dict[str, list[float]]:
        """Untraced cold, warm and evaluate phases; end-to-end samples."""
        self.fresh_out()
        n = self.workload.questions
        cold = self.predict("cold", trace=False)
        self.check_cache("cold")
        warm = self.predict("warm", trace=False)
        self.check_identical("cold", "warm")
        ev = self.evaluate("evaluate", False, self.out / "warm.jsonl")
        return {
            # set-up does the same work on a cold and on a warm cache
            "setup_s": [p["first_question"] - p["start"] for p in (cold, warm)],
            "predict_cold_qps": [n / (cold["end"] - cold["first_question"])],
            "predict_warm_qps": [n / (warm["end"] - warm["first_question"])],
            "evaluate_ts_qps": [n * self.workload.eval_copies / (ev["end"] - ev["start"])],
            "peak_rss_mb": [max(p["rss_mb"] for p in (cold, warm, ev))],
        }

    def traced_cycle(self) -> dict[str, list[float]]:
        """One untraced cold phase as the overhead base, then traced phases."""
        import spans
        from sqlvote.gateway import cache_stats

        self.fresh_out()
        base = self.predict("base", trace=False)
        shutil.rmtree(self.out / "cache")
        cold = self.predict("cold", trace=True)
        self.check_cache("cold")
        files, size = cache_stats(self.out / "cache")
        warm = self.predict("warm", trace=True)
        self.check_identical("base", "cold")
        self.check_identical("cold", "warm")
        ev = self.evaluate("evaluate", True, self.out / "warm.jsonl")
        metrics = spans.layer_metrics(cold["spans"], warm["spans"], ev["spans"], files, size)
        metrics["trace.overhead"] = (cold["end"] - cold["start"]) / (base["end"] - base["start"])
        return {name: [value] for name, value in metrics.items()}


def file_hashes(root: Path) -> dict[str, str]:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def measure(workload, src: Path, seconds: float, trace: bool, started: float) -> dict:
    """Run cycles for `seconds`; return the contract's result object."""
    run = Run(workload, src, started)
    before = file_hashes(workload.db_dir)
    cycles: list[dict[str, list[float]]] = []
    measure_start = time.monotonic()
    last = 0.0
    try:
        # start another cycle only if it is likely to end within `seconds`
        while not cycles or (
            time.monotonic() - measure_start + last <= seconds
            and time.monotonic() - started + last < RUN_LIMIT_S
        ):
            cycle_start = time.monotonic()
            cycles.append(run.traced_cycle() if trace else run.cycle())
            last = time.monotonic() - cycle_start
    except PhaseFailed as exc:
        run.problems.append(str(exc))
        run.failed += 1
        run.attempted = max(run.attempted, 1)
    if file_hashes(workload.db_dir) != before:
        run.failed += 1
        run.problems.append("a database file changed")
    if trace:
        for name in REPEATING:
            if len({c[name][0] for c in cycles}) > 1:
                run.failed += 1
                run.problems.append(f"{name} differs between cycles: {[c[name] for c in cycles]}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    metrics = {}
    for name in cycles[0] if cycles else ():
        unit = layer_unit(name) if trace else END_TO_END[name]
        metrics[name] = {"value": statistics.median(v for c in cycles for v in c[name]), "unit": unit}
    print(f"{workload.name}: {len(cycles)} cycle(s) in {time.monotonic() - measure_start:.1f} s",
          file=sys.stderr)
    return {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def run_benchmark(
    workload_name: str, seed: int, seconds: float, trace: bool, checkout: Path,
    work: Path | None = None, size: str = "full",
) -> dict:
    """Generate the workload under `work` (default `.bench_work/<name>`) and measure it."""
    started = time.monotonic()
    src = checkout / "src"
    sys.path.insert(0, str(src))
    import workloads

    work = work or checkout / ".bench_work" / workload_name
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.generate(workload_name, seed, work, size)
    print(f"{workload_name}: generated {workload.questions} questions in "
          f"{time.monotonic() - started:.1f} s", file=sys.stderr)
    return measure(workload, src, seconds, trace, started)


def missing_dependency(src: Path) -> str | None:
    """Why this interpreter cannot import `sqlvote.cli` from `src`, or None if it can."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import sqlvote.cli  # noqa: F401
    except ImportError as exc:
        return str(exc)
    return None


def choose_interpreter(src: Path) -> tuple[str, bool] | None:
    """A `python3` that can import `sqlvote.cli`, and whether it needs the stand-ins.

    Several interpreters may be installed side by side, and the first one on
    PATH need not have sqlvote's dependencies (PyYAML, requests). The first
    interpreter on PATH that has them all wins. Failing that, the first one
    that imports sqlvote with `standins/` on its path, which supplies
    `requests`; the benchmark never makes a remote call.
    """
    candidates, seen = [], set()
    for directory in os.environ.get("PATH", "").split(os.pathsep):
        candidate = os.path.join(directory or ".", "python3")
        if os.access(candidate, os.X_OK) and os.path.realpath(candidate) not in seen:
            seen.add(os.path.realpath(candidate))
            candidates.append(candidate)
    for with_standins in (False, True):
        for candidate in candidates:
            env = standin_env() if with_standins else os.environ
            try:
                probe = subprocess.run(
                    [candidate, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import sqlvote.cli",
                     str(src)],
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env, timeout=60,
                )
            except (OSError, subprocess.TimeoutExpired):
                continue
            if probe.returncode == 0:
                return candidate, with_standins
    return None


def standin_env() -> dict[str, str]:
    """The environment with `standins/` last on PYTHONPATH."""
    paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join([*paths, str(STANDINS)])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["spider-mix", "text-heavy"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    checkout = Path.cwd()
    if not (checkout / "src" / "sqlvote" / "cli.py").is_file():
        print(f"no sqlvote sources under {checkout / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    missing = missing_dependency(checkout / "src")
    if missing:
        chosen = None if os.environ.get(REEXEC_MARK) else choose_interpreter(checkout / "src")
        if chosen is None:
            print(f"{sys.executable} cannot import sqlvote ({missing}) and no python3 on PATH can",
                  file=sys.stderr)
            return 3
        python, with_standins = chosen
        print(f"{sys.executable} cannot import sqlvote ({missing}); running under {python}"
              + (" with perfbench/standins" if with_standins else ""), file=sys.stderr)
        sys.stderr.flush()
        env = standin_env() if with_standins else dict(os.environ)
        os.execve(python, [python, str(Path(__file__).resolve()), *(sys.argv[1:] if argv is None else argv)],
                  {**env, REEXEC_MARK: "1"})
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), checkout)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
