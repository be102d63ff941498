"""Repeat benchmark runs over several seeds and summarise each metric.

    python3 perfbench/repeat.py --workload text-heavy --seeds 1-10 --seconds 30 \
        [--trace 0] [--out FILE]

Run from the root of a source checkout. Each run is `perfbench/run.py` in a
child process with one seed. For every metric the summary gives the values,
their median, first and third quartile (`statistics.quantiles(n=4)`) and the
spread, (Q3 - Q1) / median. The summary is printed as JSON and, with `--out`,
also written to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def machine(python: str) -> dict:
    """The host, and the versions of the `python` that ran the phases and of its SQLite."""
    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.is_file() else []
    models = [line.split(":", 1)[1].strip() for line in lines if line.startswith("model name")]
    versions = subprocess.run(
        [python, "-c", "import platform, sqlite3; print(platform.python_version(), sqlite3.sqlite_version)"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    return {
        "nproc": os.cpu_count(),
        "cpu": models[0] if models else platform.processor(),
        "python": versions[0],
        "sqlite": versions[1],
        "system": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,5")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if not lines:
            print(f"seed {seed}: exit {proc.returncode}, no result\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        restarted = [line for line in proc.stderr.splitlines() if "; running under " in line]
        interpreter = restarted[0].split("; running under ", 1)[1] if restarted else sys.executable
        python = interpreter.split(" with ", 1)[0]
        print(f"seed {seed}: exit {proc.returncode}, correct {result['correct']}, "
              f"{result['failed']}/{result['attempted']} failed", file=sys.stderr)
        runs.append({"seed": seed, "exit": proc.returncode, **result})

    names = runs[0]["metrics"]
    summary = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(python),
        "interpreter": interpreter,  # the python3 that ran the phases (see run.choose_interpreter)
        "all_correct": all(r["correct"] and r["exit"] == 0 for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            name: {"unit": names[name]["unit"],
                   **summarise([r["metrics"][name]["value"] for r in runs])}
            for name in names
        },
    }
    text = json.dumps(summary, indent=1)
    if args.out:
        args.out.write_text(text + "\n", encoding="utf-8")
    print(text)
    return 0 if summary["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
