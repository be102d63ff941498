"""The outputs of the benchmark's `tiny` workloads, pinned by SHA-256.

Each workload is generated at seed 1 with `perfbench/workloads.generate` and
run through `sqlvote.cli.main`: a cold `predict`, a warm one, `predict
--audit` on the warm cache, and `evaluate --ts`. The prediction files, the
audit file, the report, and each command's exit code, stdout and stderr must
hash to the digests in `tests/testdata/outputs.json`. Suite files and cache
bytes are left out: they carry the SQLite library's version.

A change meant to alter an output rewrites the file, and says which digest
moved and why:

    PYTHONPATH=src python tests/test_outputs_pinned.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from sqlvote.cli import main

CHECKOUT = Path(__file__).resolve().parent.parent
PINNED = CHECKOUT / "tests" / "testdata" / "outputs.json"
sys.path.insert(0, str(CHECKOUT / "perfbench"))

import workloads  # noqa: E402


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def outputs(name: str, root: Path) -> dict[str, str]:
    """The SHA-256 of each output of the tiny `name` workload at seed 1, run in the new directory `root`."""
    spec = workloads.generate(name, 1, root, size="tiny")
    predict = ["predict", "--config", str(spec.config)]
    out = spec.config.parent / "out"
    predictions, report = out / "predictions.jsonl", out / "report.jsonl"
    audit = out / "predictions.jsonl.audit.jsonl"
    steps = {
        "cold predict": (predict, [predictions]),
        "warm predict": (predict, [predictions]),
        "audit predict": ([*predict, "--audit"], [predictions, audit]),
        "evaluate --ts": ([
            "evaluate", "--pred", str(predictions), "--dataset", str(spec.dataset), "--db-dir", str(spec.db_dir),
            "--ts", "--report", str(report), "--suite-dir", str(out / "suites"),
        ], [report]),
    }
    digests = {}
    for step, (argv, files) in steps.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        printed = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
        digests[f"{step}: exit, stdout, stderr"] = _sha256(printed.encode("utf-8"))
        digests.update({f"{step}: {path.name}": _sha256(path.read_bytes()) for path in files})
    return digests


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_workload_outputs_are_pinned(tmp_path, name):
    assert outputs(name, tmp_path / name) == json.loads(PINNED.read_text(encoding="utf-8"))[name]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        pinned = {name: outputs(name, Path(scratch, name)) for name in workloads.WORKLOADS}
    PINNED.write_text(json.dumps(pinned, indent=1) + "\n", encoding="utf-8")
