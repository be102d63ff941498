"""Run one `sqlvote` command in this process and write how it went as JSON.

    python3 perfbench/phase.py RESULT_PATH TRACE SRC_DIR -- SQLVOTE_ARGS...

TRACE is 1 to record spans at every layer boundary, 0 to record only one span
per question (the start of the first question ends set-up). The result holds
the exit code, the wall-clock bounds of `sqlvote.cli.main`, the process's
peak resident memory and the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    result_path, trace, src, separator, *command = argv
    if separator != "--":
        raise SystemExit("usage: phase.py RESULT_PATH TRACE SRC_DIR -- SQLVOTE_ARGS...")
    sys.path.insert(0, src)
    from sqlvote import cli

    import spans

    recorder = spans.Recorder()
    spans.install(recorder, full=trace == "1")
    start = time.perf_counter()
    code = cli.main(command)
    end = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(result_path).write_text(
        json.dumps({"code": code, "start": start, "end": end, "rss_mb": rss_mb, "spans": recorder.spans}),
        encoding="utf-8",
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
