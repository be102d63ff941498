"""Command-line entry point: predict, evaluate, show-prompt, cache."""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path
from urllib.parse import urlsplit

import yaml

from .catalog import DatabaseCatalog, ExampleItem, load_catalogs, load_examples
from .errors import ConfigError, SqlVoteError
from .evaluation import SuiteSpec, evaluate_file
from .execution import DEFAULT_TIMEOUT
from .gateway import (
    DEFAULT_SAMPLES,
    DEFAULT_TEMPERATURE,
    Gateway,
    ModelArm,
    RemoteBackend,
    ScriptedBackend,
    cache_clear,
    cache_stats,
)
from .linking import DEFAULT_MAX_PER_COLUMN, link_values
from .prompts import EMPTY_DEMOS, DemoSet, PromptDesignId, render
from .voting import FALLBACK_SQL, audit_records, run_question


def _checked(ok, wanted: str, convert=lambda value: value):
    """A converter whose result must pass `ok`."""
    def check(value):
        result = convert(value)
        if not ok(result):
            raise ValueError(f"must be {wanted}, not {value!r}")
        return result
    return check


_mapping = _checked(lambda value: isinstance(value, dict), "a mapping")
_flag = _checked(lambda value: isinstance(value, bool), "true or false")  # bool("false") is True
_positive = _checked(lambda n: n >= 1, ">= 1", int)
_nonnegative = _checked(lambda n: n >= 0, ">= 0", int)
_seconds = _checked(lambda s: math.isfinite(s) and s > 0, "a finite number of seconds above 0", float)
# urlopen also reads file: URLs
_url = _checked(lambda url: urlsplit(url).scheme in ("http", "https"), "an http or https URL", str)


def _key(convert, default=...):
    """A top-level config key as a `RunConfig` field: its converter and its default (`...`: required)."""
    return field(metadata={"read": (convert, default)})


@dataclass
class RunConfig:
    arms: list[ModelArm] = _key(list, ())  # each read by `_ARM`
    seed: int = _key(int, 0)
    manifest: Path = _key(Path)
    db_dir: Path = _key(Path)
    dataset: Path = _key(Path)
    output: Path = _key(Path, Path("predictions.jsonl"))
    timeout: float = _key(_seconds, DEFAULT_TIMEOUT)
    fan_out: int = _key(_positive, 8)
    audit: bool = _key(_flag, False)
    demo_source: Path | None = _key(Path, None)
    cache_dir: Path | None = _key(Path, None)
    max_per_column: int = _key(_nonnegative, DEFAULT_MAX_PER_COLUMN)  # a negative slice bound drops matches
    backends: dict[str, dict] = _key(_mapping, {})  # model id -> its section, read by `_BACKENDS[its type]`


# One table per config section: key -> (converter, default). A `Path` value resolves against the
# config's directory, and a null path is an absent one.
_CONFIG = {key.name: key.metadata["read"] for key in fields(RunConfig)}
_ARM = {  # in `ModelArm` field order
    "model": (_checked(lambda m: m not in ("", ".", ".."), "a name other than '', '.' and '..'", str), ...),
    "design": (lambda name: PromptDesignId.parse(str(name)), PromptDesignId.CONCISE),
    "shots": (_nonnegative, 0),
    "samples": (_positive, DEFAULT_SAMPLES),
    # a NaN or infinite temperature would reach entry names, cache keys and request bodies
    "temperature": (_checked(lambda t: math.isfinite(t) and t >= 0, "finite and >= 0", float), DEFAULT_TEMPERATURE),
}
_BACKENDS = {  # by backend type
    "scripted": {"type": (str, "scripted"), "dir": (Path, ...)},
    "remote": {"type": (str, "remote"), "endpoint": (_url, ...), "auth_token_env": (str, ""),
               "request_timeout": (_seconds, 60.0)},
}
_backend_type = _checked(_BACKENDS.__contains__, f"one of {', '.join(_BACKENDS)}", str)


def _backend_table(spec: dict) -> dict:
    return _BACKENDS[_backend_type(spec.get("type", "scripted"))]


def _read(raw, table, path: Path, where: str = "") -> dict:
    """Read one config section, named `where` in errors, by its table or by the one `table(raw)` picks."""
    key = None
    try:
        raw = _mapping(raw)
        table = table(raw) if callable(table) else table
        for key in raw:
            if key not in table:
                raise ValueError(f"unknown key, not one of {', '.join(table)}")
        values = {}
        for key, (convert, default) in table.items():
            value = raw.get(key)
            value = default if value is None and (key not in raw or convert is Path) else convert(value)
            if value is ...:
                raise KeyError(key)
            values[key] = path.parent / value if isinstance(value, Path) else value
        return values
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:  # int(.inf) overflows
        at = where if key is None else f"{where}.{key}" if where else key
        raise ConfigError(f"bad config value in {path}: {at}: {type(exc).__name__}: {exc}") from exc


def load_config(path: Path | str) -> RunConfig:
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    config = RunConfig(**_read(raw, _CONFIG, path))
    if not config.arms:
        raise ConfigError("no arms configured")
    arms = enumerate(config.arms)
    config.arms = [ModelArm(*_read(arm, _ARM, path, f"arms[{i}]").values()) for i, arm in arms]
    sections = config.backends.items()
    config.backends = {name: _read(spec, _backend_table, path, f"backends.{name}") for name, spec in sections}
    for arm in config.arms:
        if arm.model_id not in config.backends:
            raise ConfigError(f"arm model '{arm.model_id}' has no backend entry")
    return config


def build_gateway(config: RunConfig) -> Gateway:
    gateway = Gateway(cache_dir=config.cache_dir)
    for model_id, spec in config.backends.items():
        if spec["type"] == "scripted":
            backend = ScriptedBackend.from_dir(spec["dir"])
        else:
            backend = RemoteBackend(spec["endpoint"], spec["auth_token_env"], spec["request_timeout"], model_id)
        gateway.register_backend(model_id, backend)
    return gateway


def _demo_sets(
    config: RunConfig,
    catalog_index: dict[str, DatabaseCatalog],
    shot_counts: list[int] | None = None,
) -> dict[int, DemoSet]:
    """One DemoSet per distinct shot count, built from the demo source file."""
    if shot_counts is None:
        shot_counts = sorted({arm.shots for arm in config.arms if arm.shots > 0})
    if not shot_counts:
        return {0: EMPTY_DEMOS}
    if config.demo_source is None:
        raise ConfigError("arms request shots > 0 but no demo_source configured")
    candidates = [
        item
        for item in load_examples(config.demo_source)
        if item.gold_sql and item.db_id in catalog_index
    ]
    sets: dict[int, DemoSet] = {0: EMPTY_DEMOS}
    for shots in shot_counts:
        if len(candidates) < shots:
            raise ConfigError(f"demo_source has only {len(candidates)} usable demos, need {shots}")
        chosen = candidates[:shots]
        matches = tuple(
            tuple(link_values(item.question, catalog_index[item.db_id], config.max_per_column))
            for item in chosen
        )
        sets[shots] = DemoSet(
            demos=tuple((item, item.gold_sql) for item in chosen),
            catalogs={item.db_id: catalog_index[item.db_id] for item in chosen},
            matches=matches,
        )
    return sets


def cmd_predict(config: RunConfig) -> int:
    catalogs = load_catalogs(config.manifest, config.db_dir)
    catalog_index = {c.db_id: c for c in catalogs}
    examples = load_examples(config.dataset, catalogs)
    gateway = build_gateway(config)
    demo_sets = _demo_sets(config, catalog_index)

    def demos_for(arm: ModelArm) -> DemoSet:
        return demo_sets.get(arm.shots, EMPTY_DEMOS)

    def process(example: ExampleItem):
        try:
            result, pool = run_question(
                example,
                catalog_index[example.db_id],
                config.arms,
                config.seed,
                gateway,
                timeout=config.timeout,
                max_per_column=config.max_per_column,
                demos_for=demos_for,
                audit=config.audit,  # the audit records every outcome, so nothing stops early
            )
            return example, result, pool, None
        except SqlVoteError as exc:
            return example, None, None, exc

    config.output.parent.mkdir(parents=True, exist_ok=True)
    ties = 0
    all_filtered = 0
    failures = 0
    audit_path = config.output.with_name(config.output.name + ".audit.jsonl")
    with (
        open(audit_path, "w", encoding="utf-8") if config.audit else nullcontext() as audit_handle,
        open(config.output, "w", encoding="utf-8") as out,
    ):
        with ThreadPoolExecutor(max_workers=config.fan_out) as pool_exec:
            for example, result, pool, error in pool_exec.map(process, examples):
                if error is not None:
                    failures += 1
                    sql = FALLBACK_SQL
                    print(f"{example.example_id}: FAILED ({error})", file=sys.stderr)
                else:
                    if result.tie_broken:
                        ties += 1
                    if result.selected_sql is None:
                        all_filtered += 1
                        sql = FALLBACK_SQL
                    else:
                        sql = result.selected_sql
                    if audit_handle is not None:
                        for record in audit_records(pool, result):
                            record["example_id"] = example.example_id
                            audit_handle.write(json.dumps(record, ensure_ascii=False) + "\n")
                out.write(json.dumps({"example_id": example.example_id, "sql": sql}, ensure_ascii=False) + "\n")
                print(f"{example.example_id}: done", file=sys.stderr)
    print(
        f"predicted {len(examples)} questions: {ties} tie-breaks, "
        f"{all_filtered} all-filtered, {failures} failures"
    )
    return 0


def cmd_evaluate(
    pred: Path,
    dataset: Path,
    db_dir: Path,
    ts: bool = False,
    suites: int = 10,
    rows: int = 50,
    seed: int = 0,
    report_path: Path | None = None,
    suite_dir: Path | None = None,
) -> int:
    spec = SuiteSpec(suite_count=suites, rows_per_table=rows, seed=seed) if ts else None
    report = evaluate_file(pred, dataset, db_dir, spec, suite_dir)
    for line in report.summary_lines():
        print(line)
    if report_path is None:
        report_path = Path(str(pred) + ".report.jsonl")
    with open(report_path, "w", encoding="utf-8") as handle:
        for score in report.per_question:  # keys in QuestionScore field order
            handle.write(json.dumps(vars(score), ensure_ascii=False) + "\n")
    return 0


def cmd_show_prompt(config: RunConfig, example_id: str, design_name: str, shots: int) -> int:
    if shots < 0:
        raise SqlVoteError(f"--shots must be >= 0, not {shots}")
    design = PromptDesignId.parse(design_name)
    catalogs = load_catalogs(config.manifest, config.db_dir)
    catalog_index = {c.db_id: c for c in catalogs}
    examples = load_examples(config.dataset, catalogs)
    by_id = {e.example_id: e for e in examples}
    if example_id not in by_id:
        raise SqlVoteError(f"unknown example '{example_id}'")
    example = by_id[example_id]
    catalog = catalog_index[example.db_id]
    matches = link_values(example.question, catalog, config.max_per_column)
    demos = EMPTY_DEMOS
    if shots > 0:
        demos = _demo_sets(config, catalog_index, [shots])[shots]
    prompt = render(design, example, catalog, matches, demos)
    sys.stdout.write(prompt.text)
    return 0


def cmd_cache(action: str, cache_dir: Path) -> int:
    if action == "stats":
        entries, total = cache_stats(cache_dir)
        print(f"entries: {entries}")
        print(f"bytes: {total}")
        return 0
    removed = cache_clear(cache_dir)
    print(f"cleared {removed} entries")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sqlvote", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_predict = sub.add_parser("predict", help="run the pipeline over a dataset")
    p_predict.add_argument("--config", required=True, type=Path)
    p_predict.add_argument("--audit", action="store_true")

    p_eval = sub.add_parser("evaluate", help="score a prediction file")
    p_eval.add_argument("--pred", required=True, type=Path)
    p_eval.add_argument("--dataset", required=True, type=Path)
    p_eval.add_argument("--db-dir", required=True, type=Path)
    p_eval.add_argument("--ts", action="store_true")
    p_eval.add_argument("--suites", type=int, default=10)
    p_eval.add_argument("--rows", type=int, default=50)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--report", type=Path, default=None)
    p_eval.add_argument("--suite-dir", type=Path, default=None)

    p_show = sub.add_parser("show-prompt", help="print one rendered prompt")
    p_show.add_argument("--config", required=True, type=Path)
    p_show.add_argument("--example", required=True)
    p_show.add_argument("--design", required=True)
    p_show.add_argument("--shots", type=int, default=0)

    p_cache = sub.add_parser("cache", help="inspect or clear the completion cache")
    p_cache.add_argument("action", choices=["stats", "clear"])
    p_cache.add_argument("--dir", required=True, type=Path)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "predict":
            config = load_config(args.config)
            if args.audit:
                config.audit = True
            return cmd_predict(config)
        if args.command == "evaluate":
            return cmd_evaluate(
                args.pred, args.dataset, args.db_dir,
                ts=args.ts, suites=args.suites, rows=args.rows, seed=args.seed,
                report_path=args.report, suite_dir=args.suite_dir,
            )
        if args.command == "show-prompt":
            config = load_config(args.config)
            return cmd_show_prompt(config, args.example, args.design, args.shots)
        if args.command == "cache":
            return cmd_cache(args.action, args.dir)
    except (SqlVoteError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return 2


def entrypoint() -> None:
    sys.exit(main())
