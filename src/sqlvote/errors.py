"""Exception types shared across the package."""

from __future__ import annotations


class SqlVoteError(Exception):
    """Base class for all package errors."""


class MalformedManifest(SqlVoteError):
    def __init__(self, reason: str):
        super().__init__(f"malformed schema manifest: {reason}")


class MissingDbFile(SqlVoteError):
    def __init__(self, db_id: str, path: str):
        super().__init__(f"database file for '{db_id}' not found at {path}")


class KeyIndexOutOfRange(SqlVoteError):
    def __init__(self, db_id: str, index: int):
        super().__init__(f"key column index {index} out of range in '{db_id}'")


class MalformedDataset(SqlVoteError):
    def __init__(self, reason: str):
        super().__init__(f"malformed dataset: {reason}")


class UnknownDbId(SqlVoteError):
    def __init__(self, db_id: str):
        super().__init__(f"dataset references unknown db_id '{db_id}'")


class DbUnreadable(SqlVoteError):
    def __init__(self, path: str, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"cannot read database at {path}{detail}")


class UnknownDesign(SqlVoteError):
    def __init__(self, name: str):
        super().__init__(f"unknown prompt design '{name}'")


class CatalogEmpty(SqlVoteError):
    def __init__(self, db_id: str):
        super().__init__(f"catalog '{db_id}' has no tables")


class DuplicateModelId(SqlVoteError):
    def __init__(self, model_id: str):
        super().__init__(f"backend already registered for '{model_id}'")


class BackendUnavailable(SqlVoteError):
    def __init__(self, model_id: str):
        super().__init__(f"no backend registered for '{model_id}'")


class BackendError(SqlVoteError):
    def __init__(self, message: str, status: int | None = None):
        prefix = f"status {status}: " if status is not None else ""
        super().__init__(f"backend error: {prefix}{message}")
        self.status = status


class GoldExecutionFailed(SqlVoteError):
    def __init__(self, example_id: str | None, detail: str):
        subject = f" for example {example_id}" if example_id is not None else ""
        super().__init__(f"gold SQL failed{subject}: {detail}")
        self.example_id = example_id


class GenerationFailed(SqlVoteError):
    def __init__(self, reason: str):
        super().__init__(f"suite database generation failed: {reason}")


class MissingPrediction(SqlVoteError):
    def __init__(self, example_id: str):
        super().__init__(f"no prediction for example {example_id}")


class ConfigError(SqlVoteError):
    """Invalid run configuration."""
