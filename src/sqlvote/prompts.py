"""Prompt rendering: three frozen designs over (question, catalog, values, demos).

The templates are byte-frozen, idiosyncrasies included ("anwered", "We will
first given"); golden-file tests pin them, so edit only with the goldens.

A `DemoSet` renders its demo blocks once per design, on first use, and keeps
the text for every later prompt.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum

from .catalog import DatabaseCatalog, ExampleItem
from .errors import CatalogEmpty, UnknownDesign
from .linking import ValueMatch


class PromptDesignId(str, Enum):
    CONCISE = "concise"
    VERBOSE = "verbose"
    BASELINE_DEFAULT = "baseline_default"

    @classmethod
    def parse(cls, name: str) -> "PromptDesignId":
        try:
            return cls(name)
        except ValueError:
            raise UnknownDesign(name) from None


ELICITATION_SUFFIX = {
    PromptDesignId.CONCISE: "[SQL]: ",
    PromptDesignId.VERBOSE: "The corresponding SQL is: ",
    PromptDesignId.BASELINE_DEFAULT: "SELECT",
}

_PREAMBLE = (
    "This is a task converting text into SQL statement. We will first given the dataset "
    "schema and then ask a question in text. You are asked to generate SQL statement.\n"
    " Here is the test question to be anwered: "
)


@dataclass(frozen=True)
class DemoSet:
    """Demonstration blocks: (example, gold SQL) pairs plus what rendering needs.

    `catalogs` maps each demo's db_id to its catalog; `matches` is aligned
    with `demos` and holds the value matches precomputed for each demo
    question against its own database.
    """

    demos: tuple[tuple[ExampleItem, str], ...] = ()
    catalogs: dict[str, DatabaseCatalog] = field(default_factory=dict)
    matches: tuple[tuple[ValueMatch, ...], ...] = ()
    _blocks: dict[PromptDesignId, str] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for item, gold_sql in self.demos:
            if not gold_sql:
                raise ValueError(f"demo {item.example_id} has empty gold SQL")
            if item.db_id not in self.catalogs:
                raise ValueError(f"demo {item.example_id} references unknown db '{item.db_id}'")
        if self.matches and len(self.matches) != len(self.demos):
            raise ValueError("matches not aligned with demos")

    @property
    def shots(self) -> int:
        return len(self.demos)

    def blocks(self, design: PromptDesignId) -> str:
        """The demo blocks in `design`, each ending in its gold SQL; rendered on the first call only."""
        if design not in self._blocks:
            parts = []
            for i, (item, gold_sql) in enumerate(self.demos):
                matches = list(self.matches[i]) if self.matches else []
                gold = gold_sql.strip()
                if design is PromptDesignId.BASELINE_DEFAULT:
                    # The block already ends with the leading SELECT.
                    gold = " " + (gold[6:].lstrip() if gold.lower().startswith("select") else gold)
                block = _BLOCK_RENDERERS[design](item.question, self.catalogs[item.db_id], matches)
                parts.append(block + gold + "\n\n")
            self._blocks[design] = "".join(parts)
        return self._blocks[design]


EMPTY_DEMOS = DemoSet()


@dataclass(frozen=True)
class RenderedPrompt:
    text: str
    design: PromptDesignId
    content_hash: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("empty prompt text")
        if not self.text.endswith(ELICITATION_SUFFIX[self.design]):
            raise ValueError(f"prompt does not end with the {self.design.value} suffix")


def content_hash_of(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _values_by_column(matches: list[ValueMatch]) -> dict[tuple[str, str], list[str]]:
    """Match values grouped by (table, column), groups in order of first appearance."""
    grouped: dict[tuple[str, str], list[str]] = {}
    for m in matches:
        grouped.setdefault((m.table_name, m.column_name), []).append(m.value)
    return grouped


def _concise_block(question: str, catalog: DatabaseCatalog, matches: list[ValueMatch]) -> str:
    values = _values_by_column(matches)
    table_parts = []
    for table in catalog.tables:
        cols = []
        for col in table.columns:
            name = col.name.lower()
            vals = values.get((table.name, col.name))
            cols.append(f"{name} ( {' , '.join(vals)} )" if vals else name)
        table_parts.append(f"{table.name.lower()} : {' , '.join(cols)}")
    schema = f"| {catalog.db_id} | " + " | ".join(table_parts)

    cols = " | ".join(
        f"{table.name.lower()} : {col.name.lower()} ({col.data_type.value})"
        for table in catalog.tables
        for col in table.columns
    )
    pks = " | ".join(
        f"{catalog.tables[t].name.lower()} : {catalog.tables[t].columns[c].name.lower()}"
        for t, c in catalog.primary_keys
    )
    fks = " | ".join(
        f"{catalog.tables[ct].name.lower()} : {catalog.tables[ct].columns[cc].name.lower()}"
        f" equals {catalog.tables[pt].name.lower()} : {catalog.tables[pt].columns[pc].name.lower()}"
        for (ct, cc), (pt, pc) in catalog.foreign_keys
    )
    return (
        _PREAMBLE
        + "Convert text to SQL:\n"
        + f" [Schema (values)]: {schema};\n"
        + f" [Column names (type)]: {cols};\n"
        + f" [Primary Keys]: {pks};\n"
        + f" [Foreign Keys]: {fks}\n"
        + f" [Q]: {question};\n"
        + " [SQL]: "
    )


def _verbose_block(question: str, catalog: DatabaseCatalog, matches: list[ValueMatch]) -> str:
    titles = ", ".join(t.name for t in catalog.tables)
    table_sentences = " ".join(
        f"Table {i + 1} is {table.name}, and its column names and types are: "
        + ", ".join(f"{col.name} (Type is {col.data_type.value})" for col in table.columns)
        + "."
        for i, table in enumerate(catalog.tables)
    )
    pk_sentence = ""
    if catalog.primary_keys:
        pk_sentence = " The primary keys are: " + ", ".join(
            f"{catalog.tables[t].columns[c].name.lower()} from Table {catalog.tables[t].name}"
            for t, c in catalog.primary_keys
        ) + "."
    fk_sentence = ""
    if catalog.foreign_keys:
        fk_sentence = " The foreign keys are: " + ", ".join(
            f"{catalog.tables[ct].columns[cc].name.lower()} from Table {catalog.tables[ct].name}"
            f" is equivalent with "
            f"{catalog.tables[pt].columns[pc].name.lower()} from Table {catalog.tables[pt].name}"
            for (ct, cc), (pt, pc) in catalog.foreign_keys
        ) + ". Use foreign keys to join Tables."

    values_part = ""
    if matches:
        clauses = " ".join(
            f"Table {table} Column {column.lower()} have values: {', '.join(values)};"
            for (table, column), values in _values_by_column(matches).items()
        )
        values_part = (
            f" Columns with relevant values: {clauses}"
            "  Only use columns with relevant values to generate SQL."
        )

    return (
        _PREAMBLE
        + "Let us take a question and turn it into a SQL statement about database tables. "
        + f"There are {len(catalog.tables)} tables. Their titles are: {titles}. "
        + table_sentences
        + pk_sentence
        + fk_sentence
        + values_part
        + "  Let us take a text question and turn it into a SQL statement about database tables. "
        + f"The question is: {question} The corresponding SQL is: "
    )


def _baseline_block(question: str, catalog: DatabaseCatalog, matches: list[ValueMatch]) -> str:
    tables = "; ".join(
        f"{table.name}({', '.join(col.name for col in table.columns)})"
        for table in catalog.tables
    )
    return (
        "Complete sqlite SQL query only and with no explanation "
        f"Sqlite SQL tables, with their properties: {tables}.  {question} SELECT"
    )


_BLOCK_RENDERERS = {
    PromptDesignId.CONCISE: _concise_block,
    PromptDesignId.VERBOSE: _verbose_block,
    PromptDesignId.BASELINE_DEFAULT: _baseline_block,
}


def render(
    design: PromptDesignId,
    question: ExampleItem,
    catalog: DatabaseCatalog,
    matches: list[ValueMatch],
    demos: DemoSet = EMPTY_DEMOS,
) -> RenderedPrompt:
    """Render the full prompt: demo blocks (each ending in its gold SQL), then the test block."""
    if not catalog.tables:
        raise CatalogEmpty(catalog.db_id)

    text = demos.blocks(design) + _BLOCK_RENDERERS[design](question.question, catalog, matches)
    return RenderedPrompt(text, design, content_hash_of(text))
