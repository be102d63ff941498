from __future__ import annotations

import pytest

from sqlvote.errors import CatalogEmpty, UnknownDesign
from sqlvote.linking import link_values
from sqlvote.prompts import (
    ELICITATION_SUFFIX,
    DemoSet,
    PromptDesignId,
    content_hash_of,
    render,
)

from conftest import read_golden


@pytest.fixture(scope="module")
def car_example(dev_examples):
    return dev_examples[0]


@pytest.fixture(scope="module")
def car_matches(car_catalog, car_example):
    return link_values(car_example.question, car_catalog)


def test_list_designs_fixed_registry():
    designs = list(PromptDesignId)
    assert designs == [
        PromptDesignId.CONCISE,
        PromptDesignId.VERBOSE,
        PromptDesignId.BASELINE_DEFAULT,
    ]
    assert list(PromptDesignId) == designs
    assert designs.index(PromptDesignId.CONCISE) == 0


@pytest.mark.parametrize("design", ["concise", "verbose", "baseline_default"])
def test_golden_prompts(design, car_example, car_catalog, car_matches):
    prompt = render(PromptDesignId(design), car_example, car_catalog, car_matches)
    assert prompt.text == read_golden(design)


def test_concise_landmarks(car_example, car_catalog, car_matches):
    text = render(PromptDesignId.CONCISE, car_example, car_catalog, car_matches).text
    assert text.startswith("This is a task converting text into SQL statement.")
    assert "[Schema (values)]: | car_1 | continents : contid , continent" in text
    assert "[Foreign Keys]: countries : continent equals continents : contid" in text
    assert "make ( amc hornet , amc hornet sportabout (sw) )" in text


def test_verbose_landmarks(car_example, car_catalog, car_matches):
    text = render(PromptDesignId.VERBOSE, car_example, car_catalog, car_matches).text
    assert "There are 6 tables." in text
    assert "Table 5 is car_names, and its column names and types are: MakeId (Type is number)" in text
    assert "Use foreign keys to join Tables." in text


def test_baseline_landmarks(car_example, car_catalog, car_matches):
    text = render(PromptDesignId.BASELINE_DEFAULT, car_example, car_catalog, car_matches).text
    assert text.startswith("Complete sqlite SQL query only and with no explanation")
    assert text.endswith("SELECT")


def test_suffixes(car_example, car_catalog, car_matches):
    for design in list(PromptDesignId):
        text = render(design, car_example, car_catalog, car_matches).text
        assert text.endswith(ELICITATION_SUFFIX[design])


def test_render_is_deterministic(car_example, car_catalog, car_matches):
    first = render(PromptDesignId.CONCISE, car_example, car_catalog, car_matches)
    second = render(PromptDesignId.CONCISE, car_example, car_catalog, car_matches)
    assert first.text == second.text
    assert first.content_hash == second.content_hash == content_hash_of(first.text)


def test_designs_differ(car_example, car_catalog, car_matches):
    texts = {
        design: render(design, car_example, car_catalog, car_matches).text
        for design in list(PromptDesignId)
    }
    assert len(set(texts.values())) == 3


def test_every_table_and_column_appears(dev_examples, catalogs):
    by_id = {c.db_id: c for c in catalogs}
    for example in dev_examples:
        catalog = by_id[example.db_id]
        matches = link_values(example.question, catalog)
        for design in (PromptDesignId.CONCISE, PromptDesignId.VERBOSE):
            text = render(design, example, catalog, matches).text.lower()
            for table in catalog.tables:
                assert table.name.lower() in text
                for column in table.columns:
                    assert column.name.lower() in text


def _demo_set(dev_examples, catalogs, count):
    by_id = {c.db_id: c for c in catalogs}
    chosen = [e for e in dev_examples if e.db_id == "singer" and e.gold_sql][:count]
    matches = tuple(
        tuple(link_values(e.question, by_id[e.db_id])) for e in chosen
    )
    return DemoSet(
        demos=tuple((e, e.gold_sql) for e in chosen),
        catalogs={"singer": by_id["singer"]},
        matches=matches,
    )


def test_four_shot_contains_zero_shot(car_example, car_catalog, car_matches, dev_examples, catalogs):
    demos = _demo_set(dev_examples, catalogs, 4)
    assert demos.shots == 4
    for design in list(PromptDesignId):
        zero = render(design, car_example, car_catalog, car_matches).text
        four = render(design, car_example, car_catalog, car_matches, demos).text
        assert zero in four
        assert four.endswith(zero)
        assert four != zero


@pytest.mark.parametrize("design", ["concise", "verbose", "baseline_default"])
def test_two_shot_golden_prompts(design, car_example, car_catalog, car_matches, dev_examples, catalogs):
    demos = _demo_set(dev_examples, catalogs, 2)
    prompt = render(PromptDesignId(design), car_example, car_catalog, car_matches, demos)
    assert prompt.text == read_golden(design, "car_1__000000__2shot.txt")


def test_demo_set_renders_later_questions_as_a_fresh_one(
    car_example, car_catalog, car_matches, dev_examples, catalogs, singer_catalog
):
    """Demo blocks kept from earlier prompts give the bytes a new DemoSet renders, in every design."""
    shared = _demo_set(dev_examples, catalogs, 2)
    for design in PromptDesignId:
        render(design, car_example, car_catalog, car_matches, shared)
    question = [e for e in dev_examples if e.db_id == "singer"][2]  # not one of the two demos
    matches = link_values(question.question, singer_catalog)
    for design in PromptDesignId:
        fresh = render(design, question, singer_catalog, matches, _demo_set(dev_examples, catalogs, 2))
        assert render(design, question, singer_catalog, matches, shared) == fresh


def test_demo_blocks_carry_gold_sql(car_example, car_catalog, car_matches, dev_examples, catalogs):
    demos = _demo_set(dev_examples, catalogs, 2)
    text = render(PromptDesignId.CONCISE, car_example, car_catalog, car_matches, demos).text
    for _, gold in demos.demos:
        assert gold in text
    assert text.count("\n\n") >= 2


def test_baseline_demo_has_single_select(car_example, car_catalog, car_matches, dev_examples, catalogs):
    demos = _demo_set(dev_examples, catalogs, 1)
    text = render(PromptDesignId.BASELINE_DEFAULT, car_example, car_catalog, car_matches, demos).text
    assert "SELECTSELECT" not in text and "SELECT SELECT" not in text


def test_unknown_design():
    with pytest.raises(UnknownDesign):
        PromptDesignId.parse("cryptic")
    assert PromptDesignId.parse("verbose") is PromptDesignId.VERBOSE


def test_empty_catalog_rejected(car_example, car_catalog, car_matches):
    from dataclasses import replace

    empty = replace(car_catalog, tables=(), primary_keys=(), foreign_keys=())
    with pytest.raises(CatalogEmpty):
        render(PromptDesignId.CONCISE, car_example, empty, [])


def test_demo_set_rejects_empty_gold(dev_examples, catalogs):
    by_id = {c.db_id: c for c in catalogs}
    example = dev_examples[1]
    with pytest.raises(ValueError):
        DemoSet(demos=((example, ""),), catalogs={"singer": by_id["singer"]})
