from __future__ import annotations

import json
import random
import sqlite3

import pytest

from sqlvote.catalog import (
    ColumnType,
    catalog_from_sqlite,
    load_catalogs,
    load_examples,
)
from sqlvote.errors import (
    KeyIndexOutOfRange,
    MalformedDataset,
    MalformedManifest,
    MissingDbFile,
    UnknownDbId,
)

from conftest import CAR_MANIFEST, CAR_QUESTION


def test_car_catalog_tables(car_catalog):
    assert [t.name for t in car_catalog.tables] == [
        "continents", "countries", "car_makers", "model_list", "car_names", "cars_data",
    ]
    assert len(car_catalog.tables) == 6
    assert car_catalog.tables[5].columns[6].name == "Accelerate"
    assert car_catalog.tables[5].columns[1].data_type is ColumnType.TEXT


def test_key_resolution(car_catalog):
    # countries.Continent -> continents.ContId
    (child, parent) = car_catalog.foreign_keys[0]
    assert car_catalog.column(child).name == "Continent"
    assert car_catalog.tables[child[0]].name == "countries"
    assert car_catalog.column(parent).name == "ContId"
    assert (0, 0) in car_catalog.primary_keys


def test_empty_manifest(tmp_path):
    manifest = tmp_path / "tables.json"
    manifest.write_text("[]")
    assert load_catalogs(manifest, tmp_path) == []


def test_missing_db_file(tmp_path):
    manifest = tmp_path / "tables.json"
    manifest.write_text(json.dumps([CAR_MANIFEST]))
    with pytest.raises(MissingDbFile):
        load_catalogs(manifest, tmp_path)


def test_key_index_out_of_range(tmp_path, fixture_root):
    bad = json.loads(json.dumps(CAR_MANIFEST))
    bad["foreign_keys"].append([5, 99])
    manifest = tmp_path / "tables.json"
    manifest.write_text(json.dumps([bad]))
    with pytest.raises(KeyIndexOutOfRange):
        load_catalogs(manifest, fixture_root / "database")


def test_key_indexes_resolve_columns_listed_apart(tmp_path):
    """A manifest may list a table's columns apart: each key index names the column at that index."""
    entry = {
        "db_id": "ab",
        "table_names_original": ["a", "b"],
        "column_names_original": [[-1, "*"], [0, "a_id"], [1, "b_id"], [0, "b_ref"]],
        "column_types": ["text", "number", "number", "number"],
        "primary_keys": [1, 2],
        "foreign_keys": [[3, 2]],
    }
    (tmp_path / "ab").mkdir()
    (tmp_path / "ab" / "ab.sqlite").touch()
    manifest = tmp_path / "tables.json"
    manifest.write_text(json.dumps([entry]))
    (catalog,) = load_catalogs(manifest, tmp_path)
    assert [[c.name for c in t.columns] for t in catalog.tables] == [["a_id", "b_ref"], ["b_id"]]
    assert catalog.primary_keys == ((0, 0), (1, 0))
    assert catalog.foreign_keys == (((0, 1), (1, 0)),)
    for bad in (0, 4):  # '*', and one past the last column
        entry["foreign_keys"] = [[3, bad]]
        manifest.write_text(json.dumps([entry]))
        with pytest.raises(KeyIndexOutOfRange):
            load_catalogs(manifest, tmp_path)


def test_malformed_manifest(tmp_path):
    manifest = tmp_path / "tables.json"
    manifest.write_text(json.dumps([{"db_id": "x"}]))
    with pytest.raises(MalformedManifest):
        load_catalogs(manifest, tmp_path)


def test_manifest_nested_too_deep(tmp_path):
    manifest = tmp_path / "tables.json"
    manifest.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(MalformedManifest):
        load_catalogs(manifest, tmp_path)


def test_manifest_not_utf8(tmp_path):
    manifest = tmp_path / "tables.json"
    manifest.write_bytes(b"\xff\xfe[")
    with pytest.raises(MalformedManifest):
        load_catalogs(manifest, tmp_path)


def test_duplicate_table_name_rejected_on_load(tmp_path, fixture_root):
    entry = json.loads(json.dumps(CAR_MANIFEST))
    entry["table_names_original"][1] = entry["table_names_original"][0].upper()
    manifest = tmp_path / "tables.json"
    manifest.write_text(json.dumps([entry]))
    with pytest.raises(MalformedManifest, match="duplicate table name"):
        load_catalogs(manifest, fixture_root / "database")


def test_unknown_type_maps_to_others(tmp_path, fixture_root):
    entry = json.loads(json.dumps(CAR_MANIFEST))
    entry["column_types"][1] = "blob-ish"
    manifest = tmp_path / "tables.json"
    manifest.write_text(json.dumps([entry]))
    catalog = load_catalogs(manifest, fixture_root / "database")[0]
    assert catalog.tables[0].columns[0].data_type is ColumnType.OTHERS


def test_load_examples(fixture_root, catalogs):
    examples = load_examples(fixture_root / "dev.json", catalogs)
    assert examples[0].question == CAR_QUESTION
    assert examples[0].example_id == "000000"
    assert all(e.example_id == f"{i:06d}" for i, e in enumerate(examples))


def test_load_examples_missing_question(tmp_path):
    dataset = tmp_path / "dev.json"
    dataset.write_text(json.dumps([{"db_id": "car_1"}]))
    with pytest.raises(MalformedDataset):
        load_examples(dataset)


def test_load_examples_nested_too_deep(tmp_path):
    dataset = tmp_path / "dev.json"
    dataset.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(MalformedDataset):
        load_examples(dataset)


def test_load_examples_not_utf8(tmp_path):
    dataset = tmp_path / "dev.json"
    dataset.write_bytes(b"\xff\xfe[")
    with pytest.raises(MalformedDataset):
        load_examples(dataset)


def test_load_examples_unknown_db(tmp_path, catalogs):
    dataset = tmp_path / "dev.json"
    dataset.write_text(json.dumps([{"question": "q?", "db_id": "nope"}]))
    with pytest.raises(UnknownDbId):
        load_examples(dataset, catalogs)


def test_load_examples_count(tmp_path, catalogs):
    records = [
        {"question": f"question {i}?", "query": "SELECT 1", "db_id": "singer"}
        for i in range(1034)
    ]
    dataset = tmp_path / "dev.json"
    dataset.write_text(json.dumps(records))
    assert len(load_examples(dataset, catalogs)) == 1034


def test_load_is_deterministic(fixture_root):
    first = load_catalogs(fixture_root / "tables.json", fixture_root / "database")
    second = load_catalogs(fixture_root / "tables.json", fixture_root / "database")
    assert first == second


def _random_catalog_entry(rng: random.Random, db_id: str) -> dict:
    n_tables = rng.randint(1, 5)
    table_names = [f"t{i}" for i in range(n_tables)]
    column_names = [[-1, "*"]]
    column_types = ["text"]
    spans = []
    for t in range(n_tables):
        n_cols = rng.randint(1, 6)
        start = len(column_names)
        for c in range(n_cols):
            column_names.append([t, f"c{t}_{c}"])
            column_types.append(rng.choice(["number", "text", "time", "boolean", "others"]))
        spans.append((start, len(column_names)))
    primary_keys = [rng.randrange(*spans[t]) for t in range(n_tables) if rng.random() < 0.8]
    foreign_keys = []
    for _ in range(rng.randint(0, 4)):
        child_t = rng.randrange(n_tables)
        parent_t = rng.randrange(n_tables)
        foreign_keys.append([rng.randrange(*spans[child_t]), rng.randrange(*spans[parent_t])])
    return {
        "db_id": db_id,
        "table_names_original": table_names,
        "column_names_original": column_names,
        "column_types": column_types,
        "primary_keys": primary_keys,
        "foreign_keys": foreign_keys,
    }


def test_random_valid_catalogs_validate_clean(tmp_path):
    """Keys generated inside tables always load and resolve to columns."""
    rng = random.Random(20240811)
    entries = [_random_catalog_entry(rng, f"db{i}") for i in range(25)]
    manifest = tmp_path / "tables.json"
    manifest.write_text(json.dumps(entries))
    for entry in entries:
        folder = tmp_path / entry["db_id"]
        folder.mkdir()
        conn = sqlite3.connect(folder / f"{entry['db_id']}.sqlite")
        for t, table in enumerate(entry["table_names_original"]):
            cols = [name for tab, name in entry["column_names_original"] if tab == t]
            conn.execute(f'CREATE TABLE "{table}" ({", ".join(cols)})')
        conn.commit()
        conn.close()
    catalogs = load_catalogs(manifest, tmp_path)
    assert [c.db_id for c in catalogs] == [e["db_id"] for e in entries]
    for catalog in catalogs:
        for ref in catalog.primary_keys:
            assert catalog.column(ref) is not None
        for child, parent in catalog.foreign_keys:
            assert catalog.column(child) is not None
            assert catalog.column(parent) is not None


def test_catalog_from_sqlite(singer_catalog):
    introspected = catalog_from_sqlite(singer_catalog.db_path, "singer")
    assert [t.name for t in introspected.tables] == ["singer", "song"]
    assert introspected.tables[0].columns[0].name == "Singer_ID"
    assert set(introspected.primary_keys) == set(singer_catalog.primary_keys)
    assert set(introspected.foreign_keys) == set(singer_catalog.foreign_keys)
