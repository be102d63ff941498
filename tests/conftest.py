"""Shared fixtures: three small Spider-layout databases plus manifest and datasets."""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from pathlib import Path

import pytest

CAR_QUESTION = "What is the accelerate of the car make amc hornet sportabout (sw)?"
CAR_GOLD = (
    "SELECT T1.Accelerate FROM CARS_DATA AS T1 JOIN CAR_NAMES AS T2 "
    "ON T1.Id = T2.MakeId WHERE T2.Make = 'amc hornet sportabout (sw)'"
)

CAR_MANIFEST = {
    "db_id": "car_1",
    "table_names_original": [
        "continents", "countries", "car_makers", "model_list", "car_names", "cars_data",
    ],
    "column_names_original": [
        [-1, "*"],
        [0, "ContId"], [0, "Continent"],
        [1, "CountryId"], [1, "CountryName"], [1, "Continent"],
        [2, "Id"], [2, "Maker"], [2, "FullName"], [2, "Country"],
        [3, "ModelId"], [3, "Maker"], [3, "Model"],
        [4, "MakeId"], [4, "Model"], [4, "Make"],
        [5, "Id"], [5, "MPG"], [5, "Cylinders"], [5, "Edispl"],
        [5, "Horsepower"], [5, "Weight"], [5, "Accelerate"], [5, "Year"],
    ],
    "column_types": [
        "text",
        "number", "text",
        "number", "text", "number",
        "number", "text", "text", "text",
        "number", "number", "text",
        "number", "text", "text",
        "number", "text", "number", "number", "text", "number", "number", "number",
    ],
    "primary_keys": [1, 3, 6, 10, 13, 16],
    "foreign_keys": [[5, 1], [9, 3], [11, 6], [14, 12], [16, 13]],
}

SINGER_MANIFEST = {
    "db_id": "singer",
    "table_names_original": ["singer", "song"],
    "column_names_original": [
        [-1, "*"],
        [0, "Singer_ID"], [0, "Name"], [0, "Birth_Year"],
        [0, "Net_Worth_Millions"], [0, "Citizenship"],
        [1, "Song_ID"], [1, "Title"], [1, "Singer_ID"], [1, "Sales"],
    ],
    "column_types": [
        "text",
        "number", "text", "number", "number", "text",
        "number", "text", "number", "number",
    ],
    "primary_keys": [1, 6],
    "foreign_keys": [[8, 1]],
}

FEATURES_MANIFEST = {
    "db_id": "features",
    "table_names_original": ["Ref_Feature_Types", "Other_Available_Features"],
    "column_names_original": [
        [-1, "*"],
        [0, "feature_type_code"], [0, "feature_type_name"],
        [1, "feature_id"], [1, "feature_type_code"],
        [1, "feature_name"], [1, "feature_description"],
    ],
    "column_types": [
        "text",
        "text", "text",
        "number", "text", "text", "text",
    ],
    "primary_keys": [1, 3],
    "foreign_keys": [[4, 1]],
}


def _build_car_db(path: Path) -> None:
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE continents (ContId NUMERIC, Continent TEXT, PRIMARY KEY (ContId));
        CREATE TABLE countries (
            CountryId NUMERIC, CountryName TEXT, Continent NUMERIC,
            PRIMARY KEY (CountryId),
            FOREIGN KEY (Continent) REFERENCES continents (ContId));
        CREATE TABLE car_makers (
            Id NUMERIC, Maker TEXT, FullName TEXT, Country TEXT,
            PRIMARY KEY (Id),
            FOREIGN KEY (Country) REFERENCES countries (CountryId));
        CREATE TABLE model_list (
            ModelId NUMERIC, Maker NUMERIC, Model TEXT,
            PRIMARY KEY (ModelId),
            FOREIGN KEY (Maker) REFERENCES car_makers (Id));
        CREATE TABLE car_names (
            MakeId NUMERIC, Model TEXT, Make TEXT,
            PRIMARY KEY (MakeId),
            FOREIGN KEY (Model) REFERENCES model_list (Model));
        CREATE TABLE cars_data (
            Id NUMERIC, MPG TEXT, Cylinders NUMERIC, Edispl NUMERIC,
            Horsepower TEXT, Weight NUMERIC, Accelerate NUMERIC, Year NUMERIC,
            PRIMARY KEY (Id),
            FOREIGN KEY (Id) REFERENCES car_names (MakeId));
        """
    )
    conn.executemany("INSERT INTO continents VALUES (?, ?)", [
        (1, "america"), (2, "europe"), (3, "asia"),
    ])
    conn.executemany("INSERT INTO countries VALUES (?, ?, ?)", [
        (1, "usa", 1), (2, "germany", 2), (3, "france", 2), (4, "japan", 3),
    ])
    conn.executemany("INSERT INTO car_makers VALUES (?, ?, ?, ?)", [
        (1, "amc", "American Motor Company", "1"),
        (2, "volkswagen", "Volkswagen", "2"),
        (3, "bmw", "BMW", "2"),
        (4, "gm", "General Motors", "1"),
    ])
    conn.executemany("INSERT INTO model_list VALUES (?, ?, ?)", [
        (1, 1, "amc"), (2, 2, "volkswagen"), (3, 3, "bmw"), (4, 4, "chevrolet"),
    ])
    conn.executemany("INSERT INTO car_names VALUES (?, ?, ?)", [
        (1, "amc", "amc hornet"),
        (2, "amc", "amc hornet sportabout (sw)"),
        (3, "chevrolet", "chevrolet chevelle malibu"),
        (4, "bmw", "bmw 2002"),
        (5, "volkswagen", "volkswagen model 111"),
    ])
    conn.executemany("INSERT INTO cars_data VALUES (?, ?, ?, ?, ?, ?, ?, ?)", [
        (1, "18", 6, 199.0, "97", 2774, 15.5, 1970),
        (2, "18", 8, 304.0, "150", 3672, 11.5, 1970),
        (3, "17", 8, 307.0, "130", 3504, 12.0, 1970),
        (4, "26", 4, 121.0, "113", 2234, 12.5, 1970),
        (5, "27", 4, 97.0, "60", 1834, 19.0, 1971),
    ])
    conn.commit()
    conn.close()


def _build_singer_db(path: Path) -> None:
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE singer (
            Singer_ID NUMERIC, Name TEXT, Birth_Year NUMERIC,
            Net_Worth_Millions NUMERIC, Citizenship TEXT,
            PRIMARY KEY (Singer_ID));
        CREATE TABLE song (
            Song_ID NUMERIC, Title TEXT, Singer_ID NUMERIC, Sales NUMERIC,
            PRIMARY KEY (Song_ID),
            FOREIGN KEY (Singer_ID) REFERENCES singer (Singer_ID));
        """
    )
    conn.executemany("INSERT INTO singer VALUES (?, ?, ?, ?, ?)", [
        (1, "Liz Brown", 1948, 25.0, "France"),
        (2, "Mary Lane", 1949, 30.0, "England"),
        (3, "Ada Pound", 1942, 18.0, "France"),
        (4, "Tom Reed", 1958, 40.0, "France"),
        (5, "Joe Stone", 1945, 12.0, "Poland"),
        (6, "Pat Quinn", 1956, 22.0, "England"),
    ])
    conn.executemany("INSERT INTO song VALUES (?, ?, ?, ?)", [
        (1, "Do It", 1, 150000),
        (2, "Go On", 2, 350000),
        (3, "Run Far", 4, 500000),
        (4, "Stay Low", 5, 120000),
        (5, "Rise Up", 6, 280000),
        (6, "Red Sky", 1, 90000),
    ])
    conn.commit()
    conn.close()


def _build_features_db(path: Path) -> None:
    conn = sqlite3.connect(path)
    conn.executescript(
        """
        CREATE TABLE Ref_Feature_Types (
            feature_type_code TEXT, feature_type_name TEXT,
            PRIMARY KEY (feature_type_code));
        CREATE TABLE Other_Available_Features (
            feature_id NUMERIC, feature_type_code TEXT,
            feature_name TEXT, feature_description TEXT,
            PRIMARY KEY (feature_id),
            FOREIGN KEY (feature_type_code) REFERENCES Ref_Feature_Types (feature_type_code));
        """
    )
    conn.executemany("INSERT INTO Ref_Feature_Types VALUES (?, ?)", [
        ("Amenity", "Amenity, eg Pool."),
        ("Security", "Securiy, eg Burglar Alarm."),
    ])
    conn.executemany("INSERT INTO Other_Available_Features VALUES (?, ?, ?, ?)", [
        (2, "Amenity", "AirCon", "Air Conditioning."),
        (3, "Security", "BurglarAlarm", "Burglar Alarm"),
        (4, "Amenity", "Pool", "Swimming Pool."),
    ])
    conn.commit()
    conn.close()


SINGER_QUESTIONS = [
    {
        "question": "What are the names of the singers whose birth years are either 1948 or 1949?",
        "query": "SELECT Name FROM singer WHERE Birth_Year  =  1948 OR Birth_Year  =  1949",
        "db_id": "singer",
    },
    {
        "question": "What is the name of the singer with the largest net worth?",
        "query": "SELECT Name FROM singer ORDER BY Net_Worth_Millions DESC LIMIT 1",
        "db_id": "singer",
    },
    {
        "question": "Show different citizenship of singers and the number of singers of each citizenship.",
        "query": "SELECT Citizenship ,  COUNT(*) FROM singer GROUP BY Citizenship",
        "db_id": "singer",
    },
    {
        "question": "Show titles of songs and names of singers.",
        "query": (
            "SELECT T2.Title ,  T1.Name FROM singer AS T1 JOIN song AS T2 "
            "ON T1.Singer_ID  =  T2.Singer_ID"
        ),
        "db_id": "singer",
    },
    {
        "question": "List the name of singers that do not have any song.",
        "query": "SELECT Name FROM singer WHERE Singer_ID NOT IN (SELECT Singer_ID FROM song)",
        "db_id": "singer",
    },
]


@pytest.fixture(scope="session")
def fixture_root(tmp_path_factory) -> Path:
    """Spider-layout workspace: manifest, datasets, and one sqlite file per db."""
    root = tmp_path_factory.mktemp("spider_fixture")
    db_dir = root / "database"
    for db_id, builder in [
        ("car_1", _build_car_db),
        ("singer", _build_singer_db),
        ("features", _build_features_db),
    ]:
        folder = db_dir / db_id
        folder.mkdir(parents=True)
        builder(folder / f"{db_id}.sqlite")

    (root / "tables.json").write_text(
        json.dumps([CAR_MANIFEST, SINGER_MANIFEST, FEATURES_MANIFEST], indent=2),
        encoding="utf-8",
    )
    dev = [{"question": CAR_QUESTION, "query": CAR_GOLD, "db_id": "car_1"}] + SINGER_QUESTIONS
    (root / "dev.json").write_text(json.dumps(dev, indent=2), encoding="utf-8")
    (root / "mini_dev.json").write_text(json.dumps(SINGER_QUESTIONS, indent=2), encoding="utf-8")
    return root


@pytest.fixture(scope="session")
def catalogs(fixture_root):
    from sqlvote.catalog import load_catalogs

    return load_catalogs(fixture_root / "tables.json", fixture_root / "database")


@pytest.fixture(scope="session")
def car_catalog(catalogs):
    return catalogs[0]


@pytest.fixture(scope="session")
def singer_catalog(catalogs):
    return catalogs[1]


@pytest.fixture(scope="session")
def features_catalog(catalogs):
    return catalogs[2]


@pytest.fixture(scope="session")
def dev_examples(fixture_root, catalogs):
    from sqlvote.catalog import load_examples

    return load_examples(fixture_root / "dev.json", catalogs)


# A settle window for database digest records that covers the timestamp tick of
# usual filesystems and is short enough for tests to wait out.
SHORT_SETTLE_NS = 50_000_000


def wait_to_settle() -> None:
    time.sleep(SHORT_SETTLE_NS * 1.2 / 1e9)


@pytest.fixture()
def short_settle(monkeypatch):
    """The short settle window in place of the two-second one; returns the wait."""
    from sqlvote import gateway

    monkeypatch.setattr(gateway, "_SETTLE_NS", SHORT_SETTLE_NS)
    return wait_to_settle


@pytest.fixture()
def hashed_files(monkeypatch):
    """Names of the files `hashlib.file_digest` reads (the database digests), in call order."""
    hashed = []
    file_digest = hashlib.file_digest

    def counting(handle, name):
        hashed.append(handle.name)
        return file_digest(handle, name)

    monkeypatch.setattr(hashlib, "file_digest", counting)
    return hashed


@pytest.fixture()
def record_reads(monkeypatch):
    """Paths of the JSON records (pool and digest) the gateway opens for reading, found or not, in call order."""
    from sqlvote import gateway

    reads = []

    def counting(path, mode="r", *args, **kwargs):
        if mode == "rb" and str(path).endswith(".json"):
            reads.append(Path(path))
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(gateway, "open", counting, raising=False)
    return reads


GOLDEN_DIR = Path(__file__).parent / "testdata" / "goldens"


def read_golden(design: str, name: str = "car_1__000000.txt") -> str:
    raw = (GOLDEN_DIR / design / name).read_text(encoding="utf-8")
    return raw.replace("\r\n", "\n")
