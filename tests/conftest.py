import gc
import importlib.resources
from pathlib import Path

import pytest

from evflow.eventmodel import EventModel
from evflow.lang.parser import parse


def corpus_dir() -> Path:
    return Path(importlib.resources.files("evflow")) / "corpus"


def load_corpus_entry(name: str):
    """Parse corpus program `name` with its sidecar model, if any."""
    base = corpus_dir()
    model_path = base / f"{name}.model.json"
    model = EventModel.from_json_file(model_path) if model_path.exists() \
        else EventModel.default()
    source = (base / f"{name}.evl").read_text(encoding="utf-8")
    return parse(source, filename=f"{name}.evl", model=model), model


@pytest.fixture
def door():
    return load_corpus_entry("door")


@pytest.fixture
def dirstat():
    return load_corpus_entry("dirstat")


@pytest.fixture
def timer():
    return load_corpus_entry("timer")


@pytest.fixture
def server():
    return load_corpus_entry("server")


CORPUS_NAMES = ("door", "dirstat", "timer", "server")


def pytest_collection_finish(session):
    """Move what collection built (modules, test items, parametrize ids,
    `evbench/tests` included) out of the collector's reach.  A full
    collection during a test then walks only what the tests made, not
    the runner's own heap, so a timed span that happens to host one
    (`evbench`'s traced layers) is charged far less for it."""
    gc.collect()
    gc.freeze()
