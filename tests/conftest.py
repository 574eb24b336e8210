"""Shared fixture-corpus loaders."""

from __future__ import annotations

from pathlib import Path

from flatjava import (
    build_model,
    classify_members,
    compute_access_graph,
    flatten_model,
    parse_source,
)

FIXTURES_DIR = Path(__file__).parent / "fixtures"

# Flattenable corpus: every directory except the deliberately broken inputs.
CORPUS = sorted(
    d.name
    for d in FIXTURES_DIR.iterdir()
    if d.is_dir() and d.name not in ("invalid", "modelbad")
)


def fixture_files(name: str) -> list[Path]:
    return sorted((FIXTURES_DIR / name).glob("*.java"))


def fixture_sources(name: str) -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in fixture_files(name)}


def load_units(name: str):
    return [
        parse_source(p.read_text(encoding="utf-8"), str(p)) for p in fixture_files(name)
    ]


def load_model(name: str, include_object_root: bool = False):
    model = classify_members(build_model(load_units(name), include_object_root))
    graph = compute_access_graph(model)
    return model, graph


def flatten_fixture(name: str):
    model, graph = load_model(name)
    return model, graph, flatten_model(model, graph)


def golden_path(name: str, class_name: str) -> Path:
    return FIXTURES_DIR / name / "expected" / f"{class_name}.flat.java"


def model_from_sources(*sources: str, include_object_root: bool = False):
    units = [parse_source(src, f"<mem{i}>") for i, src in enumerate(sources)]
    model = classify_members(build_model(units, include_object_root))
    return model, compute_access_graph(model)
