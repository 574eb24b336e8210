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


def _resolved(units, include_object_root: bool):
    """The classified model of `units` and its access graph; building the
    graph gives each member record its resolution."""
    model = classify_members(build_model(units, include_object_root))
    return model, compute_access_graph(model)


def load_graph(name: str, include_object_root: bool = False):
    """The fixture's (model, access graph)."""
    return _resolved(load_units(name), include_object_root)


def load_model(name: str, include_object_root: bool = False):
    """The fixture's model, every member record resolved."""
    return load_graph(name, include_object_root)[0]


def flatten_fixture(name: str):
    model = load_model(name)
    return model, flatten_model(model)


def golden_path(name: str, class_name: str) -> Path:
    return FIXTURES_DIR / name / "expected" / f"{class_name}.flat.java"


def graph_from_sources(*sources: str, include_object_root: bool = False):
    """The (model, access graph) of `sources`."""
    units = [parse_source(src, f"<mem{i}>") for i, src in enumerate(sources)]
    return _resolved(units, include_object_root)


def model_from_sources(*sources: str, include_object_root: bool = False):
    """The model of `sources`, every member record resolved."""
    return graph_from_sources(*sources, include_object_root=include_object_root)[0]
