"""Command-line driver.

Exit codes: 0 on success, 1 when --strict and diagnostics were produced,
2 on lex/parse/model/flatten errors, 3 on an internal error (any other
exception, reported as one `internal error:` line instead of a traceback).
Errors follow a first-error-per-file policy. FLATJAVA_COLOR=0|1 forces
diagnostics coloring off or on.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import click

from .advisory import APPLICATIONS, advise
from .emitter import EmitOptions, emit
from .errors import Diagnostic, FlatJavaError
from .flattener import flatten_model
from .metrics import compare as compare_views
from .metrics import measure_flattened, measure_original
from .model import build_model, classify_members
from .parser import parse_source
from .report import (
    FORMATS,
    dump_json,
    plan_document,
    render_compare,
    render_metrics,
)
from .resolver import compute_access_graph


def _color() -> bool | None:
    value = os.environ.get("FLATJAVA_COLOR")
    if value == "0":
        return False
    if value == "1":
        return True
    return None


def _echo_error(err: FlatJavaError) -> None:
    click.secho(f"error: {err}", fg="red", err=True, color=_color())


def _echo_diagnostics(diagnostics: list[Diagnostic]) -> None:
    for diag in diagnostics:
        click.secho(f"warning: {diag.render()}", fg="yellow", err=True, color=_color())


def _collect_paths(paths: tuple[str, ...]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            # Skip our own outputs so re-running over a directory stays stable.
            files.extend(
                p for p in sorted(path.glob("*.java")) if not p.name.endswith(".flat.java")
            )
        else:
            files.append(path)
    return files


def _load(paths: tuple[str, ...], include_object_root: bool):
    """Parse, build, and classify. Exits with code 2 on any error."""
    files = _collect_paths(paths)
    units = []
    failed = False
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as err:
            click.secho(f"error: cannot read {path}: {err}", fg="red", err=True, color=_color())
            failed = True
            continue
        try:
            units.append(parse_source(text, str(path)))
        except FlatJavaError as err:
            err.path = err.path or str(path)
            _echo_error(err)
            failed = True
    if failed or not units:
        raise SystemExit(2)
    try:
        model = classify_members(build_model(units, include_object_root))
        graph = compute_access_graph(model)
    except FlatJavaError as err:
        _echo_error(err)
        raise SystemExit(2)
    return model, graph


def _finish(diagnostics: list[Diagnostic], strict: bool) -> None:
    _echo_diagnostics(diagnostics)
    if strict and diagnostics:
        raise SystemExit(1)


class _Guarded(click.Group):
    """Turns an exception that escapes a command into exit code 3."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit, click.Abort):
            raise
        except Exception as err:
            # A fault of the tool, not of its input: keep it apart from exit 2.
            click.secho(f"internal error: {err!r}", fg="red", err=True, color=_color())
            raise SystemExit(3)


@click.group(cls=_Guarded)
def main() -> None:
    """Flatten Java classes and compare quality metrics across views."""


@main.command()
@click.argument("paths", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--out", type=click.Path(file_okay=False), help="Directory for emitted files.")
@click.option("--provenance", is_flag=True, help="Comment each pulled member with its origin.")
@click.option("--strict", is_flag=True, help="Treat diagnostics as errors (exit 1).")
@click.option("--include-object-root", is_flag=True, help="Model the implicit root class explicitly.")
def flatten(paths, out, provenance, strict, include_object_root) -> None:
    """Flatten classes and write one .flat.java per class plus a plan dump."""
    model, graph = _load(paths, include_object_root)
    try:
        flattened = flatten_model(model, graph)
    except FlatJavaError as err:
        _echo_error(err)
        raise SystemExit(2)

    out_dir = Path(out) if out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    options = EmitOptions(provenance=provenance)
    for name in model.order:
        info = model.classes[name]
        if info.synthetic:
            continue
        target_dir = out_dir if out_dir else Path(info.path).parent if info.path else Path(".")
        target = target_dir / f"{name}.flat.java"
        target.write_text(emit(flattened[name], options), encoding="utf-8")
        click.echo(str(target))

    plan = plan_document(flattened)
    if out_dir:
        plan_dir = out_dir
    else:
        first = next(n for n in model.order if not model.classes[n].synthetic)
        plan_dir = Path(model.classes[first].path or ".").parent
    plan_path = plan_dir / "flatten.plan.json"
    plan_path.write_text(dump_json(plan), encoding="utf-8")
    click.echo(str(plan_path))

    diagnostics = list(model.diagnostics)
    for name in model.order:
        diagnostics.extend(flattened[name].diagnostics)
    _finish(diagnostics, strict)


@main.command()
@click.argument("paths", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--view", type=click.Choice(["original", "flattened"]), required=True)
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="json", show_default=True)
@click.option("--strict", is_flag=True, help="Treat diagnostics as errors (exit 1).")
@click.option("--include-object-root", is_flag=True)
def metrics(paths, view, fmt, strict, include_object_root) -> None:
    """Report size, cohesion, and coupling metrics for one view."""
    model, graph = _load(paths, include_object_root)
    diagnostics = list(model.diagnostics)
    records = []
    if view == "original":
        for name in model.order:
            if model.classes[name].synthetic:
                continue
            records.append(measure_original(model, graph, name))
    else:
        try:
            flattened = flatten_model(model, graph)
        except FlatJavaError as err:
            _echo_error(err)
            raise SystemExit(2)
        for name in model.order:
            if model.classes[name].synthetic:
                continue
            records.append(measure_flattened(model, flattened[name]))
            diagnostics.extend(flattened[name].diagnostics)
    click.echo(render_metrics(records, fmt), nl=False)
    _finish(diagnostics, strict)


@main.command()
@click.argument("paths", nargs=-1, required=True, type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="json", show_default=True)
@click.option("--strict", is_flag=True, help="Treat diagnostics as errors (exit 1).")
@click.option("--include-object-root", is_flag=True)
def compare(paths, fmt, strict, include_object_root) -> None:
    """Report original vs. flattened metrics with per-class deltas and rule counts."""
    model, graph = _load(paths, include_object_root)
    try:
        flattened = flatten_model(model, graph)
    except FlatJavaError as err:
        _echo_error(err)
        raise SystemExit(2)
    rows = compare_views(model, graph, flattened)
    click.echo(render_compare(rows, fmt), nl=False)
    diagnostics = list(model.diagnostics)
    for name in model.order:
        diagnostics.extend(flattened[name].diagnostics)
    _finish(diagnostics, strict)


@main.command("advise")
@click.argument("application", type=click.Choice(APPLICATIONS))
def advise_cmd(application) -> None:
    """Recommend which view to measure for an application."""
    advisory = advise(application)
    click.echo(f"application: {advisory.application}")
    click.echo(f"recommended view: {advisory.view}")
    click.echo(f"why: {advisory.justification}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
