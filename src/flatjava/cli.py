"""The `flatjava` command line, built on the standard library's argparse.

Exit codes: 0 on success, 1 when --strict and diagnostics were produced,
2 on a usage error, on paths with no Java source, on a source file that
cannot be read or is not valid UTF-8, or on lex/parse/model/flatten
errors, 3 on an internal error (any other exception, reported as one
`internal error:` line instead of a traceback). Errors follow a
first-error-per-file policy. Diagnostics are red (errors) or yellow
(warnings) when stderr is a terminal;
FLATJAVA_COLOR=0|1 forces coloring off or on. Each output line is flushed
as it is written, so stdout and stderr keep their order when mixed.

The cyclic garbage collector is paused while a command runs: the pipeline
builds large, long-lived trees that it would scan again and again, and a
command makes no reference cycles for it to free, so the pause cannot grow
memory. It is re-enabled afterwards, on every exit path, if it was on.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .advisory import APPLICATIONS, advise
from .emitter import emit
from .errors import Diagnostic, FlatJavaError
from .flattener import flatten_model
from .metrics import compare as compare_views
from .metrics import measure_flattened, measure_original
from .model import build_model, classify_members
from .parser import parse_source
from .report import (
    FORMATS,
    plan_document,  # noqa: F401 - benchmark/tracing.py wraps cli.plan_document
    plan_json,
    render_compare,
    render_metrics,
)
from .resolver import compute_access_graph

RED, YELLOW = 31, 33


def _echo(text: str, end: str = "\n", stream=None) -> None:
    stream = stream or sys.stdout
    stream.write(text + end)
    stream.flush()


def _echo_colored(text: str, color: int) -> None:
    forced = os.environ.get("FLATJAVA_COLOR")
    if forced == "1" or (forced != "0" and sys.stderr.isatty()):
        text = f"\x1b[{color}m{text}\x1b[0m"
    _echo(text, stream=sys.stderr)


def _echo_error(err: FlatJavaError) -> None:
    _echo_colored(f"error: {err}", RED)


def _collect_paths(paths: list[str]) -> list[Path]:
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


def _load(paths: list[str], include_object_root: bool):
    """Parse, build, and classify. Exits with code 2 on any error."""
    files = _collect_paths(paths)
    units = []
    failed = not files
    if failed:
        _echo_colored(f"error: no *.java files (other than *.flat.java) in {', '.join(paths)}", RED)
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            _echo_colored(f"error: cannot read {path}: {err}", RED)
            failed = True
            continue
        try:
            units.append(parse_source(text, str(path)))
        except FlatJavaError as err:
            _echo_error(err)
            failed = True
    if failed:
        raise SystemExit(2)
    try:
        model = classify_members(build_model(units, include_object_root))
        graph = compute_access_graph(model)
    except FlatJavaError as err:
        _echo_error(err)
        raise SystemExit(2)
    return model, graph


def _flatten(model, graph):
    """The flattened classes. Exits with code 2 on an error."""
    try:
        return flatten_model(model, graph)
    except FlatJavaError as err:
        _echo_error(err)
        raise SystemExit(2)


def _finish(model, flattened, strict: bool) -> None:
    """Report the model's and the flattened classes' diagnostics as warnings."""
    diagnostics: list[Diagnostic] = list(model.diagnostics)
    if flattened is not None:
        for name in model.order:
            diagnostics.extend(flattened[name].diagnostics)
    for diag in diagnostics:
        _echo_colored(f"warning: {diag.render()}", YELLOW)
    if strict and diagnostics:
        raise SystemExit(1)


def flatten(paths, out, provenance, strict, include_object_root) -> None:
    """Flatten classes and write one .flat.java per class plus a plan dump."""
    model, graph = _load(paths, include_object_root)
    flattened = _flatten(model, graph)

    out_dir = Path(out) if out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in model.order:
        info = model.classes[name]
        if info.synthetic:
            continue
        target_dir = out_dir if out_dir else Path(info.path).parent if info.path else Path(".")
        target = target_dir / f"{name}.flat.java"
        target.write_text(emit(flattened[name], provenance=provenance), encoding="utf-8")
        _echo(str(target))

    if out_dir:
        plan_dir = out_dir
    else:
        first = next(n for n in model.order if not model.classes[n].synthetic)
        plan_dir = Path(model.classes[first].path or ".").parent
    plan_path = plan_dir / "flatten.plan.json"
    plan_path.write_text(plan_json(flattened), encoding="utf-8")
    _echo(str(plan_path))
    _finish(model, flattened, strict)


def metrics(paths, view, fmt, strict, include_object_root) -> None:
    """Report size, cohesion, and coupling metrics for one view."""
    model, graph = _load(paths, include_object_root)
    names = [n for n in model.order if not model.classes[n].synthetic]
    if view == "original":
        flattened = None
        records = [measure_original(model, graph, name) for name in names]
    else:
        flattened = _flatten(model, graph)
        records = [measure_flattened(model, flattened[name]) for name in names]
    _echo(render_metrics(records, fmt), end="")
    _finish(model, flattened, strict)


def compare(paths, fmt, strict, include_object_root) -> None:
    """Report original vs. flattened metrics with per-class deltas and rule counts."""
    model, graph = _load(paths, include_object_root)
    flattened = _flatten(model, graph)
    _echo(render_compare(compare_views(model, graph, flattened), fmt), end="")
    _finish(model, flattened, strict)


def advise_cmd(application) -> None:
    """Recommend which view to measure for an application."""
    advisory = advise(application)
    _echo(f"application: {advisory.application}")
    _echo(f"recommended view: {advisory.view}")
    _echo(f"why: {advisory.justification}")


def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's parser, by command name."""

    def new(add, *args, **kwargs) -> argparse.ArgumentParser:
        # `--help` only, and no abbreviated long options.
        made = add(*args, add_help=False, allow_abbrev=False, **kwargs)
        made.add_argument("--help", action="help", help="Show this message and exit.")
        return made

    top = new(
        argparse.ArgumentParser, prog="flatjava",
        description="Flatten Java classes and compare quality metrics across views.",
    )
    subparsers = top.add_subparsers(dest="command", metavar="COMMAND", required=True)
    commands = {}
    for name, run in (("flatten", flatten), ("metrics", metrics), ("compare", compare),
                      ("advise", advise_cmd)):
        doc = run.__doc__
        commands[name] = new(subparsers.add_parser, name, help=doc, description=doc)
        commands[name].set_defaults(run=run)
    analyses = [commands[name] for name in ("flatten", "metrics", "compare")]
    commands["advise"].add_argument("application", choices=APPLICATIONS)
    for sub in analyses:
        sub.add_argument("paths", nargs="+", metavar="PATHS",
                         help="Java files, or directories to scan for *.java files.")
    commands["flatten"].add_argument("--out", help="Directory for emitted files.")
    commands["flatten"].add_argument(
        "--provenance", action="store_true", help="Comment each pulled member with its origin."
    )
    commands["metrics"].add_argument("--view", choices=["original", "flattened"], required=True)
    for sub in analyses[1:]:
        sub.add_argument("--format", dest="fmt", choices=FORMATS, default="json")
    for sub in analyses:
        sub.add_argument("--strict", action="store_true",
                         help="Treat diagnostics as errors (exit 1).")
        sub.add_argument("--include-object-root", action="store_true",
                         help="Model the implicit root class explicitly.")
    return top, commands


# Built once: building a parser, or formatting its usage text, leaves
# reference cycles behind, and a command must leave none.
_PARSER, _COMMANDS = _parser()


def _parse(args: list[str]) -> dict:
    """The chosen command's keyword arguments, with `run` the command.

    Exits with code 2 on a usage error. Paths may follow options, as in
    `flatten c1.java --strict c2.java`.
    """
    namespace, extra = _PARSER.parse_known_args(args)
    options = vars(namespace)
    usage = _COMMANDS[options.pop("command")]
    if extra:
        if "paths" not in options or any(arg.startswith("-") for arg in extra):
            usage.error(f"unrecognized arguments: {' '.join(extra)}")
        options["paths"] += extra
    for path in options.get("paths", ()):
        if not os.path.exists(path):
            usage.error(f"path {path!r} does not exist")
    out = options.get("out")
    if out and os.path.exists(out) and not os.path.isdir(out):
        usage.error(f"--out {out!r} is not a directory")
    return options


class _Command:
    """The `flatjava` command line.

    `main` takes the arguments of a click command's `main`, so click's
    `CliRunner` and in-process callers run it unchanged; `prog_name` and
    `standalone_mode` change nothing. Every outcome ends in `SystemExit`
    with the exit code except success, which returns None.
    """

    name = "flatjava"

    def main(self, args=None, prog_name=None, standalone_mode=True) -> None:
        options = _parse(sys.argv[1:] if args is None else list(args))
        run = options.pop("run")
        collecting = gc.isenabled()
        gc.disable()
        try:
            run(**options)
        except KeyboardInterrupt:
            _echo("\nAborted!", stream=sys.stderr)
            raise SystemExit(1)
        except Exception as err:
            # A fault of the tool, not of its input: keep it apart from exit 2.
            _echo_colored(f"internal error: {err!r}", RED)
            raise SystemExit(3)
        finally:
            if collecting:
                gc.enable()

    def __call__(self, *args, **kwargs) -> None:
        return self.main(*args, **kwargs)


main = _Command()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
