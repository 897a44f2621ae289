"""The benchmark harness reaches into walkcover by attribute name: the
traced run wraps module attributes, its span notes read arguments and
results of the wrapped calls, and the child reads a few constants and
caches.  Parse both files, install nothing, and check that every name
they use still exists, so a rename in ``src/`` fails here rather than
only in the slow harness smoke test."""

import ast
import dataclasses
import importlib
import inspect
import pathlib
import typing

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _parse(path: pathlib.Path) -> tuple[ast.Module, dict[str, str]]:
    """The file's syntax tree, and the walkcover modules it imports by local name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "walkcover":
            modules.update({a.asname or a.name: f"walkcover.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names
                            if a.name == "walkcover"})
    return tree, modules


def _wraps(tree: ast.Module):
    """The ``wrap(module, "attr", name[, note])`` calls."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap" and isinstance(node.args[0], ast.Name)):
            assert isinstance(node.args[1], ast.Constant), ast.dump(node)
            yield node


def _names_used(path: pathlib.Path) -> set[tuple[str, str]]:
    """(module, attribute) pairs: ``wrap(module, "attr", ...)`` calls and
    attribute reads or writes on modules imported from walkcover."""
    tree, modules = _parse(path)
    used = {(modules[call.args[0].id], call.args[1].value) for call in _wraps(tree)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add((modules[node.value.id], node.attr))
    return used


def _note_reads(path: pathlib.Path) -> set[tuple[str, str, str, str | None]]:
    """(module, attribute, key, field) for every read a span note makes:
    ``a["key"]`` reads the wrapped function's argument ``key``, and
    ``a["key"].field`` or ``r.field`` (key "return") a field of the
    argument or the result.  A note is a lambda (args, result), given in
    place or bound to a name first."""
    tree, modules = _parse(path)
    lambdas = {target.id: node.value for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda)
               for target in node.targets}
    reads = set()
    for call in _wraps(tree):
        if len(call.args) < 4:
            continue
        note = call.args[3]
        note = lambdas[note.id] if isinstance(note, ast.Name) else note
        args, result = (a.arg for a in note.args.args)
        fn = (modules[call.args[0].id], call.args[1].value)

        def key_of(node):
            if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                    and node.value.id == args):
                return node.slice.value
            return "return" if isinstance(node, ast.Name) and node.id == result else None

        for node in ast.walk(note.body):
            if key_of(node) not in (None, "return"):
                reads.add((*fn, key_of(node), None))
            if isinstance(node, ast.Attribute) and key_of(node.value):
                reads.add((*fn, key_of(node.value), node.attr))
    return reads


def _has_field(tp, field: str) -> bool:
    return (dataclasses.is_dataclass(tp) and field in {f.name for f in dataclasses.fields(tp)}
            or hasattr(tp, field))


@pytest.mark.parametrize("filename", ["spans.py", "child.py"])
def test_every_harness_name_exists(filename):
    used = _names_used(PERFBENCH / filename)
    missing = sorted(f"{mod}.{attr}" for mod, attr in used
                     if not hasattr(importlib.import_module(mod), attr))
    assert not missing, f"perfbench/{filename} uses names walkcover lacks: {missing}"


def test_parser_sees_the_known_names():
    used = _names_used(PERFBENCH / "spans.py") | _names_used(PERFBENCH / "child.py")
    assert {("walkcover.cli", "run"), ("walkcover.comb", "check_cover_inequality"),
            ("walkcover.montecarlo", "walk_directions"),
            ("walkcover.montecarlo", "ThreadPoolExecutor"),
            ("walkcover.hitting", "truncation_bias_estimate"),
            ("walkcover.green", "_green_cached"),
            ("walkcover.montecarlo", "DEFAULT_BATCH"),
            ("walkcover.montecarlo", "DEFAULT_CHUNK"),
            ("walkcover.rng", "walk_words")} <= used


def test_every_note_read_exists():
    """Each key a note reads is a parameter of the wrapped function, and
    each field it reads is on the annotated type of that argument or of
    the result."""
    missing = []
    for module, attr, key, field in _note_reads(PERFBENCH / "spans.py"):
        fn = getattr(importlib.import_module(module), attr)
        where = f"{module}.{attr}"
        if key != "return" and key not in inspect.signature(fn).parameters:
            missing.append(f"{where} has no parameter {key!r}")
        elif field is not None and not _has_field(typing.get_type_hints(fn).get(key), field):
            missing.append(f"{where}'s {key} has no field {field!r}")
    assert not missing, f"perfbench/spans.py notes read what walkcover lacks: {missing}"


def test_parser_sees_the_known_reads():
    reads = {(attr, key, field) for _, attr, key, field in _note_reads(PERFBENCH / "spans.py")}
    assert {("mc_compare", "cfg", "n_walks"), ("mc_compare", "cfg", "L"),
            ("mc_cover_probability", "cfg", "threads"),
            ("green_value", "tol", None), ("green_value", "return", "abs_error_bound"),
            ("stepsum_green", "spec", "kind"),
            ("reflection_monotonicity_sweep", "return", "cases"),
            ("verify_staircase_max", "return", "rows")} <= reads
