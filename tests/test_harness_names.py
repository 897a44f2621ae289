"""The benchmark harness reaches into walkcover by attribute name: the
traced run wraps module attributes and the child reads a few constants
and caches.  Parse both files, install nothing, and check that every
name they use still exists, so a rename in ``src/`` fails here rather
than only in the slow harness smoke test."""

import ast
import importlib
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _names_used(path: pathlib.Path) -> set[tuple[str, str]]:
    """(module, attribute) pairs: ``wrap(module, "attr", ...)`` calls and
    attribute reads or writes on modules imported from walkcover."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "walkcover":
            modules.update({a.asname or a.name: f"walkcover.{a.name}" for a in node.names})
        elif isinstance(node, ast.Import):
            modules.update({a.asname or a.name: a.name for a in node.names
                            if a.name == "walkcover"})
    used = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add((modules[node.value.id], node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "wrap" and isinstance(node.args[0], ast.Name)):
            name = node.args[1]
            assert isinstance(name, ast.Constant), ast.dump(node)
            used.add((modules[node.args[0].id], name.value))
    return used


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
