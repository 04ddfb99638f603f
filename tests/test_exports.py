"""Every exported name resolves, and so does every name the benchmark reads.

The benchmark's tracer looks the functions it wraps up by name, so a
deletion that drops one of them would stop the benchmark; these checks
fail first.
"""
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import jknet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("adaptation", "cli", "dynamics", "experiments", "graph",
           "signed_model")


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"jknet.{module}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_every_name_the_package_imports_resolves():
    tree = ast.parse(Path(jknet.__file__).read_text(encoding="utf-8"))
    imports = [(node.module, alias.name) for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert imports
    for module, name in imports:
        mod = importlib.import_module(f"jknet.{module}")
        assert getattr(jknet, name) is getattr(mod, name)
        # the package re-exports only its modules' public names
        assert name in getattr(mod, "__all__", (name,)), (module, name)


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_name_the_tracer_wraps_resolves():
    spans = _load("spans")
    for home, attr, _, _ in spans.TRACED:
        assert callable(getattr(getattr(jknet, home), attr)), (home, attr)
    for home in spans.MODULES:
        assert hasattr(jknet, home)
    # the two wrappers the tracer installs beside TRACED
    assert callable(jknet.experiments.run_adaptive)
    assert callable(jknet.graph.InteractionMatrix.__post_init__)


def test_every_name_the_workloads_read_resolves():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    chains = []
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in MODULES:
            chains.append((node.id, parts))
    assert chains
    for home, parts in chains:
        obj = getattr(jknet, home)
        for part in parts:
            assert hasattr(obj, part), (home, parts)
            obj = getattr(obj, part)


def _functions(body, prefix):
    """``(qualified name, node)`` of each function and method in ``body``."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}.{node.name}")


def test_only_the_solver_and_the_record_builders_read_the_record():
    # a graph's _Record is the flow-limit solver's: the solve and the
    # steps that build a record read it, and no graph query does, so a
    # query answers alike on a graph with and without one
    readers = set()
    for path in sorted(Path(jknet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        readers |= {name for name, fn in _functions(tree.body, path.stem)
                    if any(isinstance(node, ast.Attribute) and node.attr == "_record"
                           for node in ast.walk(fn))}
    assert readers == {"dynamics._nilpotent_limit", "dynamics._dominant_direction",
                       "dynamics._flow_limit", "graph._Record.form",
                       "graph.resample_vertex"}


def test_no_solver_takes_a_tolerance():
    # every solve stops at graph.TOL; integrate's step-doubling tol is the
    # one error bound a caller sets
    takes = []
    for module in ("adaptation", "dynamics", "graph"):
        mod = importlib.import_module(f"jknet.{module}")
        takes += [f"{module}.{name}" for name in mod.__all__
                  if inspect.isfunction(getattr(mod, name))
                  and "tol" in inspect.signature(getattr(mod, name)).parameters]
    assert takes == ["dynamics.integrate"]
    flags = importlib.import_module("jknet.cli").FLAGS
    assert "tol" not in {flag.dest for flag in flags}
