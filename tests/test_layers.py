"""Import layering of the package, checked on the source with ast.

The samplers run on their own index-list kernel, so they must not reach
back to the paper's tensor formulation (`tensors`) or up to the trainer
(`learn`), and only the kernel's constructor reads the constraint objects;
`metrics` and `problems` sit below the trainer as well. The reference oracle
stays independent of the sampler kernel it checks and of the trainer, and
`cnf` is the bottom layer: it imports no other cmrf module. The package root
re-exports nothing, so a fresh process that imports a lower layer loads only
that layer and the ones below it, and every dotted `cmrf.` name in README.md
resolves at its module path. In `rng`, every
draw is a keyed view of one splitmix chain: no class holds generator state,
and only `hash_u64` calls the mixer. The sampler settings and statistics
have pinned fields, so a new knob or counter has to edit a test.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import cmrf
from cmrf.samplers import SamplerConfig, SamplerStats

PACKAGE = Path(cmrf.__file__).parent


def _package_imports(module: str) -> set[str]:
    """Names of the cmrf modules that `module` imports, however spelled."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names if a.name.startswith("cmrf."))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("cmrf"):
                continue
            base = (node.module or "").removeprefix("cmrf").lstrip(".")
            if base:
                out.add(base.split(".")[0])
            else:
                out.update(a.name for a in node.names)
    return out


def test_import_scan_is_not_vacuous():
    found = _package_imports("learn")
    assert {"cnf", "model", "oracle", "rng", "samplers"} <= found


@pytest.mark.parametrize(
    "module, forbidden",
    [
        ("samplers", {"tensors", "learn"}),
        ("metrics", {"learn"}),
        ("oracle", {"samplers", "learn"}),
        ("problems", {"learn"}),
    ],
)
def test_lower_layers_do_not_import_upward(module, forbidden):
    assert not _package_imports(module) & forbidden


def test_cnf_is_the_bottom_layer():
    assert _package_imports("cnf") == set()


def _attribute_readers(module: str, attrs: set[str]) -> set[str]:
    """Qualified names of the functions in `module` that read any of `attrs`."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Attribute) and child.attr in attrs:
                found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8")), ())
    return found


def test_only_the_kernel_reads_constraints():
    readers = _attribute_readers("samplers", {"clauses", "exactly_one_groups", "literals"})
    assert readers == {"_ConstraintKernel.__init__"}


def test_rng_is_one_stateless_chain():
    tree = ast.parse((PACKAGE / "rng.py").read_text(encoding="utf-8"))
    assert not [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    callers = {
        fn.name
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_mix"
    }
    assert callers == {"hash_u64"}


def test_sampler_settings_and_stats_are_pinned():
    assert [f.name for f in fields(SamplerConfig)] == [
        "batch_size", "seed", "t_tryout", "gibbs_burn_in", "row_offset"]
    assert [f.name for f in fields(SamplerStats)] == [
        "rounds_per_row", "per_constraint_resamples"]


@pytest.mark.parametrize(
    "module, loaded",
    [
        ("cnf", {"cnf"}),
        ("samplers", {"cnf", "model", "rng", "samplers"}),
    ],
)
def test_importing_a_layer_loads_only_the_layers_below(module, loaded):
    # A fresh child that imports the same cmrf as this process, installed or not.
    pythonpath = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    code = (f"import json, sys, cmrf.{module}; "
            "print(json.dumps(sorted(k for k in sys.modules if k.split('.')[0] == 'cmrf')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath}, timeout=60, check=True)
    assert json.loads(proc.stdout) == ["cmrf"] + sorted(f"cmrf.{m}" for m in loaded)


def test_readme_names_resolve_at_their_module_paths():
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    names = set(re.findall(r"`(cmrf(?:\.\w+)+)`", readme))
    assert "cmrf.samplers.nelson_sample" in names
    for name in sorted(names):
        parts = name.split(".")
        for depth in range(len(parts), 0, -1):  # the longest prefix that is a module
            try:
                obj = importlib.import_module(".".join(parts[:depth]))
                break
            except ImportError:
                continue
        for attr in parts[depth:]:
            assert hasattr(obj, attr), f"README names {name}, which does not resolve"
            obj = getattr(obj, attr)
