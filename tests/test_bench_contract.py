"""The names the benchmark under ``bench/`` takes from ``zslada`` exist.

The benchmark imports, traces and patches package functions by name, so
an API cleanup that renames or drops one of them would break a bench run
without failing any other test.  Its tracer also tags each network span
with the role of the network passed first, so a signature change that
moves the network would fail the benchmark's traced checks.
"""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _zslada_names(path: Path) -> list[tuple[str, str]]:
    """``(module, name)`` for every ``from zslada... import name`` and every
    ``zslada.<module>.<name>`` attribute the file reads or writes."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("zslada"):
            found += [(node.module, alias.name) for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
              and isinstance(node.value.value, ast.Name) and node.value.value.id == "zslada"):
            found.append((f"zslada.{node.value.attr}", node.attr))
    return found


def test_every_traced_function_resolves():
    traced = _load("spans").TRACED
    assert traced
    for module_name, fn_name, _ in traced:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


@pytest.mark.parametrize("script", ["run.py", "workloads.py"])
def test_bench_imports_from_zslada_exist(script):
    names = _zslada_names(BENCH / script)
    assert names
    for module_name, name in names:
        module = importlib.import_module(module_name)
        assert hasattr(module, name), f"{script}: {module_name}.{name}"


def test_traced_toy_adapt_tags_every_network_span_with_its_role(tmp_path):
    spans, workloads = _load("spans"), _load("workloads")
    workload = workloads.AwaAdapt(workloads.TOY_SIZES["awa-adapt"])
    inputs = workload.setup(1, tmp_path)
    tracer = spans.Tracer()
    tracer.install(callers=[workloads])
    try:
        workload.run(inputs, 1, tracer)
    finally:
        tracer.uninstall()
    assert tracer.unknown_role_spans() == 0
    labels = {span[1] for span in tracer.spans}
    for role in ("g_t", "g_s", "d_t", "d_s", "c_t", "c_s"):
        assert f"nn.mlp.mlp_backward.{role}" in labels
