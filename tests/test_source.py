"""Checks on the package source itself."""
import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import sumess

SOURCES = sorted(Path(sumess.__file__).resolve().parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariant checks in the
    # package raise explicitly instead
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_ring_read_in_modules_only():
    """Only modules.py reads the action ring (`endos`) and the annihilator
    table (`_ann`): every other layer asks FiniteModule's methods, so a
    route that builds no ring has one file to change."""
    found = [
        f"{path.name}:{node.lineno} .{node.attr}"
        for path in SOURCES
        if path.name != "modules.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ("endos", "_ann")
    ]
    assert not found, found


def test_row_store_read_through_row():
    """The lattice's essential-sum table (`essential_sums`) is read only in
    EssGraph.__init__, which keeps it as `_sums`, and `_sums` only there and
    in EssGraph.row: every other row read goes through row's vertex mask,
    so N(M) sees only its own vertices."""
    def readers(attr):
        return {
            (path.name, func.name)
            for path in SOURCES
            for func in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(func, ast.FunctionDef)
            for node in ast.walk(func)
            if isinstance(node, ast.Attribute) and node.attr == attr
        }

    assert readers("essential_sums") == {("graphs.py", "__init__")}
    assert readers("_sums") == {("graphs.py", "__init__"), ("graphs.py", "row")}


def test_import_loads_no_pool_or_cli():
    """A fresh `import sumess` leaves the process pool and the CLI unloaded:
    run_corpus imports the pool only for jobs > 1, and every process that
    imports the package pays for each module it loads."""
    src = str(Path(sumess.__file__).resolve().parents[1])
    code = (
        "import json, sys, sumess; "
        "print(json.dumps([m for m in ('concurrent.futures', 'multiprocessing', 'sumess.cli') "
        "if m in sys.modules]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_caps_keys_documented():
    """The SUMESS_CAPS keys the README lists are the keys caps_from_env reads."""
    readme = (Path(sumess.__file__).resolve().parents[2] / "README.md").read_text()
    listed = re.search(r"`SUMESS_CAPS`.*?with keys ((?:`\w+`,?\s*)+)", readme, re.S)
    assert listed, "README lists no SUMESS_CAPS keys"
    assert re.findall(r"`(\w+)`", listed.group(1)) == list(sumess.errors._CAP_KEYS)


# The names the per-layer tracer of the benchmark (bench/tracing.py, `install`)
# wraps by attribute lookup. A rename here would break `bench/run.py --trace 1`
# without failing any other test, so the list is kept in step with that file.
TRACED = {
    "modules": ["FiniteModule.__init__", "FiniteModule.join_masks", "FiniteModule.cyclic_mask"],
    "analysis": ["is_isomorphic", "count_homs", "ModuleAnalysis.iso"],
    "lattice": [
        "SubmoduleLattice.__init__",
        "SubmoduleLattice.complements_within",
        "SubmoduleLattice.strongly_disjoint",
    ],
    "graphs": [
        "EssGraph.__init__",
        "EssGraph.diameter",
        "EssGraph.girth",
        "EssGraph.triangle",
        "EssGraph.component_count",
        "EssGraph.complement_components",
        "EssGraph.is_clique",
        "EssGraph.k_regular",
    ],
    "corpus": ["export_dot", "run_corpus", "write_csv"],
    "specfile": ["load_spec"],
}
TRACED_THEOREM_IDS = (
    "prop-semisimple",
    "ex-1.2",
    "deg1-S",
    "thm-2.13",
    "deg1-interactions",
    "complete",
    "trianglefree",
    "npartite",
    "finiteness",
    "thm-1.5",
    "thm-girth-S",
    "thm-girth-N",
)


def test_traced_names_exist():
    missing = []
    for layer, paths in TRACED.items():
        module = importlib.import_module(f"sumess.{layer}")
        for path in paths:
            owner = module
            for part in path.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{path}")
    assert not missing, missing
    # Submodule.label is replaced by a property around its getter
    assert isinstance(sumess.Submodule.label, property)
    assert set(TRACED_THEOREM_IDS) <= set(sumess.theorems.REGISTRY)


def test_traced_hooks_read_existing_attributes():
    """The attributes the tracer's hooks read after a wrapped call returns."""
    az = sumess.ModuleAnalysis(sumess.integer_module("z4z2", 4, 2))
    assert az.module.presentation.name == "z4z2" and az.module.endo_count == 4
    assert az.lattice.count == 8
    assert az.s_graph.n_vertices == len(az.s_graph.rows) - 2
    result = sumess.corpus.run_corpus(sumess.CorpusSpec(max_order=2))
    assert result.rows


# The benchmark's per-layer tracer wraps package names by attribute lookup
# and its hooks read attributes of what they wrap, so a rename would break
# `bench/run.py --trace 1` without failing any other test.
TRACED_SWEEP = """
import json, sumess, tracing
tracer = tracing.Tracer()
tracing.install(tracer)
edges = []
traced_init = sumess.graphs.EssGraph.__init__
def init(self, *args, **kwargs):
    traced_init(self, *args, **kwargs)
    edges.append(self.n_edges())
sumess.graphs.EssGraph.__init__ = init
result = sumess.corpus.run_corpus(sumess.CorpusSpec(max_order=8))
metrics = {name: value for name, (value, _) in tracing.layer_metrics(tracer).items()}
print(json.dumps({"rows": len(result.rows), "edges": sum(edges), "metrics": metrics}))
"""


def test_bench_tracer_runs_on_package():
    """bench/tracing.py installed on the package, one traced sweep, and its
    per-layer metrics, in a child process (install patches the package)."""
    root = Path(__file__).resolve().parents[1]
    src = str(Path(sumess.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, str(root / "bench"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_SWEEP],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    metrics = out["metrics"]
    assert out["rows"] and metrics["corpus.rows"] == out["rows"]
    # the hook counts edges from the rows property; the graphs from deg
    assert metrics["graphs.edges"] == out["edges"]
    for name in (
        "modules.action_ring_elems",
        "lattice.submodules",
        "graphs.vertices",
        "graphs.edges",
        "graphs.invariant_calls",
        "modules.gens_s",
    ):
        assert metrics[name] > 0, name


def test_corpus_dot_text_made_by_export_dot(monkeypatch, tmp_path):
    """run_corpus writes each DOT file with one call of corpus.export_dot,
    the name the tracer times as graphs.dot, which streams the graph's DOT
    text unchanged to the open binary file."""
    made = []
    export_dot = sumess.corpus.export_dot

    def counting(graph, name, fh):
        assert "b" in fh.mode
        made.append((name, graph.export_dot(name)))
        export_dot(graph, name, fh)

    monkeypatch.setattr(sumess.corpus, "export_dot", counting)
    result = sumess.corpus.run_corpus(sumess.CorpusSpec(max_order=8), dot_dir=str(tmp_path))
    modules = {r.module for r in result.rows}
    assert len(modules) > 1
    assert sorted(name for name, _ in made) == sorted(f"{m}_{k}" for m in modules for k in "sn")
    for name, text in made:
        assert (tmp_path / f"{name}.dot").read_bytes() == text.encode("ascii")
