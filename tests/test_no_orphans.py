"""Every function, method and class under ``src/repro`` has a caller in
the programs (``src/``, ``jobs/``, ``benchmarks/``, ``perfbench/``): a
name only tests reach shows readers a capability nothing runs."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_DIRS = ("src", "jobs", "benchmarks", "perfbench")
# References the tests diff against (the DuckDB oracle, brute force, the
# full valid plan space) and the paper's worked examples.
ALLOWED = {
    "assert_equivalent",
    "brute_force_count",
    "all_valid_plans",
    "traffic_workload",
    "purchase_workload",
}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _scan(tree, defs, refs, enclosing=()):
    """Collect definition names into ``defs`` and Name/Attribute uses
    into ``refs``, skipping uses inside a definition of the same name."""
    for node in ast.iter_child_nodes(tree):
        inner = enclosing
        if isinstance(node, _DEFS):
            defs.add(node.name)
            inner = enclosing + (node.name,)
        elif isinstance(node, ast.Name) and node.id not in enclosing:
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            refs.add(node.attr)
        _scan(node, defs, refs, inner)


def test_every_src_name_has_a_program_caller():
    defs: set[str] = set()
    refs: set[str] = set()
    for d in PROGRAM_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            found: set[str] = set()
            _scan(ast.parse(path.read_text()), found, refs)
            if path.is_relative_to(ROOT / "src" / "repro"):
                defs |= found
    orphans = {n for n in defs - refs - ALLOWED if not n.startswith("__")}
    assert not orphans, f"defined under src/repro but never used: {sorted(orphans)}"
