"""Every function, method, class and field under ``src/repro`` has a
reader in the programs (``src/``, ``jobs/``, ``benchmarks/``,
``perfbench/``): a name only tests reach shows readers a capability
nothing runs."""
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


def _programs():
    """(path, tree) of every program file."""
    for d in PROGRAM_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text())


def _in_src(path: Path) -> bool:
    return path.is_relative_to(ROOT / "src" / "repro")


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


def _fields(cls: ast.ClassDef):
    """The class's fields: names annotated in its body, and ``self.x``
    assigned in its ``__init__``."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
        elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    yield sub.attr


def test_every_src_name_has_a_program_caller():
    defs: set[str] = set()
    refs: set[str] = set()
    for path, tree in _programs():
        found: set[str] = set()
        _scan(tree, found, refs)
        if _in_src(path):
            defs |= found
    orphans = {n for n in defs - refs - ALLOWED if not n.startswith("__")}
    assert not orphans, f"defined under src/repro but never used: {sorted(orphans)}"


def test_every_src_field_is_read_by_a_program():
    fields: set[tuple[str, str]] = set()
    reads: set[str] = set()
    for path, tree in _programs():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.add(node.attr)
            elif isinstance(node, ast.ClassDef) and _in_src(path):
                fields |= {(node.name, f) for f in _fields(node)}
    unread = sorted(f"{cls}.{f}" for cls, f in fields if f not in reads)
    assert not unread, f"fields under src/repro that no program reads: {unread}"
