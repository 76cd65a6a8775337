"""No public name without a caller: every public function or class of the
package is used by the package itself or by a script, not only by tests."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Public on purpose, though no code outside the tests calls them.
ALLOWED = {
    "validate_quorum": "the reference quorum rule that criterion 6 checks the engine against",
    "conditional_aggregate": "compute over hosts meeting a RAM or disk threshold, "
                             "the paper's memory and storage claim",
}


def _references(node) -> Counter:
    """How often each name or attribute is read under ``node``."""
    found = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            found[n.id] += 1
        elif isinstance(n, ast.Attribute):
            found[n.attr] += 1
    return found


def test_every_public_name_has_a_caller_outside_the_tests():
    # __init__ only re-exports, which is not a use
    modules = [p for p in sorted((ROOT / "src" / "volpool").glob("*.py"))
               if p.name != "__init__.py"]
    scripts = sorted((ROOT / "scripts").glob("*.py"))
    trees = {p: ast.parse(p.read_text(), str(p)) for p in modules + scripts}
    everywhere = sum((_references(t) for t in trees.values()), Counter())

    defined, unused = set(), []
    for path in modules:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            defined.add(node.name)
            # a use inside its own definition, such as recursion, does not count
            elsewhere = everywhere[node.name] - _references(node)[node.name]
            if elsewhere == 0 and node.name not in ALLOWED:
                unused.append(f"{path.stem}.{node.name}")
    assert unused == []
    assert set(ALLOWED) <= defined  # no stale entry
