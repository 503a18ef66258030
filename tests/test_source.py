"""Source hygiene of the package modules, read with `ast`."""

import ast
from pathlib import Path

import klsf


def test_modules_read_every_name_they_import():
    # __init__.py is skipped: it imports names only to re-export them.
    unused = []
    for path in sorted(Path(klsf.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                # `import a.b` binds a, `import a.b as c` binds c
                imported.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({a.asname or a.name: node.lineno for a in node.names})
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{path.name}:{line} imports {name}" for name, line in imported.items() if name not in read]
    assert not unused, unused


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so every self-check in the
    # package is an explicit raise.
    found = []
    for path in sorted(Path(klsf.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not found, found


def test_structure_rows_name_every_spec_field():
    # The STRUCTURES rows are where a kind's spec fields are named: together
    # they read exactly the fields of CuboidSpec and TypeSpec other than the
    # kind, the parameters and the notes.
    from dataclasses import fields

    from klsf.constructions import STRUCTURES, CuboidSpec, TypeSpec

    read = {f for row in STRUCTURES.values() for f in row.reads}
    spec_fields = {f.name for spec in (CuboidSpec, TypeSpec) for f in fields(spec)}
    assert read == spec_fields - {"which", "params", "notes"}
