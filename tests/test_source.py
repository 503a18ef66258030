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
