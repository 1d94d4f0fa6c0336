"""Each name tagmon imports from one of its own modules is imported from the
module that defines it, so that no module passes on another's names."""

import ast
import pathlib

PACKAGE_DIR = pathlib.Path(__file__).parent.parent / "src" / "tagmon"


def _tree(module):
    return ast.parse((PACKAGE_DIR / f"{module}.py").read_text())


def _defined(tree):
    """Names bound at the top level of a module by a def, a class or an
    assignment; an import defines nothing."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(n.id for target in targets
                         for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_each_name_is_imported_from_its_home():
    defined = {path.stem: _defined(_tree(path.stem))
               for path in PACKAGE_DIR.glob("*.py")}
    elsewhere = []
    for importer in sorted(defined):
        for node in ast.walk(_tree(importer)):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                elsewhere += [(importer, node.module, alias.name)
                              for alias in node.names
                              if alias.name not in defined[node.module]]
    assert elsewhere == []
