"""Each name tagmon imports from one of its own modules is imported from the
module that defines it, so that no module passes on another's names; and
each name tagmon defines is used by tagmon, unless it is one of the few kept
for the paper's model or for the tests."""

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


# defined and not used in src/ on purpose: the paper's stream algebra, the
# direct band rule, the acceptance suite's round trip and sample count
# (ROADMAP "Settled"), the tests' entry point for terms, and the version
UNUSED_ON_PURPOSE = {
    "__init__.__version__",
    "parser.parse_term",
    "scenario_file.format_scenario",
    "scenarios.compliance_judgement",
    "scenarios.sample_count",
    *(f"streams.{name}" for name in (
        "lift_const", "lift_op", "lift_test", "shift", "merge", "insert",
        "forall_before", "exists_before")),
}


def _used(tree):
    """Names a module reads: as a name, as an attribute, or as a string,
    which covers a stream query asked for by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def _methods(tree):
    """``Class.method`` for each method of a top-level class that is not a
    dunder."""
    return {f"{node.name}.{item.name}"
            for node in tree.body if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)
            and not (item.name.startswith("__")
                     and item.name.endswith("__"))}


def test_each_defined_name_is_used():
    trees = {path.stem: _tree(path.stem) for path in PACKAGE_DIR.glob("*.py")}
    used = set().union(*map(_used, trees.values()))
    unused = sorted(
        f"{module}.{name}" for module, tree in trees.items()
        for name in _defined(tree) | _methods(tree)
        if name.rpartition(".")[2] not in used)
    assert [name for name in unused if name not in UNUSED_ON_PURPOSE] == []
    # an entry that comes into use, or goes, leaves the list
    assert sorted(UNUSED_ON_PURPOSE) == [name for name in unused
                                         if name in UNUSED_ON_PURPOSE]
