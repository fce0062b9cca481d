import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).parents[1] / "src" / "resposet"


def test_runtime_imports_only_the_standard_library():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                assert module.split(".")[0] in sys.stdlib_module_names, (
                    path.name, module)


def test_every_imported_name_is_used():
    # __init__ imports to re-export; every other module must use each
    # name it imports
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert name in used, (path.name, name)


def test_only_the_parser_calls_the_validating_constructor():
    # residuation.structure() checks input from outside the package; the
    # package's own builders construct ResStructure records directly
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                fn = node.func
                name = fn.attr if isinstance(fn, ast.Attribute) else \
                    getattr(fn, "id", None)
                if name == "structure":
                    callers.add(path.name)
    assert callers == {"structfile.py"}
