"""Library hygiene: checks must survive `python -O`, which strips assert
statements, and every exported name must exist."""

import ast
import pathlib

import sepnet

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sepnet"
TESTS = pathlib.Path(__file__).resolve().parent


def test_library_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files, "no sources found under %s" % SRC
    found = ["%s:%d" % (path.name, node.lineno)
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == [], "bare assert in library code: %s" % ", ".join(found)


def test_every_exported_name_resolves():
    missing = [name for name in sepnet.__all__ if not hasattr(sepnet, name)]
    assert missing == [], "sepnet.__all__ names missing: %s" % missing
    assert len(set(sepnet.__all__)) == len(sepnet.__all__)


def test_every_imported_name_is_used():
    """No linter runs on the package or its tests, so an import a deletion
    leaves behind is caught here: every name a module or test file imports
    must be read in it, or be listed in its __all__."""
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                used.update(ast.literal_eval(node.value))
        unused += ["%s:%d %s" % (path.name, line, name)
                   for name, line in imported.items() if name not in used]
    assert unused == [], "unused imports: %s" % ", ".join(unused)
