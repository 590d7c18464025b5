"""Library checks must survive `python -O`, which strips assert statements."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sepnet"


def test_library_has_no_assert_statements():
    files = sorted(SRC.glob("*.py"))
    assert files, "no sources found under %s" % SRC
    found = ["%s:%d" % (path.name, node.lineno)
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == [], "bare assert in library code: %s" % ", ".join(found)
