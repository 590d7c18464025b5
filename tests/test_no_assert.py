"""Library hygiene: checks must survive `python -O`, which strips assert
statements, and every exported name must exist."""

import ast
import pathlib

import sepnet

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "sepnet"


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
