"""Every public top-level name in `src/nsdv` has a caller in `src/nsdv`.

A function or class that only the tests reach is test code: it belongs in
`tests/conftest.py`, not in the package's public surface.  The scan reads
the source with `ast`.  A name counts as called where some `src/` code
outside its own definition reads it: an `ast.Attribute` with that
attribute name (`model.f1`), or an `ast.Name` in its own module or in a
module that imports it from there (so a local variable that happens to
share the name is no caller).
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nsdv"

# Public names with no caller in src/, each with the reason it stays there.
NO_CALLER_YET = {
    # Only acceptance criterion 09 and the tests reach it, until a command
    # runs the Lagrangian solver; drop this entry then.
    "lagrangian.run_lagrangian",
}


def _modules():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def _public_defs(tree):
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def _imported_from(tree, module, name):
    """True when `tree` imports `name` from the sibling module `module`."""
    return any(
        isinstance(node, ast.ImportFrom)
        and node.level == 1
        and node.module == module
        and any(alias.name == name for alias in node.names)
        for node in ast.walk(tree)
    )


def _reads(tree, name, names_visible, skip):
    """True when a node of `tree` outside `skip` reads `name`: as an
    attribute anywhere, as a bare name only where `names_visible`."""
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if names_visible and isinstance(node, ast.Name) and node.id == name:
            return True
    return False


def uncalled(modules):
    """`module.name` of every public top-level def or class that no src/ code
    outside its own body reads."""
    found = set()
    for module, tree in modules.items():
        for definition in _public_defs(tree):
            name = definition.name
            own_body = {id(node) for node in ast.walk(definition)}
            if not any(
                _reads(
                    user_tree,
                    name,
                    user == module or _imported_from(user_tree, module, name),
                    own_body,
                )
                for user, user_tree in modules.items()
            ):
                found.add(f"{module}.{name}")
    return found


def test_every_public_name_has_a_caller_in_src():
    assert uncalled(_modules()) == NO_CALLER_YET


def test_the_scan_sees_a_name_used_only_by_its_own_body():
    modules = {
        "a": ast.parse("def used():\n    pass\n\ndef lonely(n):\n    return lonely(n - 1)\n"),
        "b": ast.parse(
            "from .a import used\n\ndef read_by_c():\n    pass\n\n"
            "def _main():\n    used()\n    lonely = 1\n"
        ),
        "c": ast.parse("from . import b\n\ndef _other():\n    return b.read_by_c\n"),
    }
    assert uncalled(modules) == {"a.lonely"}
