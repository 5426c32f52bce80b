"""Every function, class and method in src/cardtable is something the program runs.

A definition counts as used when its name is referred to from src/ or
perfbench/ (as a name, an attribute, an imported name, or a string that
is exactly that identifier, as perfbench/tracing.py patches by string),
or when README mentions it in backticks. A path only the tests take is
a second copy of behaviour to keep in step, so it fails here unless
ALLOWED names it with a reason. Dunder methods are called by Python
itself and are not checked.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cardtable"

ALLOWED = {
    "PolicyTable.save": "public API: the write half of PolicyTable.load, for library users",
    "Env.get_payoffs": "the paper's environment interface: payoffs of the finished game",
}


def definitions(tree):
    """(qualified name, bare name) of every def and class in a module, nested ones included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((prefix + child.name, child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def referenced_names(tree):
    """Names, attributes, imported names and identifier strings a module refers to."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def readme_names(text):
    """Identifiers inside README's backtick spans, fenced blocks dropped first."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    spans = re.findall(r"`([^`]+)`", text)
    return {word for span in spans for word in re.findall(r"[A-Za-z_]\w*", span)}


def unused(source_dirs, readme):
    defined, used = [], readme_names(readme)
    for directory in source_dirs:
        for path in sorted(directory.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            used |= referenced_names(tree)
            if directory == PACKAGE:
                module = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
                defined += [(f"{module}.{qual}", qual, bare) for qual, bare in definitions(tree)]
    return {
        full: qual
        for full, qual, bare in defined
        if not (bare.startswith("__") and bare.endswith("__")) and bare not in used
    }


def test_readme_names_skip_fences():
    text = "use `cfr_train` here\n```sh\ncardtable `odd\n```\nand `Env.step` too"
    assert readme_names(text) == {"cfr_train", "Env", "step"}


def test_every_definition_has_a_caller():
    found = unused((PACKAGE, ROOT / "perfbench"), (ROOT / "README.md").read_text(encoding="utf-8"))
    flagged = sorted(full for full, qual in found.items() if qual not in ALLOWED)
    assert flagged == [], "defined in src/cardtable but only tests use them: " + ", ".join(flagged)


def test_allowlist_names_only_unused_definitions():
    found = unused((PACKAGE, ROOT / "perfbench"), (ROOT / "README.md").read_text(encoding="utf-8"))
    assert set(ALLOWED) == set(found.values())
