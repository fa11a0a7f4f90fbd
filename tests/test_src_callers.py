"""Every top-level function and class of ``src/hirnet``, and every method but
the dunders, is named by a ``src/`` module, the acceptance tests or
``perfbench/``: code that only the unit tests reach belongs in the tests.

Names are matched, not resolved. So a method whose name matches a common
attribute, such as ``write`` or ``read``, is not checked: any ``fh.write``
counts as a reference to it."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
DEFINITION = ast.FunctionDef, ast.ClassDef


def parse(pattern: str) -> dict[pathlib.Path, ast.Module]:
    return {path: ast.parse(path.read_text(), path) for path in sorted(ROOT.glob(pattern))}


def test_every_src_name_has_a_caller_outside_the_unit_tests():
    src = parse("src/hirnet/*.py")
    perfbench = parse("perfbench/*.py")
    readers = [*src.values(), *parse("tests/test_acceptance.py").values(), *perfbench.values()]
    # The imports of hirnet/__init__.py count, so whatever the package exports has a caller.
    used = {getattr(node, REFERENCE[type(node)]) for tree in readers for node in ast.walk(tree)
            if type(node) in REFERENCE}
    recorder = perfbench[ROOT / "perfbench" / "recorder.py"]
    [targets] = [node.value for node in recorder.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "TARGETS"]
    used |= {part for _, name in ast.literal_eval(targets) for part in name.split(".")}
    defined = []
    for path, tree in src.items():
        for top in [node for node in tree.body if isinstance(node, DEFINITION)]:
            defined.append((f"{path.stem}.{top.name}", top.name))
            if isinstance(top, ast.ClassDef):
                defined += [(f"{path.stem}.{top.name}.{m.name}", m.name) for m in top.body
                            if isinstance(m, DEFINITION) and not m.name[:2] == m.name[-2:] == "__"]
    unused = [qualified for qualified, name in defined if name not in used]
    assert not unused, f"defined in src/ but called only by the unit tests, if at all: {unused}"
