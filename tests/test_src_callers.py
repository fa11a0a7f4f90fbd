"""Every top-level function and class of ``src/hirnet``, and every method but
the dunders, is named by a ``src/`` module, the acceptance tests or
``perfbench/``, and every defaulted parameter of those functions and methods
is passed by a call outside the unit tests: code that only the unit tests
reach belongs in the tests. The package's ``__init__.py`` is not a reader:
an export is not a caller. Every field of a config class is set, and every
``hirnet`` flag passed, outside the unit tests too.

Names are matched, not resolved. So a method whose name matches a common
attribute, such as ``write`` or ``read``, is not checked: any ``fh.write``
counts as a reference to it."""

import ast
import itertools
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCE = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
DEFINITION = ast.FunctionDef, ast.ClassDef


def parse(pattern: str) -> dict[pathlib.Path, ast.Module]:
    return {path: ast.parse(path.read_text(), path) for path in sorted(ROOT.glob(pattern))}


def test_every_src_name_has_a_caller_outside_the_unit_tests():
    src = parse("src/hirnet/*.py")
    perfbench = parse("perfbench/*.py")
    readers = [tree for path, tree in src.items() if path.name != "__init__.py"]
    readers += [*parse("tests/test_acceptance.py").values(), *perfbench.values()]
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


def passed(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether ``call`` passes the parameter ``name``, at ``position`` among the
    positional parameters (None for a keyword-only one), by keyword, by
    position or through a ``*`` or ``**`` splat."""
    positional = list(itertools.takewhile(lambda arg: not isinstance(arg, ast.Starred), call.args))
    return (any(kw.arg in (name, None) for kw in call.keywords)
            or position is not None and (position < len(positional)
                                         or len(positional) < len(call.args)))


def test_every_defaulted_src_parameter_is_passed_outside_the_unit_tests():
    """Each defaulted parameter of a top-level function or method of
    ``src/hirnet`` is passed by a call in ``src/``, the acceptance tests,
    ``perfbench/`` or ``tools/``: an option that only the unit tests set is a
    second code path that nothing else runs. Calls are matched by the name
    called, and a call of a class's name counts for its ``__init__``."""
    src = parse("src/hirnet/*.py")
    readers = [*src.values(), *parse("tests/test_acceptance.py").values(),
               *parse("perfbench/*.py").values(), *parse("tools/*.py").values()]
    calls: dict[str, list[ast.Call]] = {}
    for node in (node for tree in readers for node in ast.walk(tree)):
        if isinstance(node, ast.Call) and type(node.func) in REFERENCE:
            calls.setdefault(getattr(node.func, REFERENCE[type(node.func)]), []).append(node)
    # (qualified name, the name its callers call, its def, how many leading
    # parameters no caller passes: a method's self or cls)
    functions = []
    for path, tree in src.items():
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                functions.append((f"{path.stem}.{top.name}", top.name, top, 0))
            elif isinstance(top, ast.ClassDef):
                functions += [(f"{path.stem}.{top.name}.{m.name}",
                               top.name if m.name == "__init__" else m.name, m, 1)
                              for m in top.body if isinstance(m, ast.FunctionDef)]
    unpassed = []
    for qualified, called, fn, bound in functions:
        positional = fn.args.posonlyargs + fn.args.args
        start = len(positional) - len(fn.args.defaults)
        defaulted = [(at - bound, arg.arg) for at, arg in enumerate(positional) if at >= start]
        defaulted += [(None, arg.arg) for arg, default in
                      zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
        unpassed += [f"{qualified}({name})" for position, name in defaulted
                     if not any(passed(call, position, name) for call in calls.get(called, []))]
    assert not unpassed, f"defaulted parameters that only the unit tests pass, if any: {unpassed}"


OUTSIDE = ("perfbench/*.py", "tools/*.py", "tests/test_acceptance.py")
# Config fields that nothing outside the unit tests sets, each with its reason.
UNSET = {"SuiteSpec.class_count": "only a gaussians suite reads it, and none is built outside "
                                  "the unit tests since the 3-class run left the digest"}


def outside_nodes() -> list[ast.AST]:
    """Every node of ``perfbench/``, ``tools/`` and the acceptance tests. ``src/``
    is no reader here: its checks name each field and flag in their messages."""
    return [node for pattern in OUTSIDE for tree in parse(pattern).values()
            for node in ast.walk(tree)]


def add_argument_calls(nodes) -> list[ast.Call]:
    return [node for node in nodes if isinstance(node, ast.Call) and node.args
            and getattr(node.func, "attr", None) == "add_argument"]


def test_every_config_field_is_set_outside_the_unit_tests():
    """Each field of a ``JsonConfig`` class of ``src/hirnet`` is a dict key or
    a keyword argument in ``perfbench/``, ``tools/`` or the acceptance tests,
    but for the ``UNSET`` ones, which must still be unset there: a setting
    that only the unit tests set is a second code path that nothing else runs."""
    nodes = outside_nodes()
    keys = {key.value for node in nodes if isinstance(node, ast.Dict)
            for key in node.keys if isinstance(key, ast.Constant)}
    keys |= {node.arg for node in nodes if isinstance(node, ast.keyword)}
    fields = [(f"{top.name}.{item.target.id}", item.target.id)
              for tree in parse("src/hirnet/*.py").values() for top in tree.body
              if isinstance(top, ast.ClassDef)
              and any(getattr(base, "id", None) == "JsonConfig" for base in top.bases)
              for item in top.body if isinstance(item, ast.AnnAssign)]
    unset = [qualified for qualified, name in fields if name not in keys]
    assert sorted(unset) == sorted(UNSET), (
        f"config fields set only by the unit tests, if at all: {sorted(set(unset) - set(UNSET))}; "
        f"listed as unset but set: {sorted(set(UNSET) - set(unset))}")


def test_every_cli_flag_is_passed_outside_the_unit_tests():
    """Each flag of ``hirnet``'s parser is a string in ``perfbench/``,
    ``tools/`` or the acceptance tests, less the flags the tools define for
    themselves, the first arguments of their ``add_argument`` calls."""
    nodes = outside_nodes()
    own = {id(call.args[0]) for call in add_argument_calls(nodes)}
    strings = {node.value for node in nodes if isinstance(node, ast.Constant)
               and isinstance(node.value, str) and id(node) not in own}
    cli = ast.parse((ROOT / "src" / "hirnet" / "cli.py").read_text())
    flags = [call.args[0].value for call in add_argument_calls(ast.walk(cli))
             if call.args[0].value.startswith("--")]
    unpassed = [flag for flag in flags if flag not in strings]
    assert not unpassed, f"hirnet flags that only the unit tests pass, if any: {unpassed}"
