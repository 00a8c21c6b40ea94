"""Source-level rules for the package."""

import ast
import importlib.util
import re
from collections import Counter
from pathlib import Path

import treelines

SRC = Path(treelines.__file__).parent
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a postcondition the program
    # relies on must raise an error instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_no_line_in_the_package_is_longer_than_79_characters():
    found = [f"{path.name}:{k} ({len(line)})"
             for path in sorted(SRC.glob("*.py"))
             for k, line in enumerate(path.read_text().splitlines(), 1)
             if len(line) > 79]
    assert not found, found


def _dotted(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        return _dotted(node.func)
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def _functools_names(tree: ast.Module) -> dict:
    """Each local name the module binds to functools or to a name in it,
    mapped to the dotted name it stands for."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name, a.name)
                         for a in node.names if a.name == "functools")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            names.update((a.asname or a.name, f"functools.{a.name}")
                         for a in node.names)
    return names


def _resolved(node: ast.expr, names: dict) -> str:
    head, _, rest = _dotted(node).partition(".")
    return names.get(head, head) + (f".{rest}" if rest else "")


def test_no_process_wide_caches_in_the_package():
    # an lru_cache or cache decorator keeps every argument and result for
    # the life of the process; caches belong on the object they describe
    banned = {"functools.lru_cache", "functools.cache"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = _functools_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                for dec in node.decorator_list:
                    if _resolved(dec, names) in banned:
                        found.append(f"{path.name}:{dec.lineno}")
    assert not found, found


def test_no_cached_property_in_the_package():
    # a value derived from an object's fields is set in its __post_init__,
    # outside the compared fields, as Line.homogeneous is: one idiom for
    # derived data, with no first-use path
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        names = _functools_names(tree)
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.Name, ast.Attribute)) and
                  _resolved(node, names) == "functools.cached_property"]
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and
                  node.module == "functools" and
                  any(a.name == "cached_property" for a in node.names)]
    assert not found, found


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_another_modules_private_names():
    # a single-underscore name belongs to the module that defines it; a
    # module that needs it from elsewhere needs a public function instead
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.arg):
                defined.add(node.arg)
            elif isinstance(node, ast.Name) and \
                    isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and _private(node.attr) \
                    and node.attr not in defined:
                found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.level and \
                    any(_private(a.name) for a in node.names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_unused_imports_in_the_package():
    # every imported name is read somewhere in its module, as a name or as
    # the base of an attribute; ``from __future__`` imports are exempt
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in read:
                        found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_imports_inside_functions():
    # imports sit at the top of a module, where a reader finds every
    # dependency at once; this holds for the package and its tests
    found = [f"{path.parent.name}/{path.name}:{inner.lineno}"
             for path in [*sorted(SRC.glob("*.py")),
                          *sorted(TESTS.glob("*.py"))]
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node)
             if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert not found, sorted(set(found))


def _functions_named(tree: ast.AST, names: set) -> set:
    # the ids of every node inside the named function or class definitions
    return {id(node) for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.ClassDef))
            and fn.name in names
            for node in ast.walk(fn)}


def _terms(node: ast.expr) -> list:
    # the operands of a chain of additions, left to right
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _terms(node.left) + _terms(node.right)
    return [node]


def test_side_values_are_written_only_in_geometry_side():
    # A*X + B*Y + C*W, a line triple at a homogeneous point, is one
    # predicate: a sum of three products anywhere else writes it again
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = _functions_named(tree, {"side"}) \
            if path.name == "geometry.py" else set()
        for node in ast.walk(tree):
            terms = _terms(node)
            if len(terms) == 3 and id(node) not in allowed and all(
                    isinstance(t, ast.BinOp) and isinstance(t.op, ast.Mult)
                    for t in terms):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_cross_products_are_written_only_in_geometry_cross():
    # a*b - c*d, a 2x2 minor, is one component of a cross product of two
    # triples: written anywhere else, it is that product written again
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = _functions_named(tree, {"cross"}) \
            if path.name == "geometry.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and \
                    isinstance(node.op, ast.Sub) and \
                    id(node) not in allowed and all(
                        isinstance(t, ast.BinOp) and isinstance(t.op, ast.Mult)
                        for t in (node.left, node.right)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_each_configuration_rule_has_one_home():
    # each exact predicate of a configuration rule is read only by the
    # function that decides that rule on one edge, so the rule is written
    # once and validate_config only loops over the rule functions
    homes = {"orientation": "rule_i", "clip_to_halfplanes": "rule_ii",
             "cross": "rule_iii"}
    tree = ast.parse((SRC / "unstretch.py").read_text())
    found = []
    for name, home in homes.items():
        allowed = _functions_named(tree, {home})
        found += [f"unstretch.py:{node.lineno} {name}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and node.id == name
                  and id(node) not in allowed]
    assert not found, found


def test_the_chain_recurrence_has_one_home():
    # in unstretch.py a quotient of two subscripted values is a sine ratio
    # of the forced-length chain: written outside _forced_lengths, it is
    # the chain's recurrence written again
    tree = ast.parse((SRC / "unstretch.py").read_text())
    allowed = _functions_named(tree, {"_forced_lengths"})
    found = [f"unstretch.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
             and isinstance(node.left, ast.Subscript)
             and isinstance(node.right, ast.Subscript)
             and id(node) not in allowed]
    assert not found, found



def _names_base(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "base" or \
        isinstance(node, ast.Attribute) and node.attr == "base"


def test_the_pair_code_has_one_home():
    # a chain table's pair code c = j*base + k is built and decoded only by
    # the table and the two programmes that fill it: a product, quotient
    # or remainder with a base, or a divmod by it, anywhere else in the
    # package writes the layout again
    homes = {"ChainTable", "ranked_chains", "labelled_chains"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = _functions_named(tree, homes) \
            if path.name == "lineset.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Mult, ast.FloorDiv, ast.Mod)):
                operands = [node.left, node.right]
            elif isinstance(node, ast.Call) and _dotted(node) == "divmod":
                operands = node.args
            else:
                continue
            if id(node) not in allowed and any(map(_names_base, operands)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found

# numpy's fixed-width dtypes by name, and their codes such as "i8" or "<f8"
FIXED_WIDTH_DTYPE = re.compile(
    r"u?int(8|16|32|64|c|p|_)|float(16|32|64|96|128|_)"
    r"|complex(64|128|192|256|_)|u?(byte|short|longlong)|half|single"
    r"|double|longdouble|c(single|double|longdouble)|[<>=|]?[biufc]\d+")


def test_exact_modules_hold_no_fixed_width_numbers():
    # the exact modules name no fixed-width numpy dtype (as an attribute,
    # a from-import or a whole string), pass no dtype= other than object
    # and call no astype, so no exact key is cast to machine numbers that
    # wrap or round; arrays numpy makes implicitly, such as the index
    # columns of ranked_chains, are beyond this rule's reach
    found = []
    for name in ("geometry", "lineset", "ramsey", "embed"):
        for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
            words = []
            if isinstance(node, ast.Attribute):
                words = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                words = [a.name for a in node.names]
            elif isinstance(node, ast.Constant) and \
                    isinstance(node.value, str):
                words = [node.value]
            elif isinstance(node, ast.keyword) and node.arg == "dtype" and \
                    not (isinstance(node.value, ast.Name)
                         and node.value.id == "object"):
                words = ["dtype=" + ast.unparse(node.value)]
            found += [f"{name}.py:{node.lineno} {w}"
                      for w in words if w == "astype" or w.startswith("dtype=")
                      or FIXED_WIDTH_DTYPE.fullmatch(w)]
    assert not found, found


def test_benchmark_tracer_names_resolve():
    # the benchmark's tracer patches each name in LAYERS with getattr, so a
    # renamed or deleted function would crash a traced run
    spec = importlib.util.spec_from_file_location(
        "tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod_name, names in tracing.LAYERS.items():
        mod = importlib.import_module(f"{tracing.PACKAGE}.{mod_name}")
        for name in names:
            owner = mod
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{mod_name}.{name}")
    assert not missing, missing


def test_every_attribute_set_on_self_is_read():
    # an attribute a package class sets on self but nothing reads, in the
    # package, its tests or the benchmark, is dead state; reads are matched
    # by attribute name alone
    read = set()
    for path in [*SRC.glob("*.py"), *TESTS.glob("*.py"),
                 *PERFBENCH.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.AugAssign) and \
                    isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in ast.walk(cls):
                if isinstance(node, ast.Attribute) and \
                        isinstance(node.ctx, ast.Store) and \
                        isinstance(node.value, ast.Name) and \
                        node.value.id == "self" and node.attr not in read:
                    unread.add(f"{cls.name}.{node.attr}")
    assert not unread, sorted(unread)


def test_every_package_name_is_referenced():
    # a function, method or class of the package that nothing names outside
    # its own definition, in the package, its tests or the benchmark, is
    # dead; a whole-word match anywhere counts.  Dunder methods are called
    # by the interpreter, not by name
    texts = {path: path.read_text() for path in
             [*SRC.glob("*.py"), *TESTS.glob("*.py"), *PERFBENCH.glob("*.py")]}
    words = Counter(w for text in texts.values()
                    for w in re.findall(r"\w+", text))
    unused = []
    for path in sorted(SRC.glob("*.py")):
        lines = texts[path].splitlines()
        for node in ast.walk(ast.parse(texts[path])):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) or \
                    node.name.startswith("__"):
                continue
            own = re.findall(r"\w+", "\n".join(
                lines[node.lineno - 1:node.end_lineno]))
            if words[node.name] == own.count(node.name):
                unused.append(f"{path.name}:{node.name}")
    assert not unused, unused
