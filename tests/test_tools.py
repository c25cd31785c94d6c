"""The repository tools under tools/, and the benchmark's use of lieext."""

import ast
import functools
import importlib
import importlib.util
import io
import re
import resource
import subprocess
import tokenize
from pathlib import Path

import lieext

ROOT = Path(__file__).resolve().parent.parent
TOOLS = ROOT / "tools"

CODE_SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves its line a code line


# a comment line
def f(x):
    """Function docstring."""
    text = """a string
    that is no docstring"""
    return x, text
'''


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blank_lines(tmp_path, capsys):
    tool = _load("code_lines")
    # lines: import, def, the two text lines, return; tokens: import os,
    # def f ( x ) :, text = and the string, return x , text
    assert tool.code_counts(CODE_SAMPLE) == (5, 15)
    (tmp_path / "sample.py").write_text(CODE_SAMPLE)
    assert tool.main([str(tmp_path)]) == 0
    name, lines, tokens, peak, total, total_lines, total_tokens, top = capsys.readouterr().out.split()
    assert [name, lines, tokens, total, total_lines, total_tokens] == ["sample.py", "5", "15", "total", "5", "15"]
    assert top == peak and float(peak) > 1


def test_code_lines_measures_each_module_s_compile_peak(tmp_path, capsys, monkeypatch):
    # the last column is the peak RSS of a fresh interpreter compiling the
    # module: 5000 assignments (25000 code tokens) peak above the sample.
    # A measure that carried over the peak of the process that started it
    # would read at least this test process's own peak.
    tool = _load("code_lines")
    (tmp_path / "a_large.py").write_text("".join(f"x{i} = {i} + y\n" for i in range(5000)))
    (tmp_path / "b_small.py").write_text(CODE_SAMPLE)
    assert tool.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[:3] for row in rows] == [
        ["a_large.py", "5000", "25000"],
        ["b_small.py", "5", "15"],
        ["total", "5005", "25015"],
    ]
    large, small, top = (float(row[3]) for row in rows)
    assert large > small + 1 and top == large
    assert small < resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # it is the median of the peaks of RUNS interpreters: here in KiB, from
    # a stubbed runner
    peaks = iter([15400, 15000, 99999, 16000, 15200, 1])
    commands = []

    def run(command, **options):
        commands.append(command)
        return subprocess.CompletedProcess(command, 0, stdout=f"{next(peaks)}\n")

    monkeypatch.setattr(tool.subprocess, "run", run)
    assert tool.RUNS == 5
    assert tool.compile_peak_mb(tmp_path / "b_small.py") == 15400 / 1024
    assert len(commands) == 5 and all(command[-1] == str(tmp_path / "b_small.py") for command in commands)


def test_code_lines_lists_the_standard_library_of_the_cold_start(tmp_path, capsys):
    # for a package with a cli.py, a last line lists the standard-library
    # modules that importing it loads beyond a bare interpreter: colorsys
    # here, which no bare interpreter holds, and not the package itself
    tool = _load("code_lines")
    package = tmp_path / "sample_pkg"
    package.mkdir()
    (package / "cli.py").write_text("import colorsys\n")
    assert tool.main([str(package)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["stdlib", "1", "colorsys"]


def test_code_lines_lists_the_package_modules_of_a_bare_import(tmp_path, capsys):
    # for a package with an __init__.py, a last line lists the package's own
    # modules that a bare import compiles, with their summed code tokens:
    # __init__.py (4 tokens) and the module it imports (15), not the other
    tool = _load("code_lines")
    package = tmp_path / "sample_pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from . import used\n")
    (package / "used.py").write_text(CODE_SAMPLE)
    (package / "unused.py").write_text(CODE_SAMPLE)
    assert tool.main([str(package)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["import", "2", "19", "__init__.py", "used.py"]


def test_benchmark_names_exist():
    # perfbench/ changes only with the benchmark, so a name deleted from
    # lieext while it still reads it would stop the benchmark's runs: each
    # name it imports from lieext, and each attribute it reads off lieext or
    # off such a name (spans.py patches AlgebraSpec.bracket)
    for name in ("run.py", "spans.py"):
        tree = ast.parse((ROOT / "perfbench" / name).read_text())
        imported = {"lieext": lieext}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lieext":
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert hasattr(module, alias.name), f"{name}: {node.module}.{alias.name}"
                    imported[alias.asname or alias.name] = getattr(module, alias.name)
        for node in ast.walk(tree):
            path = ast.unparse(node).split(".") if isinstance(node, ast.Attribute) else ()
            if path and path[0] in imported and all(re.fullmatch(r"\w+", part) for part in path):
                functools.reduce(getattr, path[1:], imported[path[0]])


def test_spec_checks_are_written_in_algebra_py_only():
    # the checks that a .lie file and a spec built in code share are written
    # once: their diagnostic codes are string constants of algebra.py alone,
    # KEYWORDS is assigned there alone, and the parser's own copy of the
    # antisymmetry test is gone
    shared = {
        "duplicate-parameter",
        "duplicate-family",
        "name-collision",
        "undeclared-family",
        "reversed-family-pair",
        "non-antisymmetric",
        "missing-output-family",
        "duplicate-index-variable",
        "index-shadows-parameter",
        "reserved-word",
    }
    for path in (ROOT / "src" / "lieext").glob("*.py"):
        tree = ast.parse(path.read_text())
        constants = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
        if path.name == "algebra.py":
            assert shared <= constants and "KEYWORDS" in _own_names(tree)
        else:
            assert not shared & constants and "KEYWORDS" not in _own_names(tree), path
        assert "same_family_rule_is_antisymmetric" not in _own_names(tree) | _read_names(tree)["name"], path


# The public names of src/lieext that no program reads.  Each is a library
# call the README documents, under the heading named.
API_ALLOWED = {
    "cocycle_space",  # the cocycle basis of one window ("How H^2 is computed")
    "nonzero_degree_triviality",  # that a nonzero degree carries no H^2 ("Exit codes")
    "CocycleAssignment.to_json_dict",  # writes what `verify --cocycle FILE` reads ("JSON formats")
    "KnownCocycle.applicability",  # why a class does not apply at a binding ("Cocycle registry")
}


def _read_names(tree, skip=None) -> dict:
    """The names read by the ast nodes of tree, outside the node skip:
    under "attribute" the attributes of its Attribute nodes, and under
    "name" those and the ids of its Name nodes."""
    read, stack = {"name": set(), "attribute": set()}, [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            read["name"].add(node.id)
        elif isinstance(node, ast.Attribute):
            read["name"].add(node.attr)
            read["attribute"].add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return read


def _own_names(tree) -> set:
    """The names tree defines (def or class) or assigns itself."""
    return {
        node.id if isinstance(node, ast.Name) else node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
    }


def test_every_public_name_has_a_caller():
    # no public API exists only for tests: every public module-level function
    # and class of src/lieext, and every public method, is read in src/
    # outside its own definition, in perfbench/ or tools/, or in the README's
    # "Library use" example, or is on API_ALLOWED; dunders are exempt, and a
    # mention in a docstring or comment is no caller.  A function or class
    # is read by name; a method only as an attribute, so that a local
    # variable of the same name is no caller.  Outside src/, a bare name
    # that the file itself defines or assigns is its own, no caller: a
    # tool's own render() does not call dsl.render
    from test_engine import _readme_library_code

    modules = [ast.parse(path.read_text()) for path in (ROOT / "src" / "lieext").glob("*.py")]
    outside = {"name": set(), "attribute": set()}
    trees = [ast.parse(_readme_library_code())]
    trees += [ast.parse(path.read_text()) for path in [*(ROOT / "perfbench").rglob("*.py"), *TOOLS.rglob("*.py")]]
    for tree in trees:
        read = _read_names(tree)
        outside["name"] |= (read["name"] - _own_names(tree)) | read["attribute"]
        outside["attribute"] |= read["attribute"]
    defined = []
    for tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                defined.append((node.name, node, "name"))
            if isinstance(node, ast.ClassDef):
                defined += [
                    (f"{node.name}.{item.name}", item, "attribute")
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                ]
    uncalled = {
        qualname
        for qualname, node, kind in defined
        if (name := qualname.rpartition(".")[2]) not in outside[kind]
        and not any(name in _read_names(tree, skip=node)[kind] for tree in modules)
    }
    assert uncalled == API_ALLOWED


def _package_imports(tree) -> set:
    """The lieext modules that tree imports, by their names in the package."""
    paths = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = "lieext" + (f".{node.module}" if node.module else "") if node.level else node.module or ""
            paths += [module] if module != "lieext" else [f"lieext.{alias.name}" for alias in node.names]
    return {path.split(".")[1] for path in paths if path.startswith("lieext.")}


def test_svir_specifics_live_in_presets():
    # the engine and the solve are the generic solver: they load no preset
    # and hold no module __getattr__; svir's closed-form table is defined
    # once, in presets.py, and only presets.py loads an algebra by a
    # literal name
    trees = {path.name: ast.parse(path.read_text()) for path in (ROOT / "src" / "lieext").glob("*.py")}
    assert _package_imports(trees["engine.py"]) == {"algebra", "poly", "rational", "solve", "sparse"}
    assert _package_imports(trees["solve.py"]) == {"algebra", "rational", "sparse"}
    for name in ("engine.py", "solve.py"):
        assert "__getattr__" not in {node.name for node in trees[name].body if isinstance(node, ast.FunctionDef)}
    tables, literal_loads = [], set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "theorem_predicted_dim":
                tables.append(name)
            elif (
                isinstance(node, ast.Call)
                and ast.unparse(node.func).rpartition(".")[2] == "load_algebra"
                and any(isinstance(arg, ast.Constant) and isinstance(arg.value, str) for arg in node.args)
            ):
                literal_loads.add(name)
    assert tables == ["presets.py"]
    assert literal_loads == {"presets.py"}


def test_the_solve_imports_nothing_from_the_engine():
    # the seam between the certified solve and the reports: solve.py takes
    # nothing from engine.py, and engine.py takes what it uses from
    # solve.py by name.  No module of src/lieext imports with `import *`
    # or copies another module's globals: globals() is only stored into,
    # one name at a time (a lazy name's first read), or listed by __dir__
    trees = {path.name: ast.parse(path.read_text()) for path in (ROOT / "src" / "lieext").glob("*.py")}
    assert "engine" not in _package_imports(trees["solve.py"])
    stars, copies = [], []
    for name, tree in trees.items():
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        dir_nodes = {node for item in tree.body if getattr(item, "name", None) == "__dir__" for node in ast.walk(item)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and any(alias.name == "*" for alias in node.names):
                stars.append((name, node.lineno))
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in {"globals", "vars"} and node not in dir_nodes:
                parent = parents[node]
                if not (isinstance(parent, ast.Subscript) and isinstance(parent.ctx, ast.Store)):
                    copies.append((name, node.lineno))
    assert stars == [] and copies == []


def test_each_public_name_is_defined_in_its_home():
    # lieext._HOMES names, for each public class and function, the module
    # that defines it (its __module__), so a name that moves between
    # modules moves in the table too; values such as REGISTRY have no
    # __module__ and are skipped
    from importlib.util import resolve_name
    from types import FunctionType

    homes = {
        name: (getattr(lieext, name).__module__, resolve_name(lieext._HOME[name], "lieext"))
        for name in lieext.__all__
        if isinstance(getattr(lieext, name), (type, FunctionType))
    }
    assert {"Window", "cocycle_space", "h2", "Fraction"} <= set(homes)
    assert {name: pair for name, pair in homes.items() if pair[0] != pair[1]} == {}


def test_every_class_is_built_by_its_own_init():
    # no module of src/lieext makes an instance by calling __new__, as
    # object.__new__(cls) does: that skips __init__ and leaves a second
    # construction path to keep in step with it
    calls = [
        (path.name, node.lineno)
        for path in (ROOT / "src" / "lieext").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__"
    ]
    assert calls == []


def test_verify_golden_points_are_the_benchmark_points():
    # tools/golden.py's verify-wide records are the verify workload's points,
    # each with every class that applies there.  perfbench/run.py is read,
    # not imported, since importing it loads the presets
    from fractions import Fraction

    import golden
    from lieext import REGISTRY, load_algebra, validate_parameters

    tree = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    [value] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [ast.unparse(target) for target in node.targets] == ["VERIFY_POINTS"]
    ]
    points = eval(compile(ast.Expression(value), "run.py", "eval"), {"__builtins__": {}, "Fraction": Fraction})
    assert [(Fraction(lam), Fraction(mu)) for lam, mu in golden.VERIFY_POINTS] == [
        (Fraction(lam), Fraction(mu)) for lam, mu in points
    ]
    svir = load_algebra("svir")
    for (lam, mu), names in golden.VERIFY_POINTS.items():
        params = validate_parameters(svir, {"lambda": lam, "mu": mu})
        assert names == [name for name, known in REGISTRY.items() if known.applicability(svir, params) is None]


def test_family_tuples_at_a_degree_come_from_one_generator():
    # which family pairs, triples or single families exist at a degree is
    # one rule, solve._totals: no other function of solve.py or engine.py
    # enumerates family tuples itself, and the plan builds its identities
    # once, at its own window, in one cached property that calls
    # _identities: no other method of the plan builds one
    tree = ast.parse((ROOT / "src" / "lieext" / "solve.py").read_text())
    calls = {
        node
        for module in (tree, ast.parse((ROOT / "src" / "lieext" / "engine.py").read_text()))
        for node in ast.walk(module)
        if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == "combinations_with_replacement"
    }
    [totals] = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_totals"]
    assert calls and calls == calls & set(ast.walk(totals))
    [plan] = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Plan"]
    methods = {node.name: node for node in plan.body if isinstance(node, ast.FunctionDef)}
    assert [ast.unparse(node) for node in methods["identities"].decorator_list] == ["cached_property"]
    building = {name for name, node in methods.items() if _calls(node, "_identities") or _calls(node, "_Identity")}
    assert building == {"identities"}


def test_the_check_back_substitutes_once_per_window():
    # _Plan.check computes the null vectors of its window once, with
    # _null_vectors, and refines them in place (sparse._refined) for each
    # row it adds, in the function it hands the walk: neither that
    # function nor a loop of the check calls _null_vectors
    tree = ast.parse((ROOT / "src" / "lieext" / "solve.py").read_text())
    check = _functions(tree)["_Plan.check"]
    assert len(_calls(check, "_null_vectors")) == 1
    [refine] = [node for node in ast.walk(check) if isinstance(node, ast.FunctionDef) and node is not check]
    assert len(_calls(refine, "_refined")) == 1 == len(_calls(check, "_refined"))
    assert "refine" in {ast.unparse(arg) for call in ast.walk(check) if isinstance(call, ast.Call) for arg in call.args}
    loops = [node for node in ast.walk(check) if isinstance(node, (ast.For, ast.While))]
    assert not any(_calls(node, "_null_vectors") for node in [refine, *loops])


def _functions(tree) -> dict:
    """{name: node} of the functions and methods of a module, methods as
    Class.name."""
    found = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{item.name}", item) for item in node.body if isinstance(item, ast.FunctionDef))
    return found


def _calls(node, name: str) -> set:
    return {call for call in ast.walk(node) if isinstance(call, ast.Call) and ast.unparse(call.func) == name}


def test_the_cocycle_identity_is_built_one_way():
    # solve.py and engine.py build every _Identity in _identities, which
    # the plan, the assembly and verify_cocycle share, and bind every
    # BoundAlgebra in _bind; the cyclic order of the identity's terms is one
    # tuple, algebra._CYCLIC, read by the Jacobi expansion and the identity
    # alike
    trees = {path.name: ast.parse(path.read_text()) for path in (ROOT / "src" / "lieext").glob("*.py")}
    solve, algebra = _functions(trees["solve.py"]), _functions(trees["algebra.py"])
    for name, home in (("_Identity", "_identities"), ("BoundAlgebra", "_bind")):
        calls = _calls(trees["solve.py"], name) | _calls(trees["engine.py"], name)
        assert calls == _calls(solve[home], name) != set(), name
    assert "_Plan.triples" not in solve
    rotations = {"(0, 1, 2)", "(1, 2, 0)", "(2, 0, 1)"}
    literals = [
        (name, ast.unparse(node))
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple) and ast.unparse(node) in rotations
    ]
    [cyclic] = [
        node
        for node in trees["algebra.py"].body
        if isinstance(node, ast.Assign) and [ast.unparse(target) for target in node.targets] == ["_CYCLIC"]
    ]
    assert sorted(literals) == [("algebra.py", text) for text in sorted(rotations)]
    assert {ast.unparse(item) for item in cyclic.value.elts} == rotations
    for function in (algebra["_jacobi_residuals"], solve["_Identity.__init__"]):
        assert "_CYCLIC" in {node.id for node in ast.walk(function) if isinstance(node, ast.Name)}, function.name


def test_the_window_edge_is_one_rule():
    # whether a term's output leaves the window is one attribute,
    # _Identity.inside, set for each window the identity is read on
    # (within): the walk's values (valued), the rows (row) and the
    # closed-form count (admissible) read it, the tables (terms), built
    # once, mark only the edge of the radius they are built at, and none
    # compares abs(...) with n
    tree = ast.parse((ROOT / "src" / "lieext" / "solve.py").read_text())
    [identity] = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Identity"]
    methods = {node.name: node for node in identity.body if isinstance(node, ast.FunctionDef)}
    assert "self.inside" not in {ast.unparse(node) for node in ast.walk(methods["terms"])}
    writes = {
        name
        for name, method in methods.items()
        for node in ast.walk(method)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and node.attr == "inside"
    }
    assert writes == {"within"}
    for name in ("valued", "row", "admissible"):
        assert "self.inside" in {ast.unparse(node) for node in ast.walk(methods[name])}, name
    for name in ("terms", "valued", "row", "admissible"):
        for node in ast.walk(methods[name]):
            if isinstance(node, ast.Compare):
                operands = {ast.unparse(operand) for operand in (node.left, *node.comparators)}
                assert not ({"n", "self.n"} & operands and any(text.startswith("abs(") for text in operands)), (
                    name,
                    ast.unparse(node),
                )


def test_immutable_objects_share_one_freeze():
    # rational._Frozen is the one class of src/lieext that defines
    # __setattr__ or __delattr__; nothing writes past them with
    # object.__setattr__ and no class pickles by its own __reduce__.  The
    # fields of its subclasses live in __dict__, so none declares
    # __slots__; BoundAlgebra is mutable and keeps its slots
    from lieext.rational import _Frozen

    trees = [ast.parse(path.read_text()) for path in (ROOT / "src" / "lieext").glob("*.py")]
    members = {
        (node.name, item.name if isinstance(item, ast.FunctionDef) else ast.unparse(item.targets[0]))
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.Assign))
    }
    guards = {(name, member) for name, member in members if member in ("__setattr__", "__delattr__", "__reduce__")}
    assert guards == {("_Frozen", "__setattr__"), ("_Frozen", "__delattr__")}
    assert not any(_calls(tree, "object.__setattr__") for tree in trees)
    assert {name for name, member in members if member == "__slots__"} == {"BoundAlgebra"}
    assert not issubclass(lieext.algebra.BoundAlgebra, _Frozen)
    for name in ("AlgebraSpec", "IndexPolynomial", "CocycleAssignment", "SparseMatrix", "VectorBasis"):
        assert issubclass(getattr(lieext, name), _Frozen), name


# A private name as the docs write it: `_name`, or `_Class.member`; not the
# tail of a longer word (psi_x, L_-1) and no dunder of Python's own
PRIVATE_MENTION = re.compile(r"(?<!\w)(_(?!_)\w*[A-Za-z]\w*)(?:\.([A-Za-z_]\w*))?")


def _doc_texts(source) -> list:
    """The docstrings and comments of a Python source."""
    texts = [
        doc
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and (doc := ast.get_docstring(node, clean=False))
    ]
    return texts + [
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.COMMENT
    ]


def _members(node) -> set:
    """What a class defines: its methods and class attributes, the self.x
    its methods assign, and the keywords of a self.__dict__.update(...)."""
    members = {item.name for item in node.body if isinstance(item, (ast.FunctionDef, ast.ClassDef))}
    for item in node.body:
        if isinstance(item, (ast.Assign, ast.AnnAssign)):
            targets = item.targets if isinstance(item, ast.Assign) else [item.target]
            members.update(ast.unparse(target) for target in targets)
    for item in ast.walk(node):
        if isinstance(item, ast.Attribute) and isinstance(item.ctx, ast.Store) and ast.unparse(item.value) == "self":
            members.add(item.attr)
        elif isinstance(item, ast.Call) and ast.unparse(item.func) == "self.__dict__.update":
            members.update(keyword.arg for keyword in item.keywords)
    return members


def test_private_names_in_the_docs_exist():
    # every _name or _Class.member that a docstring or comment of
    # src/lieext, or the README, mentions is in the code of src/: defined,
    # assigned, an attribute, an argument or a one-word string constant (as
    # algebra.py's _i, _j and _k are).  A name the code has lost leaves its
    # mentions stale
    paths = sorted((ROOT / "src" / "lieext").glob("*.py"))
    sources = {path.name: path.read_text() for path in paths}
    names, classes = set(), {}
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
                if isinstance(node, ast.ClassDef):
                    classes[node.name] = _members(node)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.arg, ast.keyword)):
                names.add(node.arg)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"\w+", node.value):
                names.add(node.value)
    texts = [(name, text) for name, source in sources.items() for text in _doc_texts(source)]
    texts.append(("README.md", (ROOT / "README.md").read_text()))
    stale = set()
    for where, text in texts:
        for match in PRIVATE_MENTION.finditer(text):
            name, member = match.groups()
            if name not in names or (member and name in classes and member not in classes[name]):
                stale.add((where, match.group(0)))
    assert not stale
