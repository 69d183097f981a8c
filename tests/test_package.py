"""The package's export list, and the test oracles' independence from it."""

import ast
import inspect
import pkgutil
import re
from pathlib import Path

import demix

# The public data containers the oracles build; they carry no arithmetic.
ORACLE_CONTAINERS = {"DemixState"}


def test_all_names_are_exported_once():
    assert len(demix.__all__) == len(set(demix.__all__))
    assert [name for name in demix.__all__ if not hasattr(demix, name)] == []


def test_oracles_import_only_numpy_mpmath_and_public_containers():
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bad += [a.name for a in node.names if a.name not in ("numpy", "mpmath")]
        elif isinstance(node, ast.ImportFrom):
            names = {a.name for a in node.names}
            if node.module == "demix":
                bad += sorted(names - ORACLE_CONTAINERS)
            elif node.module != "__future__":
                bad.append(f"{node.module}: {sorted(names)}")
    assert bad == []


# Imported names kept though unused: perfbench's tracing test asserts that
# verify holds _gradient_full, to check that every namespace holding a traced
# function is rewrapped.
UNUSED_IMPORTS_KEPT = {("verify", "_gradient_full")}


def test_every_imported_name_is_used():
    unused = []
    paths = [*Path(demix.__file__).parent.glob("*.py"), *Path(__file__).parent.glob("*.py")]
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        if path == Path(demix.__file__):
            used |= set(demix.__all__)  # the package re-exports its imports
        unused += [(path.stem, name) for name in sorted(imported - used)]
    assert sorted(set(unused) - UNUSED_IMPORTS_KEPT) == []


# The functions that may test for a bool: problem._integer, the library's rule
# for a count, and cli._number, the config's rule for a number, which takes an
# integer key written as 3.0 where the library refuses that value.
BOOL_TESTS = {("problem", "_integer"), ("cli", "_number")}


def test_only_the_count_and_number_rules_test_for_a_bool():
    stray = []
    for path in sorted(Path(demix.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                   and (path.stem, f.name) in BOOL_TESTS for n in ast.walk(f)}
        stray += [
            f"{path.stem}.py:{n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Call) and getattr(n.func, "id", None) == "isinstance"
            and any(getattr(a, "id", None) == "bool" for a in ast.walk(n.args[-1]))
            and id(n) not in allowed
        ]
    assert stray == []


def test_only_problem_takes_an_fft():
    # problem.row_products and problem.combine_rows are the DFT rows' products;
    # every other module calls them instead of transforming on its own
    stray = []
    for path in sorted(Path(demix.__file__).parent.glob("*.py")):
        if path.stem == "problem":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stray += [
            f"{path.stem}.py:{n.lineno}" for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr == "fft"
            and getattr(n.value, "id", None) in ("np", "numpy")
        ]
    assert stray == []


def test_readme_references_resolve():
    # a dotted name under demix (`problem.forward_parts`, `demix.verify.CHECKS`)
    # and a `test_*.py::name` reference must each name something that exists
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    modules = {p.stem for p in Path(demix.__file__).parent.glob("*.py")} - {"__init__"}
    dotted = re.findall(rf"\b((?:demix|{'|'.join(modules)})(?:\.\w+)+)", text)
    assert dotted
    missing = []
    for ref in dotted:
        name = ref if ref.startswith("demix.") else f"demix.{ref}"
        try:
            pkgutil.resolve_name(name)
        except (ImportError, AttributeError):
            missing.append(ref)
    tests = re.findall(r"\b(test_\w+\.py)(?:::(\w+))?", text)
    assert tests
    for name, func in tests:
        path = Path(__file__).parent / name
        if not path.exists():
            missing.append(name)
        elif func and func not in {
            n.name for n in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(n, ast.FunctionDef)
        }:
            missing.append(f"{name}::{func}")
    assert missing == []


def _demix_object(name, modules):
    # name as README writes it: dotted under demix or a module, or bare
    if name.split(".")[0] in modules | {"demix"}:
        candidates = [name if name.startswith("demix.") else f"demix.{name}"]
    else:
        candidates = [f"demix.{name}", *(f"demix.{mod}.{name}" for mod in sorted(modules))]
    for candidate in candidates:
        try:
            return pkgutil.resolve_name(candidate)
        except (ImportError, AttributeError):
            pass
    return None


def test_readme_call_signatures_match():
    # a backticked call such as `name(a, b, *, c)` or `name(..., kw=v)` whose
    # name resolves under demix quotes parameters of its signature, in order:
    # without `...` or `kw=` before it, a name is the next parameter; after
    # `*`, it is keyword-only
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    modules = {p.stem for p in Path(demix.__file__).parent.glob("*.py")} - {"__init__"}
    checked, wrong = 0, []
    for name, arglist in re.findall(r"`((?:\w+\.)*\w+)\(([^()`]*)\)`", text):
        args = [a.strip() for a in arglist.split(",") if a.strip()]
        obj = _demix_object(name, modules)
        if obj is None or not all(re.fullmatch(r"\.\.\.|\*|\w+(=.+)?", a) for a in args):
            continue
        params = list(inspect.signature(obj).parameters.values())
        names = [p.name for p in params]
        at, gap, keyword_only = 0, False, False
        for arg in args:
            if arg in ("...", "*"):
                gap |= arg == "..."
                keyword_only |= arg == "*"
                continue
            key = arg.split("=")[0]
            i = names.index(key) if key in names else -1
            if i < at or (i > at and not gap and "=" not in arg) or (
                keyword_only and params[i].kind is not inspect.Parameter.KEYWORD_ONLY
            ):
                wrong.append(f"{name}({arglist}): {key}")
                break
            at, gap = i + 1, False
        checked += 1
    assert checked >= 7
    assert wrong == []
