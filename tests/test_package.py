"""Package-wide checks on the public names."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import arecorr
from arecorr import errors


def test_every_name_in_each_modules_all_resolves() -> None:
    names = ["arecorr"] + [f"arecorr.{m.name}" for m in pkgutil.iter_modules(arecorr.__path__)]
    assert "arecorr.are_bounds" in names and "arecorr.corrmath" in names
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ lists undefined {missing}"


def _raised_or_warned(tree: ast.AST) -> set[str]:
    """Names of the classes a module raises (`raise E(...)`, `raise E`)
    or warns with (`warnings.warn(..., E)`)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                found.add(exc.id)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "warn":
            args = [*node.args, *(k.value for k in node.keywords)]
            found.update(a.id for a in args if isinstance(a, ast.Name))
    return found


def test_every_error_class_is_exported_and_raised_or_warned_in_the_package() -> None:
    classes = [
        n for n, v in vars(errors).items() if inspect.isclass(v) and v.__module__ == errors.__name__
    ]
    assert "ArecorrError" in classes and "DomainError" in classes
    assert set(classes) <= set(arecorr.__all__)
    used = set()
    for path in Path(arecorr.__file__).parent.glob("*.py"):
        used |= _raised_or_warned(ast.parse(path.read_text()))
    unused = [n for n in classes if n != "ArecorrError" and n not in used]
    assert not unused, f"nothing in the package raises or warns {unused}"


# numpy's own loops for these may differ from libm in the last bit.
_NOT_BITWISE = {"arcsin", "power", "float_power", "exp", "log", "sin", "cos"}


def _numpy_names(tree: ast.AST) -> list[tuple[str | None, str]]:
    """(innermost enclosing function, attribute) of each `np.<attribute>`."""
    found = []

    def visit(node: ast.AST, where: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name):
                if child.value.id in ("np", "numpy"):
                    found.append((where, child.attr))
            visit(child, where)

    visit(tree, None)
    return found


def test_arrays_reach_libm_only_through_taylors_map() -> None:
    fromiter, not_bitwise = [], []
    for path in sorted(Path(arecorr.__file__).parent.glob("*.py")):
        for where, attr in _numpy_names(ast.parse(path.read_text())):
            if attr == "fromiter":
                fromiter.append((path.stem, where))
            elif attr in _NOT_BITWISE:
                not_bitwise.append((path.stem, where, attr))
    assert fromiter == [("taylor", "each")]
    assert not not_bitwise, f"numpy loops that are not libm's: {not_bitwise}"


def _referenced(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name (with its alias) in a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(n for alias in node.names for n in (alias.name, alias.asname) if n)
    return found


def test_the_commands_read_the_chain_only_through_reductions_scan() -> None:
    # `verify` and `reduce` share one chain reader, `reduction.scan_chain`:
    # neither scans signs, forms r' or builds a jet of its own.
    package = Path(arecorr.__file__).parent
    for stem in ("cli", "verify"):
        found = _referenced(ast.parse((package / f"{stem}.py").read_text()))
        assert found & {"scan_signs", "ratio_slope", "Jet"} == set(), stem


def test_mc_runs_only_through_mc_reports() -> None:
    # `mc` is one mc_reports call; cli keeps mc_moments bound, uncalled.
    tree = ast.parse((Path(arecorr.__file__).parent / "cli.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "stats_mc"
        for alias in node.names
    }
    called = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert "mc_moments" in imported
    assert called & imported == {"mc_reports"}
    assert "stats_mc" not in _referenced(tree)


def test_the_command_line_leaves_every_argument_check_to_the_library() -> None:
    # Each bound lives in the module that owns the argument, behind
    # errors.BadArgument, which `main` maps to exit 2.
    tree = ast.parse((Path(arecorr.__file__).parent / "cli.py").read_text())
    assert [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)] == []
    assert _referenced(tree) & {"MIN_GRID", "_SIZE_LIMIT", "_mc_key"} == set()


def _empty_dicts(tree: ast.Module) -> list[str]:
    """Module-level names bound to an empty dict, `{}` or `dict()`: the
    module's caches, filled while it runs."""
    found = []
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        value = getattr(node, "value", None)
        empty = (isinstance(value, ast.Dict) and not value.keys) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("dict", "defaultdict")
        )
        if empty:
            found += [t.id for t in targets if isinstance(t, ast.Name)]
    return found


def test_the_only_caches_are_the_sigma_s2_memo_and_the_endpoint_series() -> None:
    # The caching decisions live in corrmath and are_bounds: no third
    # cache, no functools cache, and no other module reads the memo.
    caches, memo_readers, decorated = [], [], []
    for path in sorted(Path(arecorr.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        caches += [(path.stem, name) for name in _empty_dicts(tree)]
        found = _referenced(tree)
        if "_MEMO" in found:
            memo_readers.append(path.stem)
        if found & {"functools", "cache", "lru_cache", "cached_property"}:
            decorated.append(path.stem)
    assert caches == [("are_bounds", "_series_cache"), ("corrmath", "_MEMO")]
    assert memo_readers == ["corrmath"]
    assert decorated == []
