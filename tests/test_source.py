"""Properties of the package source itself."""

from __future__ import annotations

import ast
import inspect
import textwrap
from pathlib import Path

import poisdef
from poisdef.multivec import WeightSlice

SOURCE_DIR = Path(poisdef.__file__).resolve().parent


def test_no_assert_statements_in_package():
    """Invariants raise real exceptions: ``python -O`` strips asserts."""
    found = []
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(SOURCE_DIR.glob("*.py")), "package sources not found"
    assert not found, f"assert statements in src/poisdef: {found}"



def test_no_true_division_in_package():
    """Coefficients may be ints, and int / int is a float: every
    reciprocal goes through Fraction instead of the / operator."""
    found = []
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign))
                  and isinstance(node.op, ast.Div)]
    assert list(SOURCE_DIR.glob("*.py")), "package sources not found"
    assert not found, f"true division in src/poisdef: {found}"


def test_eliminator_built_only_by_the_slice_layer():
    """Every exact elimination runs through WeightSlice: it is the only
    subclass of Eliminator in src/poisdef, and no module constructs an
    Eliminator itself."""
    subclasses, builders = [], []
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and "Eliminator" in [
                    getattr(base, "id", None) or getattr(base, "attr", None)
                    for base in node.bases]:
                subclasses.append(node.name)
            elif isinstance(node, ast.Call) and "Eliminator" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                builders.append(f"{path.name}:{node.lineno}")
    assert subclasses == [WeightSlice.__name__], subclasses
    assert not builders, builders


def test_no_dead_imports_or_private_helpers():
    """Every name a module imports (bar __future__ and the re-exports of
    __init__.py) is loaded in that module, and every private module-level
    function, class or assigned name is referenced somewhere in the
    package."""
    unused, referenced, private = [], set(), {}
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        loads = {node.id for node in ast.walk(tree)
                 if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Load)}
        referenced |= loads | {node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute)}
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = [top.name]
            else:
                targets = (top.targets if isinstance(top, ast.Assign) else
                           [top.target] if isinstance(top, ast.AnnAssign)
                           else [])
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            private.update({name: f"{path.name}:{top.lineno}" for name in names
                            if name.startswith("_")
                            and not name.startswith("__")})
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [a.asname or a.name.split(".")[0]
                            for a in node.names]
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}"
                       for name in imported if name not in loads]
    assert private, "package sources not found"
    assert not unused, f"imported and never loaded: {unused}"
    dead = [f"{where} {name}" for name, where in private.items()
            if name not in referenced]
    assert not dead, f"private names never referenced: {dead}"


def test_every_public_name_is_used():
    """Every public module-level function and class (outside __init__.py)
    is loaded somewhere in the package outside its own definition, or is
    imported from poisdef by the benchmark in perfbench/.  parse_label is
    exempt: the planned ``poisdef classify`` command reads labels with
    it."""
    exempt = {"parse_label"}
    bench = sorted((Path(__file__).resolve().parents[1]
                    / "perfbench").glob("*.py"))
    assert bench, "perfbench sources not found"
    used, public = set(), {}
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            own = getattr(top, "name", None)
            used |= {node.id for node in ast.walk(top)
                     if isinstance(node, ast.Name)
                     and isinstance(node.ctx, ast.Load) and node.id != own}
            if (path.name != "__init__.py"
                    and isinstance(top, (ast.FunctionDef, ast.ClassDef))
                    and not top.name.startswith("_")):
                public[top.name] = f"{path.name}:{top.lineno}"
    for path in bench:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)
                 and (node.module or "").split(".")[0] == "poisdef"
                 for alias in node.names}
    assert public, "package sources not found"
    unused = [f"{where} {name}" for name, where in public.items()
              if name not in used | exempt]
    assert not unused, f"public names used nowhere: {unused}"


def test_poly_storage_read_only_in_algebra():
    """A Poly's numerators, denominator and kept partials are shared by
    every result that reuses them, so no module but algebra.py reads or
    writes them."""
    private = {"_nums", "_den", "_partials"}
    found = []
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        if path.name == "algebra.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if (isinstance(node, ast.Attribute) and node.attr in private)
                  or (isinstance(node, ast.Constant) and node.value in private)]
    assert (SOURCE_DIR / "algebra.py").exists(), "package sources not found"
    assert not found, f"Poly storage touched outside algebra.py: {found}"


def _called_names(node) -> list[str]:
    return [getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)]


def test_transfer_stage_reads_one_decomposition():
    """A transfer stage reads ell_n and f_n off one decompose(T_n), with
    T_n its caller's, and it is the only code in linfty that decomposes
    (nothing there projects); E_labels fills no memo itself; every signed
    shuffle sum of linfty takes its blocks from _unshuffles, the one
    function that enumerates them, and _canonical_key is the one rule
    that reorders a label tuple and signs the reordering."""
    import poisdef
    from poisdef import linfty

    stage = ast.parse(textwrap.dedent(
        inspect.getsource(linfty.TransferState._compute_stage)))
    called = _called_names(stage)
    assert called.count("decompose") == 1
    assert not {"project", "solve_coboundary", "T_labels"} & set(called)
    t_value = inspect.signature(
        linfty.TransferState._compute_stage).parameters["t_value"]
    assert t_value.default is inspect.Parameter.empty
    tree = ast.parse(inspect.getsource(linfty))
    decomposers = {node.name for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef)
                   and "decompose" in _called_names(node)}
    assert decomposers == {"_compute_stage"}, decomposers
    assert "project" not in _called_names(tree)
    residual = ast.parse(textwrap.dedent(
        inspect.getsource(linfty.TransferState.E_labels)))
    stores = [node.lineno for node in ast.walk(residual)
              if isinstance(node, (ast.Assign, ast.AugAssign))
              and any(isinstance(target, ast.Subscript) for target in
                      getattr(node, "targets", [getattr(node, "target",
                                                        None)]))]
    assert not stores, f"E_labels writes a memo at lines {stores}"
    walkers = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and "combinations" in _called_names(node)}
    assert walkers == {"_unshuffles"}, walkers
    signers = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and "koszul_chi" in _called_names(node)}
    assert signers == {"_canonical_key", "_unshuffles"}, signers
    assert not {"_canonical", "f2_table"} & set(vars(linfty))
    assert "f2_table" not in poisdef.__all__


def test_coboundary_is_one_bracket():
    """d = [pi_phi, .] goes through the one bracket kernel: coboundary
    calls schouten_sum and writes no exact-potential form of its own."""
    from poisdef import multivec

    called = set(_called_names(ast.parse(textwrap.dedent(
        inspect.getsource(multivec.coboundary)))))
    assert "schouten_sum" in called
    assert not {"_cross_terms", "_dot_terms", "_div"} & called, called


def test_signed_sums_have_one_writer():
    """Polynomials and classes print through the one signed-sum writer."""
    from poisdef import CohClass, Poly

    for function in (Poly.__str__, CohClass.__str__):
        called = _called_names(ast.parse(textwrap.dedent(
            inspect.getsource(function))))
        assert "signed_sum_str" in called, function.__qualname__


def test_each_rendering_is_str():
    """Polynomials, classes and multivectors render through str() alone:
    the one public *_str function of the package is the signed-sum writer
    their __str__ methods share."""
    from poisdef import algebra, cohomology, multivec

    renderers = [f"{module.__name__}.{name}"
                 for module in (algebra, cohomology, multivec)
                 for name, value in vars(module).items()
                 if name.endswith("_str") and not name.startswith("_")
                 and getattr(value, "__module__", None) == module.__name__]
    assert renderers == ["poisdef.algebra.signed_sum_str"], renderers
    assert not [name for name in poisdef.__all__ if name.endswith("_str")]


def test_every_refusal_is_a_domain_error():
    """Every exception class of the package derives from DomainError, and
    the CLI's exit-1 handler names exactly DomainError, OSError and
    json.JSONDecodeError, so a new refusal needs no edit of the CLI."""
    import importlib

    from poisdef import cli
    from poisdef.algebra import DomainError

    errors = []
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        module = importlib.import_module(
            "poisdef" if path.stem == "__init__" else f"poisdef.{path.stem}")
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        classes = [getattr(module, node.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)]
        errors += [cls for cls in classes if issubclass(cls, BaseException)]
    assert {cls.__name__ for cls in errors} >= {
        "DomainError", "PolyParseError", "CLIUsageError",
        "InvalidFamilyError", "NotIsolatedError", "ArityCapExceededError"}
    assert all(issubclass(cls, DomainError) for cls in errors), [
        cls.__name__ for cls in errors if not issubclass(cls, DomainError)]
    assert "DomainError" in poisdef.__all__

    handlers = [node for node in ast.walk(ast.parse(textwrap.dedent(
        inspect.getsource(cli.main)))) if isinstance(node, ast.ExceptHandler)]
    assert len(handlers) == 1
    caught = handlers[0].type
    assert isinstance(caught, ast.Tuple)
    assert sorted(ast.unparse(e) for e in caught.elts) == [
        "DomainError", "OSError", "json.JSONDecodeError"]


def test_row_rules_read_only_by_image_rows():
    """The exact-potential forms are written once, in _ROW_RULES, and
    only image_rows reads them."""
    readers = set()
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in tree.body:
            owner = getattr(top, "name", f"{path.name}:{top.lineno}")
            readers |= {owner for node in ast.walk(top)
                        if (isinstance(node, ast.Name)
                            and node.id == "_ROW_RULES"
                            and isinstance(node.ctx, ast.Load))
                        or (isinstance(node, ast.Attribute)
                            and node.attr == "_ROW_RULES")}
    assert readers == {"image_rows"}, readers


def test_every_eliminator_input_is_tagged():
    """Eliminator.add, and WeightSlice.add that feeds it, take the tag
    with no default, so every stored row records its input."""
    from poisdef.linalg import Eliminator

    for method in (Eliminator.add, WeightSlice.add):
        tree = ast.parse(textwrap.dedent(inspect.getsource(method)))
        args = tree.body[0].args
        names = [a.arg for a in args.posonlyargs + args.args]
        assert "tag" in names, method
        defaulted = names[len(names) - len(args.defaults):]
        assert "tag" not in defaulted, method


def test_solve_coboundary_catches_nothing():
    """A target that is not closed raises NotACocycleError straight from
    decompose: it is a NotACoboundaryError, so nothing is re-raised."""
    from poisdef import cohomology

    tree = ast.parse(textwrap.dedent(
        inspect.getsource(cohomology.solve_coboundary)))
    handlers = [node.lineno for node in ast.walk(tree)
                if isinstance(node, (ast.Try, ast.ExceptHandler))]
    assert not handlers, handlers
    assert issubclass(cohomology.NotACocycleError,
                      cohomology.NotACoboundaryError)


def test_poly_scalar_product_has_no_unit_branch():
    """Poly.__mul__ scales by every scalar the same way: it compares
    nothing with 1 or -1."""
    from poisdef.algebra import Poly

    def is_unit(node) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return isinstance(node, ast.Constant) and node.value == 1

    tree = ast.parse(textwrap.dedent(inspect.getsource(Poly.__mul__)))
    units = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Compare)
             and any(map(is_unit, [node.left, *node.comparators]))]
    assert not units, f"Poly.__mul__ compares with 1 or -1 at {units}"


def test_basis_monomials_built_once_per_potential():
    """realize and _f2_table read SingularityData.basis_polys instead of
    rebuilding a basis monomial with Poly.monomial."""
    from poisdef import cohomology, linfty

    for function in (cohomology.realize, linfty._f2_table):
        called = _called_names(ast.parse(textwrap.dedent(
            inspect.getsource(function))))
        assert "monomial" not in called, function.__name__


def test_only_the_family_reader_opens_a_file_to_read():
    """CoeffFamily.read is the one code in src/poisdef that opens a file
    to read it, so every file read goes through its byte bound; opening a
    file to write a report stays allowed."""
    from poisdef.deform import CoeffFamily

    lines, start = inspect.getsourcelines(CoeffFamily.read)
    owner = range(start, start + len(lines))
    readers, writers = [], []
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and (
                    getattr(call.func, "id", None) == "open"
                    or getattr(call.func, "attr", None) in (
                        "open", "read_text", "read_bytes"))):
                continue
            mode = call.args[1] if len(call.args) > 1 else next(
                (k.value for k in call.keywords if k.arg == "mode"), None)
            writes = (isinstance(mode, ast.Constant)
                      and set(str(mode.value)) & set("wax"))
            where = (path.name, call.lineno)
            (writers if writes else readers).append(where)
    assert writers, "package sources not found"
    assert readers and all(name == "deform.py" and line in owner
                           for name, line in readers), readers
