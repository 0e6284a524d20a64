import ast
from pathlib import Path

import skl

SOURCES = sorted(Path(skl.__file__).parent.glob("*.py"))

#: Modules on the numeric paths; none of them may reach the closed forms.
NUMERIC_MODULES = ("univariate", "bivariate", "analysis", "modulus")


def imported_modules(path: Path) -> set[str]:
    """Absolute names of the skl modules that ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "skl" if node.level else ""
            module = ".".join(part for part in (base, node.module) if part)
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_closed_forms_stay_in_audit_module():
    holders = [path.name for path in SOURCES if "_closed_" in path.read_text()]
    assert holders == ["audit.py"]
    for name in NUMERIC_MODULES:
        path = Path(skl.__file__).parent / f"{name}.py"
        assert "skl.audit" not in imported_modules(path), name


def references(path: Path, names: set[str]) -> set[str]:
    """``module.function`` of every function in ``path`` that reads one of ``names``.

    A name read at module level counts as ``module.<module>``; imports are
    not reads.
    """
    module = path.stem
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{module}.{child.name}")
                continue
            if isinstance(child, ast.Name) and child.id in names:
                found.add(owner)
            elif isinstance(child, ast.Attribute) and child.attr in names:
                found.add(owner)
            visit(child, owner)

    visit(ast.parse(path.read_text()), f"{module}.<module>")
    return found


def test_dense_rows_and_exact_binomials_stay_in_their_places():
    # Production contracts with the banded kernel; the dense rows are the
    # oracle's reference, the partition check's, and the tensor product's.
    dense = set().union(
        *(references(path, {"basis_rows", "basis_row"}) for path in SOURCES if path.stem != "basis")
    )
    assert dense == {
        "univariate.oracle_moments",
        "univariate.oracle_central_moments",
        "bivariate.apply_bi",
        "reports._check_partition",
    }
    # The exact window integrals of the monomials are built in one place.
    comb = set().union(*(references(path, {"comb"}) for path in SOURCES))
    assert comb == {"univariate.monomial_window_integrals"}
