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
