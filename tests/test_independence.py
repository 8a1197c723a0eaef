"""The closed form and the division-polynomial oracle stay independent.

Each module's imports are read with ``ast``, so a lazy import inside a
function counts as well.  ``divpoly`` is the oracle; ``engine``,
``profile``, ``tate``, ``formal_group`` and ``sequences`` state the closed
form.  They meet only where ``profile`` reads four low-index values at P
and ``engine`` reads the oracle's table type.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gcval"


def imports(module: str) -> dict:
    """{gcval module: names imported from it} for one gcval module; a whole
    imported module maps to the empty set."""
    found = {}
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                for alias in node.names:
                    found.setdefault(alias.name, set())
                continue
            if node.level == 1:
                source = node.module
            elif node.level == 0 and (node.module or "").startswith("gcval."):
                source = node.module.split(".")[1]
            else:
                continue
            found.setdefault(source, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("gcval."):
                    found.setdefault(alias.name.split(".")[1], set())
    return found


def test_divpoly_imports_no_closed_form_module():
    found = imports("divpoly")
    assert "curve_core" in found  # the reader sees its imports
    assert not set(found) & {"engine", "profile", "tate", "formal_group",
                             "sequences", "corpus", "cli"}


@pytest.mark.parametrize("module", ["tate", "formal_group", "sequences"])
def test_closed_form_module_imports_nothing_from_divpoly(module):
    found = imports(module)
    assert "exact_numbers" in found
    assert "divpoly" not in found


def test_profile_reads_four_low_index_values_from_divpoly():
    assert imports("profile")["divpoly"] == {
        "psi2_value", "psi3_value", "psi2_squared_x", "phi2_x"}


def test_engine_reads_only_the_table_type_from_divpoly():
    assert imports("engine")["divpoly"] == {"DivisionTable"}
