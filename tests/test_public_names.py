"""A public name earns its place: every name in ``wnet.__all__`` is used by a
test module or by the README, so a name that nothing exercises is dropped."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import wnet

HERE = Path(__file__).resolve()
README = HERE.parents[1] / "README.md"


def names_in(module: Path) -> set[str]:
    """Every name, attribute and imported name that the Python file ``module`` spells."""
    names = set()
    for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_is_used_by_another_test_module_or_the_readme():
    used = set(re.findall(r"\w+", README.read_text(encoding="utf-8")))
    for module in HERE.parent.glob("*.py"):
        if module != HERE:
            used |= names_in(module)
    public = [name for name in wnet.__all__ if not name.startswith("__")]
    assert public and [name for name in public if name not in used] == []
