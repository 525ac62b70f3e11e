"""The size of the ``mathieu_integrals`` package, as the ROADMAP tracks it.

    python3 bench/size.py

It prints one line per module of ``src/mathieu_integrals`` (its line count),
the total, the number of names in ``__all__``, the number of defaulted
parameters of public functions and methods (those whose name, and whose
class's name, has no leading ``_``; a nested function is not counted) and the
number of ``@dataclass`` decorators, each a class whose methods are generated
by ``exec`` at every import (about 1 ms each).  The last line is the same
numbers as one JSON object.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mathieu_integrals"


def _defaulted(body: list[ast.stmt]) -> int:
    """The defaulted parameters of the public functions in ``body`` and of the
    public methods of its public classes."""
    count = 0
    for node in body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef):
            count += _defaulted(node.body)
    return count


def _dataclasses(tree: ast.Module) -> int:
    """The classes decorated ``@dataclass`` or ``@dataclasses.dataclass``, called or not."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                name = getattr(target, "attr", getattr(target, "id", ""))  # a.dataclass or dataclass
                count += name == "dataclass"
    return count


def measure(package: Path) -> dict:
    """{"modules": {file name: lines}, "total", "public_symbols", "defaulted_parameters",
    "dataclasses"} of the package directory: lines as ``wc -l`` counts them, ``__all__``
    from its ``__init__.py`` (0 if it has none)."""
    modules, public, defaulted, dataclasses = {}, 0, 0, 0
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        modules[path.name] = text.count("\n")
        tree = ast.parse(text)
        defaulted += _defaulted(tree.body)
        dataclasses += _dataclasses(tree)
        if path.name == "__init__.py":
            for node in tree.body:
                if (isinstance(node, ast.Assign)
                        and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                    public = len(node.value.elts)
    return {"modules": modules, "total": sum(modules.values()), "public_symbols": public,
            "defaulted_parameters": defaulted, "dataclasses": dataclasses}


def main() -> int:
    size = measure(PACKAGE)
    for name, lines in size["modules"].items():
        print(f"{name} {lines}")
    print(f"total {size['total']}")
    print(f"__all__ {size['public_symbols']}")
    print(f"defaulted_parameters {size['defaulted_parameters']}")
    print(f"dataclasses {size['dataclasses']}")
    print(json.dumps(size, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
