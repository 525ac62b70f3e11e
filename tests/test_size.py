"""``bench/size.py``: line counts, ``__all__``, defaulted public parameters and
``@dataclass`` decorators."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

_path = Path(__file__).resolve().parents[1] / "bench" / "size.py"
_spec = importlib.util.spec_from_file_location("size", _path)
size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(size)


def test_a_two_module_tree(tmp_path):
    (tmp_path / "__init__.py").write_text(
        '"""A package."""\n'
        "from .mod import f\n"
        '__all__ = ["f", "C"]\n'
        "import dataclasses\n"
        "@dataclasses.dataclass(frozen=True)\n"  # a dataclass
        "class D:\n"
        "    x: int = 0\n")
    (tmp_path / "mod.py").write_text(
        "def f(a, b=1, *, c=2, d):\n"          # 2 defaulted
        "    def inner(x=1):\n"                # nested: not counted
        "        return x\n"
        "    return inner\n"
        "def _private(a=1):\n"                 # private: not counted
        "    pass\n"
        "class C:\n"
        "    def __init__(self, a=1):\n"       # leading _: not counted
        "        pass\n"
        "    def m(self, a=1, b=2):\n"         # 2 defaulted
        "        pass\n"
        "    async def n(self, *, a=1):\n"     # 1 defaulted
        "        pass\n"
        "class _Hidden:\n"
        "    def m(self, a=1):\n"              # a private class's method: not counted
        "        pass\n"
        "@dataclass\n"                         # a dataclass
        "class E:\n"
        "    @dataclass(frozen=True)\n"        # a nested dataclass
        "    class F:\n"
        "        y: int\n"
        "@functools.total_ordering\n"          # another decorator: not counted
        "class G:\n"
        "    @dataclass\n"                     # a decorated method: not counted
        "    def h(self):\n"
        "        pass\n")
    assert size.measure(tmp_path) == {"modules": {"__init__.py": 7, "mod.py": 26},
                                      "total": 33, "public_symbols": 2,
                                      "defaulted_parameters": 5, "dataclasses": 3}


def test_this_repository():
    proc = subprocess.run([sys.executable, str(_path)], capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.splitlines()
    last = json.loads(lines[-1])
    assert last == size.measure(size.PACKAGE)
    assert last["total"] == sum(last["modules"].values())
    assert last["modules"]["__init__.py"] > 0 and last["public_symbols"] > 0
    # one line per module, then the total, __all__, the defaulted parameters and the
    # dataclasses
    assert lines[:-5] == [f"{name} {n}" for name, n in last["modules"].items()]
    assert lines[-5] == f"total {last['total']}"
    assert lines[-2] == f"dataclasses {last['dataclasses']}"
    for name, path in ((n, size.PACKAGE / n) for n in last["modules"]):
        assert last["modules"][name] == path.read_bytes().count(b"\n")
