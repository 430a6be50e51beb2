"""Defining a record class generates no code.

``@dataclass`` writes each method it adds as source text and ``exec``s it,
so every process paid for it again on import.  ``repro.record`` builds the
same methods from closures instead.  A fresh interpreter imports every
module under ``src/repro`` and looks at each class with
``__dataclass_fields__``: none of its dunder methods may come from code
compiled out of a string (``co_filename == "<string>"``).  The
``NamedTuple``s in ``explore/scheduler.py`` are not records; the standard
library ``eval``s their ``__new__``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

CHILD = """
import gc, importlib, inspect, json, pkgutil
import repro

for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
records = [cls for cls in gc.get_objects() if isinstance(cls, type)
           and "__dataclass_fields__" in vars(cls)
           and cls.__module__.startswith("repro")]
generated = []
for cls in records:
    for name in dir(cls):
        if not (name.startswith("__") and name.endswith("__")):
            continue
        method = inspect.unwrap(getattr(inspect.getattr_static(cls, name), "__func__",
                                        inspect.getattr_static(cls, name)))
        code = getattr(method, "__code__", None)
        if code is not None and code.co_filename == "<string>":
            generated.append(f"{cls.__module__}.{cls.__qualname__}.{name}")
print(json.dumps({"records": len(records), "generated": generated}))
"""


def test_no_record_method_is_compiled_from_a_string():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run([sys.executable, "-c", CHILD], capture_output=True,
                           text=True, cwd=ROOT, env=env, check=True)
    found = json.loads(child.stdout)
    assert found["records"] >= 69
    assert found["generated"] == []


def _calls_dataclass(tree: ast.AST) -> bool:
    """True if *tree* imports, calls or decorates with ``dataclass``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses":
            if any(alias.name == "dataclass" for alias in node.names):
                return True
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.Attribute) and node.attr == "dataclass":
            return True
        if isinstance(node, ast.Name) and node.id == "dataclass":
            return True
    return False


def test_only_the_record_module_calls_dataclass():
    callers = sorted(str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
                     if _calls_dataclass(ast.parse(path.read_text(encoding="utf-8"))))
    assert callers == ["record.py"]
