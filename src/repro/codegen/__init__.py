"""Code generation from placed monitors (paper §6).

* :mod:`repro.codegen.pyexpr` — expression translation to Python/Java text;
* :mod:`repro.codegen.java_gen` — Java-like explicit-signal source emission
  (ReentrantLock + per-guard Condition objects, exactly the §6 scheme);
* :mod:`repro.codegen.python_gen` — executable Python classes for three
  signalling disciplines (Expresso placement, naive implicit broadcast,
  AutoSynch-style runtime), used by the performance harness.

The names below are imported from their submodules on first use
(:func:`repro.lazy_exports`), so running generated Python classes never
loads the Java emitter.
"""

from repro import lazy_exports

__getattr__ = lazy_exports(__name__, {
    "java_gen": "generate_java",
    "python_gen": "generate_python_explicit generate_python_implicit "
                  "generate_python_autosynch materialize_class"})

__all__ = [
    "generate_java",
    "generate_python_explicit",
    "generate_python_implicit",
    "generate_python_autosynch",
    "materialize_class",
]
