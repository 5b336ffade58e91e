"""Every lookup site the benchmark tracer wraps must exist in the package.

``bench/spans.py`` swaps module attributes and class methods by name.  A
refactor that drops one of them (an import a module no longer uses, say)
would otherwise only show when the benchmark crashes.
"""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves():
    spans = load_spans()
    for name, sites in spans.TRACED.items():
        for module, path in sites:
            importlib.import_module(module)
            owner, attr = spans._resolve(module, path)
            assert attr in owner.__dict__, (name, module, path)
