"""Every lookup site the benchmark tracer wraps must exist in the package,
and every import kept only for the tracer must be such a site.

``bench/spans.py`` swaps module attributes and class methods by name.  A
refactor that drops one of them (an import a module no longer uses, say)
would otherwise only show when the benchmark crashes.
"""

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


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


def test_every_tracer_only_import_is_a_traced_site():
    spans = load_spans()
    sites = {site for sites in spans.TRACED.values() for site in sites}
    found = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for line in path.read_text().splitlines():
            code, _, comment = line.partition("#")
            if "noqa: F401" in comment and "benchmark tracer" in comment:
                name = code.replace(",", " ").split()[-1]
                assert (module, name) in sites, (module, name)
                found += 1
    assert found
