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


def test_the_traced_compose_span_spells_no_composition(monkeypatch):
    """The tracer reads num_terms off every poly.compose result, so reading it
    must not spell the terms that compose_test never spells."""
    from oabp.abp import expand, resolve_order
    from oabp.corpus import standard_corpus
    from oabp.generator import GeneratorParams, build_generator
    from oabp.pit import level_for
    from oabp.poly import SparsePoly, _PackedPoly, mono_degree, mono_sort_key
    from reference import compose_reference

    spans = load_spans()
    m = next(m for m in standard_corpus() if m.name == "ryser_2")
    a, n = m.abp, m.abp.num_vars
    pi = resolve_order(a)
    gen = build_generator(GeneratorParams(level_for(n), m.read_bound, a.field))
    images = {i: SparsePoly(a.field, gen[pi.rank(i) - 1].terms) for i in range(1, n + 1)}
    f = expand(a)

    spelled = []
    monos = _PackedPoly._monos

    def counted(self, keys):
        spelled.extend(keys)
        return monos(self, keys)

    monkeypatch.setattr(_PackedPoly, "_monos", counted)
    tracer = spans.Tracer()
    with tracer.installed():
        out = f.compose(images)
    assert tracer.summary()["poly.compose"]["terms_out"] == out.num_terms > 1
    assert not out.is_zero
    assert not spelled
    want = compose_reference(f, images)
    assert out.least_monomial() == min(want.terms, key=mono_sort_key)
    # the witness spells only the keys of the least total degree
    least = min(map(mono_degree, want.terms))
    assert len(spelled) == sum(mono_degree(mono) == least for mono in want.terms) < out.num_terms
    # reading terms spells every key once, and only the first read spells
    spelled.clear()
    assert out == want
    assert out.terms is out.terms
    assert len(spelled) == out.num_terms
