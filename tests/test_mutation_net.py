"""Seeded single-value mutations of every fixture, run through the CLI in
process.

Each mutant replaces one value of a fixture (a number, a string, a list or
an object, at any depth) with one drawn from POOL.  Every command must
return 0, 1 or 2 and raise nothing, and a program, polynomial or config
that loads must keep every integer it was given: a loader that truncates
1.5 to 1 or reads true as 1 answers for a file it was not given.
"""

import contextlib
import copy
import functools
import io
import json
import random

from oabp import cli
from oabp.abp import Abp
from oabp.cli import load_config, main
from oabp.errors import OabpError
from oabp.serialize import abp_dumps, poly_dumps, sniff_load

CASES = 600
SMALL = "__1e-400__"  # written as the literal 1e-400, which Python reads as 0.0
POOL = (True, None, 1.5, SMALL, -1, 0, 2, "01", "", [], {})
COMMANDS = (
    ("validate",),
    ("stats",),
    ("eval",),
    ("expand",),
    ("pit", "--read", "1", "--mode", "hitset"),
    ("pit", "--read", "1", "--mode", "span"),
    ("rank",),
    ("obliviate",),
)


def _positions(data, at=()):
    """Every value position below the root of a JSON document."""
    if isinstance(data, dict):
        items = data.items()
    elif isinstance(data, list):
        items = enumerate(data)
    else:
        return
    for key, value in items:
        yield at + (key,)
        yield from _positions(value, at + (key,))


def _mutants(fixtures_dir):
    docs = [(p.name, json.loads(p.read_text())) for p in sorted(fixtures_dir.glob("*.json"))]
    rng = random.Random(0)
    for _ in range(CASES):
        name, doc = rng.choice(docs)
        position = rng.choice(list(_positions(doc)))
        mutant = copy.deepcopy(doc)
        parent = mutant
        for key in position[:-1]:
            parent = parent[key]
        parent[position[-1]] = rng.choice(POOL)
        yield name, json.dumps(mutant).replace(f'"{SMALL}"', "1e-400")


def _program_integers(data, field):
    labels = [e["label"] for e in data["edges"]]
    consts = [lab["const"] for lab in labels if "const" in lab]
    return (
        data["num_vars"],
        data.get("order"),
        sorted(lab["var"] for lab in labels if "var" in lab),
        # rationals are strings in a saved file, whatever the input gave
        None if field.size() is None else sorted(map(json.dumps, consts)),
    )


def _poly_integers(data, field):
    # a zero coefficient drops its term on load
    terms = [t for t in data["terms"] if field.element_from_json(t["coeff"]) != field.zero()]
    return (
        sorted(json.dumps(t["exps"], sort_keys=True) for t in terms),
        None if field.size() is None else sorted(json.dumps(t["coeff"]) for t in terms),
    )


def _assert_integers_kept(text, name):
    try:
        obj = sniff_load(text)
    except OabpError:
        return None
    given = json.loads(text)
    if isinstance(obj, Abp):
        saved = json.loads(abp_dumps(obj))
        assert _program_integers(saved, obj.field) == _program_integers(given, obj.field), name
    else:
        saved = json.loads(poly_dumps(obj))
        want = _poly_integers(given, obj.field)
        if len(set(want[0])) == len(want[0]):  # else equal monomials were summed
            assert _poly_integers(saved, obj.field) == want, name
    for key, value in given["field"].items():
        got = saved["field"][key]
        if value is not None:  # a null modulus asks for the search
            assert got == value and type(got) is type(value), (name, key, value)
    return obj


def _assert_config_kept(path, name):
    try:
        cfg = load_config(str(path))
    except OabpError:
        return
    for key, value in json.loads(path.read_text()).items():
        got = getattr(cfg, key)
        assert got == value and type(got) is type(value), (name, key, value)


def _run(args):
    # an exception main does not map to an exit status propagates from here
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in args])
    assert code in (0, 1, 2), (args, code)


def test_seeded_mutants_load_or_refuse_cleanly(fixtures_dir, tmp_path, monkeypatch):
    # one parser for the whole net: building it takes most of a refusal's time
    monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser))
    program = fixtures_dir / "x1x2.abp.json"
    loaded = 0
    for i, (name, text) in enumerate(_mutants(fixtures_dir)):
        path = tmp_path / f"{i}-{name}"
        path.write_text(text)
        if name.startswith("config"):
            _assert_config_kept(path, name)
            for command in COMMANDS + (("pit", "--read", "1", "--mode", "random"),):
                args = ["--config", path, command[0], program, *command[1:]]
                if command[0] == "eval":
                    args += ["--point", "1,2"]
                _run(args)
            continue
        obj = _assert_integers_kept(text, name)
        loaded += obj is not None
        for command in COMMANDS:
            args = [command[0], path, *command[1:]]
            if command[0] == "eval":
                n = 1
                if obj is not None:
                    n = obj.num_vars if isinstance(obj, Abp) else len(obj.variables())
                args += ["--point", ",".join(["1"] * n)]
            _run(args)
    # the integer checks only see mutants that still load (50 at seed 0)
    assert loaded >= 40
