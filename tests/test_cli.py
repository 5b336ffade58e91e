"""End-to-end command line coverage, run in process through main()."""

import dataclasses
import json
import pathlib
import re
import shlex
import shutil
import time
import tracemalloc
from fractions import Fraction

import pytest

import oabp.families
from oabp.abp import resolve_order
from oabp.cli import CliConfig, main
from oabp.fields import rationals
from oabp.poly import SparsePoly
from oabp.serialize import abp_loads, poly_dumps


def run(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate -------------------------------------------------------------------


def test_validate_ok(capsys, fixtures_dir):
    code, out, err = run(capsys, "validate", fixtures_dir / "x1x2.abp.json")
    assert (code, out, err) == (0, "OK\n", "")


def test_validate_unloadable_file_is_a_runtime_error(capsys, fixtures_dir):
    code, out, err = run(capsys, "validate", fixtures_dir / "bad_var0.abp.json")
    assert code == 2
    assert "bad variable index 0" in err


def test_validate_reports_structural_problems(capsys, fixtures_dir, tmp_path):
    data = json.loads((fixtures_dir / "x1x2.abp.json").read_text())
    data["edges"][0]["from"] = "ghost"
    bad = tmp_path / "ghost.abp.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", bad)
    # the command completed, so the exit code is 0; the verdict is the output
    assert code == 0
    assert "problem: edge 'ghost'->'t' references unknown node" in out


def test_missing_file_is_a_runtime_error(capsys):
    code, out, err = run(capsys, "validate", "no/such/file.json")
    assert code == 2
    assert err.startswith("error:")


PROGRAM_HEAD = {"field": {"kind": "rational"}, "num_vars": 1, "levels": [["s"], ["t"]]}
POLY_HEAD = {"field": {"kind": "rational"}}
F9_HEAD = {"field": {"kind": "extension", "p": 3, "deg": 2}}


@pytest.mark.parametrize(
    "data",
    [
        {**PROGRAM_HEAD, "edges": 5},
        {**PROGRAM_HEAD, "edges": [{"from": "s", "to": "t", "label": "var"}]},
        {**POLY_HEAD, "terms": 7},
        {**POLY_HEAD, "terms": [{"coeff": "1", "exps": [1, 1]}]},
        {"field": {"kind": "prime", "p": "x"}, "terms": []},
        {"field": {"kind": "prime", "p": float("inf")}, "terms": []},
        {**PROGRAM_HEAD, "edges": [{"from": "s", "to": ["t"], "label": {"var": 1}}]},
        {**PROGRAM_HEAD, "edges": [{"from": 0, "to": "t", "label": {"var": 1}}]},
        {**PROGRAM_HEAD, "num_vars": True, "edges": []},
        {**PROGRAM_HEAD, "edges": [{"from": "s", "to": "t", "label": {"var": True}}]},
        {**PROGRAM_HEAD, "edges": [], "order": [True]},
        {**POLY_HEAD, "terms": [{"coeff": "1", "exps": {"1": True}}]},
        {**POLY_HEAD, "terms": [{"coeff": "1", "exps": {"": 1}}]},
        {"field": {"kind": "prime", "p": 7.9}, "terms": []},
        {"field": {"kind": "prime", "p": True}, "terms": []},
        {"field": {"kind": "extension", "p": 3, "deg": 2.0}, "terms": []},
        {**F9_HEAD, "terms": [{"coeff": [1.5, 0], "exps": {}}]},
        {**F9_HEAD, "terms": [{"coeff": [3, 0], "exps": {}}]},
        {**POLY_HEAD, "terms": [{"coeff": "1", "exps": {"0": 1}}]},
        {**POLY_HEAD, "terms": [{"coeff": "1", "exps": {"01": 1}}]},
        '{"field": {"kind": "rational"}, "num_vars": 1, "levels": [["s"], ["t"]],'
        ' "edges": [{"from": "s", "to": "t", "label": {"const": 1e-400}}]}',
        {**PROGRAM_HEAD, "edges": [{"from": "s", "to": "t", "label": {"const": 0.1}}]},
        {**PROGRAM_HEAD, "edges": [{"from": "s", "to": "t", "label": {"const": "1e10000000"}}]},
        {**PROGRAM_HEAD, "edges": [{"from": "s", "to": "t", "label": {"const": "0.5"}}]},
        {**PROGRAM_HEAD, "num_vars": 2.0, "edges": []},
        {**PROGRAM_HEAD, "edges": [{"from": "s", "to": "t", "label": {"var": 1.0}}]},
        {**PROGRAM_HEAD, "edges": [], "order": [1.0]},
        {**POLY_HEAD, "terms": [{"coeff": "1", "exps": {"1": 1.0}}]},
        {"field": {"kind": "prime", "p": 9223372021822390277}, "terms": []},
        {"field": {"kind": "prime", "p": 2**64 + 13}, "terms": []},
        {"field": {"kind": "extension", "p": 3, "deg": 100000}, "terms": []},
        {"field": {"kind": "extension", "p": 3, "deg": 2, "modulus": [2, 2, 4]}, "terms": []},
        '{"field": {"kind": "prime", "p": 1' + "0" * 4400 + '}, "terms": []}',
        '{"field": {"kind": "rational"}, "terms": [{"coeff": "1", "exps": {"' + "9" * 4400 + '": 1}}]}',
    ],
    ids=[
        "edges-int", "label-string", "terms-int", "exps-list", "prime-p-string", "prime-p-inf",
        "endpoint-list", "endpoint-int", "num-vars-bool", "var-bool", "order-bool",
        "exponent-bool", "exponent-key-empty", "prime-p-float", "prime-p-bool",
        "extension-deg-float", "extension-coeff-float", "extension-coeff-range", "exponent-key-zero",
        "exponent-key-leading-zero", "const-underflow-float", "const-float",
        "const-exponent-string", "const-decimal-string", "num-vars-float",
        "var-float", "order-float", "exponent-float", "prime-p-pseudoprime-free-composite",
        "prime-p-over-2-64", "extension-deg-huge", "extension-modulus-range",
        "number-over-4300-digits", "exponent-key-over-4300-digits",
    ],
)
def test_malformed_file_is_a_runtime_error(capsys, tmp_path, data):
    bad = tmp_path / "bad.json"
    bad.write_text(data if isinstance(data, str) else json.dumps(data))
    start = time.perf_counter()
    code, out, err = run(capsys, "stats", bad)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert err.startswith(f"error: {bad}: ")
    assert out == ""


def test_a_prime_field_below_2_64_loads_quickly(capsys, tmp_path):
    good = tmp_path / "m61.abp.json"
    good.write_text(json.dumps({**PROGRAM_HEAD, "field": {"kind": "prime", "p": 2**61 - 1},
                                "edges": [{"from": "s", "to": "t", "label": {"var": 1}}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "stats", good)
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out.startswith("program over prime: 1 variables")


# -- stats and eval ---------------------------------------------------------------


def test_stats_program_human(capsys, fixtures_dir):
    code, out, _ = run(capsys, "stats", fixtures_dir / "x1x2.abp.json")
    assert code == 0
    assert out == (
        "program over rational: 2 variables\n"
        "size 3, depth 2, width 1, read 1\n"
        "reads per variable: {'1': 1, '2': 1}\n"
        "oblivious: True\n"
    )


def test_stats_program_json(capsys, fixtures_dir):
    code, out, _ = run(capsys, "--json", "stats", fixtures_dir / "x1x2.abp.json")
    assert code == 0
    assert json.loads(out) == {
        "kind": "abp",
        "num_vars": 2,
        "size": 3,
        "depth": 2,
        "width": 1,
        "read": 1,
        "reads": {"1": 1, "2": 1},
        "order": None,
        "oblivious": True,
    }


def test_stats_polynomial(capsys, fixtures_dir):
    code, out, _ = run(capsys, "stats", fixtures_dir / "symm_3_2.poly.json")
    assert code == 0
    assert out == "polynomial over rational: 3 terms, total degree 2, multilinear True\n"


def test_eval_program(capsys, fixtures_dir):
    code, out, _ = run(capsys, "eval", fixtures_dir / "x1x2.abp.json", "--point", "1,3")
    assert (code, out) == (0, "3\n")


def test_eval_polynomial(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "eval", fixtures_dir / "symm_3_2.poly.json", "--point", "5,7,11"
    )
    assert (code, out) == (0, "167\n")


def test_eval_and_stats_order_polynomial_variables_by_index(capsys, tmp_path):
    # x10 must come after x2, so the point's third coordinate lands on x10
    terms = {((1, 1),): Fraction(100), ((2, 1),): Fraction(1), ((10, 1),): Fraction(10)}
    poly = tmp_path / "p.poly.json"
    poly.write_text(poly_dumps(SparsePoly(rationals(), terms)))
    code, out, _ = run(capsys, "eval", poly, "--point", "1,2,3")
    assert (code, out) == (0, "132\n")
    code, out, _ = run(capsys, "--json", "stats", poly)
    assert code == 0
    assert json.loads(out)["variables"] == [1, 2, 10]


def test_stats_reads_one_monomial_in_any_variable_order(capsys, tmp_path):
    # z*z0 - z0*z is the zero polynomial, whichever way the file spells the term
    terms = [
        {"coeff": "1", "exps": {"z": 1, "z0": 1}},
        {"coeff": "-1", "exps": {"z0": 1, "z": 1}},
    ]
    poly = tmp_path / "zero.poly.json"
    poly.write_text(json.dumps({"field": {"kind": "rational"}, "terms": terms}))
    code, out, _ = run(capsys, "stats", poly)
    assert (code, out) == (0, "polynomial over rational: 0 terms, total degree 0, multilinear True\n")


def test_eval_point_takes_exact_decimals_but_no_exponent(capsys, fixtures_dir):
    x1x2 = fixtures_dir / "x1x2.abp.json"
    code, out, _ = run(capsys, "eval", x1x2, "--point", "0.5,3")
    assert (code, out) == (0, "3/2\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", x1x2, "--point", "1e10000000,1")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: bad rational '1e10000000'")


def test_eval_wrong_arity(capsys, fixtures_dir):
    code, _, err = run(capsys, "eval", fixtures_dir / "x1x2.abp.json", "--point", "1")
    assert code == 2
    assert "point has 1 coordinates, expected 2" in err


# -- expand and artifacts ----------------------------------------------------------


def test_expand_stdout_matches_fixture_bytes(capsys, fixtures_dir):
    code, out, _ = run(capsys, "expand", fixtures_dir / "symm_3_2.abp.json")
    assert code == 0
    assert out == (fixtures_dir / "symm_3_2.poly.json").read_text()


def test_expand_to_file(capsys, fixtures_dir, tmp_path):
    target = tmp_path / "out.poly.json"
    code, out, _ = run(capsys, "expand", fixtures_dir / "symm_3_2.abp.json", "-o", target)
    assert code == 0
    assert out == f"expanded to 3 terms -> {target}\n"
    assert target.read_text() == (fixtures_dir / "symm_3_2.poly.json").read_text()


# -- pit ---------------------------------------------------------------------------


def test_pit_hitset_human(capsys, fixtures_dir):
    code, out, _ = run(capsys, "pit", fixtures_dir / "x1x2.abp.json", "--read", "1")
    assert code == 0
    assert out == "NONZERO (mode=hitset, queries=6)\nwitness: (-1, 2)\n"


def test_pit_hitset_json_deterministic(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "--json", "pit", fixtures_dir / "x1x2.abp.json", "--read", "1"
    )
    assert code == 0
    assert json.loads(out) == {
        "verdict": "NONZERO",
        "mode": "hitset",
        "queries": 6,
        "witness": ["-1", "2"],
        "note": None,
        "grid": [3, 2, 1, 3, 3],
        "span_dim": None,
    }
    _, again, _ = run(
        capsys, "--json", "pit", fixtures_dir / "x1x2.abp.json", "--read", "1"
    )
    assert again == out


def test_pit_span_witness(capsys, fixtures_dir, tmp_path):
    code, out, _ = run(
        capsys, "pit", fixtures_dir / "x1x2.abp.json", "--read", "1", "--mode", "span"
    )
    assert (code, out) == (0, "NONZERO (mode=span, queries=0)\nwitness: x1*x2\n")
    # x2 - 2*x1*x3: the witness is the least monomial, x2, and with the x2
    # path gone, -2*x1*x3
    data = {
        **PROGRAM_HEAD, "num_vars": 3, "levels": [["s"], ["a", "b"], ["c", "d"], ["t"]],
        "edges": [
            {"from": "s", "to": "a", "label": {"var": 1}},
            {"from": "a", "to": "c", "label": {"const": "-2"}},
            {"from": "c", "to": "t", "label": {"var": 3}},
            {"from": "s", "to": "b", "label": {"const": "1"}},
            {"from": "b", "to": "d", "label": {"var": 2}},
            {"from": "d", "to": "t", "label": {"const": "1"}},
        ],
    }
    path = tmp_path / "p.abp.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "pit", path, "--read", "1", "--mode", "span")
    assert (code, out) == (0, "NONZERO (mode=span, queries=0)\nwitness: x2\n")
    data["edges"] = data["edges"][:3]
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "pit", path, "--read", "1", "--mode", "span")
    assert (code, out) == (0, "NONZERO (mode=span, queries=0)\nwitness: -2*x1*x3\n")
    code, out, _ = run(capsys, "--json", "pit", path, "--read", "1", "--mode", "span")
    assert code == 0
    assert json.loads(out) == {
        "verdict": "NONZERO", "mode": "span", "queries": 0, "note": None, "grid": None,
        "witness": {"monomial": [[1, 1], [3, 1]], "coeff": "-2"}, "span_dim": 1,
    }


def test_pit_zero_program(capsys, fixtures_dir):
    code, out, _ = run(capsys, "pit", fixtures_dir / "zero_2.abp.json", "--read", "2")
    assert code == 0
    assert out.startswith("ZERO (mode=hitset, queries=108)")
    # the program reads its variables twice, so a read-once promise is refused
    code, _, _ = run(capsys, "pit", fixtures_dir / "zero_2.abp.json", "--read", "1")
    assert code == 2


@pytest.mark.parametrize("mode", ["hitset", "span", "random"])
def test_pit_answers_a_program_over_no_variables(capsys, tmp_path, mode):
    const = tmp_path / "c0.abp.json"
    const.write_text(json.dumps({
        **PROGRAM_HEAD, "num_vars": 0, "edges": [{"from": "s", "to": "t", "label": {"const": 3}}],
    }))
    code, out, err = run(capsys, "--json", "pit", const, "--read", "1", "--mode", mode)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    want = {"monomial": [], "coeff": "3"} if mode == "span" else []
    assert (payload["verdict"], payload["witness"]) == ("NONZERO", want)
    # span's witness is the constant itself, the empty point spells as ()
    code, out, err = run(capsys, "pit", const, "--read", "1", "--mode", mode)
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == ("witness: 3" if mode == "span" else "witness: ()")


def test_validate_and_pit_spell_a_refused_order_alike(capsys, tmp_path):
    # the path reads x1, x2, x3; the declared image list [2, 3, 1] ranks x3
    # first, so its variable sequence is [3, 1, 2]
    chain = tmp_path / "chain.abp.json"
    chain.write_text(json.dumps({
        "field": {"kind": "rational"},
        "num_vars": 3,
        "order": [2, 3, 1],
        "levels": [["s"], ["a"], ["b"], ["t"]],
        "edges": [
            {"from": "s", "to": "a", "label": {"var": 1}},
            {"from": "a", "to": "b", "label": {"var": 2}},
            {"from": "b", "to": "t", "label": {"var": 3}},
        ],
    }))
    code, out, _ = run(capsys, "validate", chain)
    assert (code, out) == (0, "problem: program does not respect its declared order [3, 1, 2]\n")
    code, _, err = run(capsys, "pit", chain, "--read", "1")
    assert (code, err) == (2, "error: program does not respect the order [3, 1, 2]\n")
    assert re.findall(r"\[.*\]", out) == re.findall(r"\[.*\]", err)


def test_pit_wrong_order_refused_in_both_exact_modes(capsys, fixtures_dir):
    for args, message in (
        (("x1x2.abp.json", "--read", "1", "--order", "2,1"),
         "program does not respect the order [2, 1]"),
        # symm_3_2 reads each variable twice
        (("symm_3_2.abp.json", "--read", "1"),
         "program reads a variable 2 times, over the read bound 1"),
    ):
        runs = [
            run(capsys, "pit", fixtures_dir / args[0], *args[1:], "--mode", mode)
            for mode in ("hitset", "span")
        ]
        assert runs[0] == runs[1]
        assert runs[0] == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "levels, to, problem",
    [
        ([["s"], ["t"]], "ghost", "edge 's'->'ghost' references unknown node"),
        ([["s"], ["t", "t2"]], "t", "sink level has 2 nodes, want 1"),
        ([], "t", "need at least two levels (source and sink)"),
    ],
    ids=["unknown-node", "two-sinks", "no-levels"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["stats"],
        ["eval", "--point", "1"],
        ["expand"],
        ["pit", "--read", "1", "--mode", "hitset"],
        ["pit", "--read", "1", "--mode", "span"],
        ["pit", "--read", "1", "--mode", "random"],
    ],
    ids=["stats", "eval", "expand", "pit-hitset", "pit-span", "pit-random"],
)
def test_commands_refuse_an_invalid_program(capsys, tmp_path, command, levels, to, problem):
    bad = tmp_path / "bad.abp.json"
    bad.write_text(json.dumps({
        **PROGRAM_HEAD,
        "levels": levels,
        "edges": [{"from": "s", "to": to, "label": {"var": 1}}],
    }))
    code, out, err = run(capsys, command[0], bad, *command[1:])
    assert (code, out, err) == (2, "", f"error: invalid program: {problem}\n")


def test_pit_notes_a_lifted_verdict_in_human_output(capsys, tmp_path):
    # F_2 holds too few points for the level-1 map, so hitset lifts; span
    # never does
    f2 = tmp_path / "x1x2_f2.abp.json"
    f2.write_text(json.dumps({
        "field": {"kind": "prime", "p": 2},
        "num_vars": 2,
        "levels": [["s"], ["m"], ["t"]],
        "edges": [
            {"from": "s", "to": "m", "label": {"var": 1}},
            {"from": "m", "to": "t", "label": {"var": 2}},
        ],
    }))
    extension = "{'kind': 'extension', 'p': 2, 'deg': 3, 'modulus': [1, 1, 0, 1]}"
    code, out, _ = run(capsys, "pit", f2, "--read", "1")
    assert (code, out) == (0, (
        "NONZERO (mode=hitset, queries=6)\n"
        "witness: (1:1:0, 0:1:0)\n"
        f"note: evaluated over extension {extension}\n"
    ))
    code, out, _ = run(capsys, "pit", f2, "--read", "1", "--mode", "span")
    assert (code, out) == (0, "NONZERO (mode=span, queries=0)\nwitness: x1*x2\n")


@pytest.mark.parametrize(
    "command",
    [["pit", "--read", "1"], ["obliviate"], ["rank"]],
    ids=["pit", "obliviate", "rank"],
)
def test_an_order_of_the_wrong_length_is_refused(capsys, fixtures_dir, command):
    code, out, err = run(
        capsys, command[0], fixtures_dir / "x1x2.abp.json", *command[1:], "--order", "1"
    )
    assert (code, out, err) == (2, "", "error: order lists 1 variables, expected 2\n")


def test_pit_grid_budget_exceeded(capsys, fixtures_dir):
    code, _, err = run(capsys, "pit", fixtures_dir / "symm_4_2.abp.json", "--read", "2")
    assert code == 2
    assert err.endswith("; span mode needs no grid\n")
    # the mode it names answers
    code, out, _ = run(
        capsys, "pit", fixtures_dir / "symm_4_2.abp.json", "--read", "2", "--mode", "span"
    )
    assert (code, out) == (0, "NONZERO (mode=span, queries=0)\nwitness: x1*x2\n")


def test_pit_random_mode(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "pit", fixtures_dir / "x1x2.abp.json", "--read", "1", "--mode", "random"
    )
    assert code == 0
    assert out.startswith("NONZERO (mode=random, queries=")


# -- rank ---------------------------------------------------------------------------


def test_rank_with_explicit_order(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "rank", fixtures_dir / "ordersep_2.poly.json", "--order", "2,4,1,3,5"
    )
    assert (code, out) == (0, "read lower bound: 4\n")


def test_rank_default_order(capsys, fixtures_dir):
    code, out, _ = run(capsys, "rank", fixtures_dir / "ordersep_2.poly.json")
    assert (code, out) == (0, "read lower bound: 1\n")


def test_rank_on_program(capsys, fixtures_dir):
    code, out, _ = run(capsys, "rank", fixtures_dir / "symm_3_2.abp.json")
    assert (code, out) == (0, "read lower bound: 2\n")


def test_rank_order_flag_replaces_a_programs_order(capsys, fixtures_dir):
    # the bound is about the polynomial, so rank takes an order the program
    # does not respect: ordersep_2 declares its good order
    path = fixtures_dir / "ordersep_2.abp.json"
    assert run(capsys, "rank", path) == (0, "read lower bound: 1\n", "")
    code, out, _ = run(capsys, "--json", "rank", path, "--order", "2,4,1,3,5")
    assert code == 0
    assert json.loads(out) == {"read_lower_bound": 4, "order": [2, 4, 1, 3, 5]}


def test_rank_refuses_a_program_that_respects_no_order(capsys, tmp_path):
    # one path reads x1 then x2, the other x2 then x1
    crossed = tmp_path / "crossed.abp.json"
    crossed.write_text(json.dumps({
        **PROGRAM_HEAD,
        "num_vars": 3,
        "levels": [["s"], ["a", "b"], ["t"]],
        "edges": [
            {"from": "s", "to": "a", "label": {"var": 1}},
            {"from": "a", "to": "t", "label": {"var": 2}},
            {"from": "s", "to": "b", "label": {"var": 2}},
            {"from": "b", "to": "t", "label": {"var": 1}},
        ],
    }))
    code, out, err = run(capsys, "rank", crossed)
    assert (code, out, err) == (2, "", "error: program respects no variable order; pass --order\n")
    code, out, _ = run(capsys, "rank", crossed, "--order", "1,2,3")
    assert (code, out) == (0, "read lower bound: 1\n")


def test_rank_needs_odd_variable_count(capsys, fixtures_dir):
    code, _, err = run(capsys, "rank", fixtures_dir / "symm_4_2.abp.json")
    assert code == 2
    assert "odd variable count" in err


@pytest.mark.parametrize("declared", [False, True], ids=["inferred", "declared"])
def test_order_work_follows_the_edges_not_num_vars(capsys, tmp_path, declared):
    """A program of one edge that declares 2^16 + 1 variables: rank,
    obliviate, validate and pit --read 1 (which refuses the grid) each finish
    in under a second, and resolving its order peaks under 16 MB.  Compose
    mode is left out because it builds the whole generator map before any
    size estimate, and random mode because each trial draws a point of
    num_vars coordinates, the size of the work it is asked for."""
    n = 2**16 + 1
    data = {**PROGRAM_HEAD, "num_vars": n, "edges": [{"from": "s", "to": "t", "label": {"var": 2}}]}
    if declared:
        data["order"] = list(range(n, 0, -1))
    path = tmp_path / "wide.abp.json"
    path.write_text(json.dumps(data))
    for args, want in (
        (("rank",), 0),
        (("obliviate", "-o", tmp_path / "out.abp.json"), 0),
        (("validate",), 0),
        (("pit", "--read", "1"), 2),
    ):
        start = time.perf_counter()
        code, _, err = run(capsys, args[0], path, *args[1:])
        assert time.perf_counter() - start < 1.0, args
        assert code == want, (args, err)
    assert "grid" in err
    a = abp_loads(path.read_text())
    tracemalloc.start()
    try:
        resolve_order(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# -- gen ----------------------------------------------------------------------------


def test_gen_print_components(capsys):
    code, out, _ = run(capsys, "gen", "--k", "1", "--r", "1")
    assert code == 0
    assert out == (
        "map with 5 seeds z1, z2, z3, u1, v1 and 2 outputs:\n"
        "G1 = z1 + u1 + -1*u1*v1\n"
        "G2 = z1 + z2 + u1*v1\n"
    )


def test_gen_json_reports_seed_degree_bounds(capsys):
    code, out, _ = run(capsys, "--json", "gen", "--k", "1", "--r", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed_names"] == ["z1", "z2", "z3", "u1", "v1"]
    assert payload["seed_degree_bounds"] == [2, 1, 0, 2, 2]
    assert len(payload["components"]) == 2


def test_gen_build_honours_the_config_term_budget(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"term_budget": 1000}')
    code, _, err = run(capsys, "--config", cfg, "gen", "--k", "3", "--r", "1")
    assert code == 2
    assert err.rstrip().endswith("term budget 1000")


def test_gen_refuses_the_level_3_read_2_build_at_the_default_budget(capsys):
    # composing the level-2 map into the second half needs a 1263 x 835 product
    code, out, err = run(capsys, "gen", "--k", "3", "--r", "2")
    assert (code, out) == (2, "")
    assert err == "error: product of 1263 x 835 terms exceeds term budget 1000000\n"


def test_gen_eval(capsys):
    code, out, _ = run(capsys, "gen", "--k", "1", "--r", "1", "--eval", "0,0,0,1,2")
    assert (code, out) == (0, "-1, 2\n")


def test_gen_eval_reads_the_point_before_laying_out_nodes(capsys):
    # k = 30 would enumerate 2^30 interpolation nodes before any arity check
    start = time.perf_counter()
    code, out, err = run(capsys, "gen", "--k", "30", "--r", "1", "--eval", "1")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", "error: point has 1 coordinates, expected 121\n")


@pytest.mark.parametrize("eval_point", [False, True], ids=["build", "eval"])
def test_gen_refuses_the_generator_tables_before_laying_out_nodes(capsys, eval_point):
    # the tables over 2^30 nodes would take about 4^30 products
    args = ["gen", "--k", "30", "--r", "1"]
    if eval_point:
        args += ["--eval", ",".join(["1"] * 121)]
    start = time.perf_counter()
    code, out, err = run(capsys, *args)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        f"error: generator tables k=30, r=1: {2**30} interpolation nodes "
        f"need {4**30} products, over the term budget 1000000\n"
    )


def test_gen_eval_json(capsys):
    code, out, _ = run(
        capsys, "--json", "gen", "--k", "1", "--r", "1", "--eval", "0,0,0,1,2"
    )
    assert code == 0
    assert json.loads(out) == {"outputs": ["-1", "2"]}


def test_gen_eval_over_extension(capsys):
    code, out, _ = run(
        capsys,
        "gen",
        "--k", "1", "--r", "1",
        "--field", "F2^3",
        "--eval", "0:0:0,0:0:0,0:0:0,1:0:0,0:1:0",
    )
    assert (code, out) == (0, "1:1:0, 0:1:0\n")


# -- family -------------------------------------------------------------------------


def test_family_output_is_deterministic(capsys, fixtures_dir):
    code, out, _ = run(capsys, "family", "symm", "--n", "3", "--k", "2")
    assert code == 0
    assert out == (fixtures_dir / "symm_3_2.abp.json").read_text()


def test_family_ryser_matches_fixture(capsys, fixtures_dir, tmp_path):
    code, out, _ = run(capsys, "family", "ryser", "--n", "2")
    assert code == 0
    assert out == (fixtures_dir / "ryser_2.abp.json").read_text()
    target = tmp_path / "ryser_2.abp.json"
    code, out, _ = run(capsys, "--json", "family", "ryser", "--n", "2", "-o", target)
    assert code == 0
    assert json.loads(out) == {"family": "ryser", "n": 2, "size": 16, "read": 2, "out": str(target)}


def test_family_ordersep_poly_matches_fixture(capsys, fixtures_dir):
    code, out, _ = run(capsys, "family", "ordersep", "--n", "2", "--emit", "poly")
    assert code == 0
    assert out == (fixtures_dir / "ordersep_2.poly.json").read_text()


def test_family_ordersep_summary_names_both_orders(capsys, tmp_path):
    target = tmp_path / "os.abp.json"
    code, out, _ = run(capsys, "family", "ordersep", "--n", "2", "-o", target)
    assert code == 0
    assert out == (
        f"ordersep n=2 program; good order [1, 2, 3, 4, 5], "
        f"bad order [2, 4, 1, 3, 5] -> {target}\n"
    )
    assert target.exists()


def test_family_ordersep_program_is_written_without_expanding(capsys, tmp_path, monkeypatch):
    # the polynomial has 3^13 terms; writing the program must not build it
    def no_expand(*args, **kwargs):
        raise AssertionError("expand called")

    monkeypatch.setattr(oabp.families, "expand", no_expand)
    target = tmp_path / "os13.abp.json"
    code, out, err = run(capsys, "family", "ordersep", "--n", "13", "-o", target)
    assert (code, err) == (0, "")
    assert target.exists()


def test_family_symm_requires_k(capsys):
    code, _, err = run(capsys, "family", "symm", "--n", "3")
    assert code == 2
    assert "needs --k" in err


def test_family_fullrank_is_seeded(capsys):
    code, out, _ = run(capsys, "family", "fullrank", "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert data["field"] == {"kind": "prime", "p": 2147483647}
    _, again, _ = run(capsys, "family", "fullrank", "--n", "1")
    assert again == out


# -- equal and transforms --------------------------------------------------------------


def test_equal_verdicts(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "equal", fixtures_dir / "x1x2.abp.json", fixtures_dir / "x1x2.abp.json"
    )
    assert (code, out) == (0, "EQUAL\n")
    code, out, _ = run(
        capsys, "equal", fixtures_dir / "x1x2.abp.json", fixtures_dir / "zero_2.abp.json"
    )
    assert (code, out) == (0, "DIFFERENT\n")


def test_equal_field_mismatch(capsys, fixtures_dir, tmp_path):
    other = tmp_path / "symm5.abp.json"
    run(capsys, "family", "symm", "--n", "3", "--k", "2", "--field", "F5", "-o", other)
    code, _, err = run(capsys, "equal", fixtures_dir / "symm_3_2.abp.json", other)
    assert code == 2
    assert "field mismatch" in err


def test_obliviate_preserves_the_polynomial(capsys, fixtures_dir, tmp_path):
    target = tmp_path / "obl.abp.json"
    code, out, _ = run(capsys, "obliviate", fixtures_dir / "x1x2.abp.json", "-o", target)
    assert code == 0
    assert out.startswith("oblivious program: size 6, width 1 -> ")
    code, out, _ = run(capsys, "validate", target)
    assert (code, out) == (0, "OK\n")
    code, out, _ = run(capsys, "equal", fixtures_dir / "x1x2.abp.json", target)
    assert (code, out) == (0, "EQUAL\n")


def test_derivative_then_eval(capsys, fixtures_dir, tmp_path):
    target = tmp_path / "d2.abp.json"
    code, _, _ = run(
        capsys, "derivative", fixtures_dir / "symm_3_2.abp.json", "--var", "2", "-o", target
    )
    assert code == 0
    # d(x1x2 + x1x3 + x2x3)/dx2 at (5, 7, 11) is 5 + 11
    code, out, _ = run(capsys, "eval", target, "--point", "5,7,11")
    assert (code, out) == (0, "16\n")


@pytest.mark.parametrize("var", ["999", "-1"])
def test_derivative_refuses_a_variable_out_of_range(capsys, fixtures_dir, tmp_path, var):
    target = tmp_path / "d.abp.json"
    code, out, err = run(
        capsys, "derivative", fixtures_dir / "symm_3_2.abp.json", "--var", var, "-o", target
    )
    assert (code, out) == (2, "")
    assert err == f"error: variable x_{var} out of range 1..3\n"
    assert not target.exists()


def test_decompose_with_reduction(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "decompose", fixtures_dir / "symm_3_2.abp.json", "--cut", "1", "--reduce"
    )
    assert code == 0
    assert out == (
        "cut at level 1: width 2 (reduced)\n"
        "pair 1: left 1 terms, right 2 terms\n"
        "pair 2: left 1 terms, right 1 terms\n"
    )


# -- configuration ----------------------------------------------------------------------


def test_config_file_flag(capsys, fixtures_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"grid_budget": 50}')
    code, _, err = run(
        capsys, "--config", cfg, "pit", fixtures_dir / "x1x2.abp.json", "--read", "1"
    )
    assert code == 2
    assert "budget is 50" in err


def test_config_env_var(capsys, fixtures_dir, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"grid_budget": 50}')
    monkeypatch.setenv("OABP_CONFIG", str(cfg))
    code, _, err = run(capsys, "pit", fixtures_dir / "x1x2.abp.json", "--read", "1")
    assert code == 2
    assert "budget is 50" in err
    # an explicit command line budget wins over the config file
    code, out, _ = run(
        capsys,
        "pit", fixtures_dir / "x1x2.abp.json", "--read", "1", "--grid-budget", "1000",
    )
    assert code == 0
    assert out.startswith("NONZERO")


@pytest.mark.parametrize(
    "key, value, plain, given, other",
    [
        ("term_budget", 2, ["expand", "symm_3_2.abp.json"],
         ["expand", "symm_3_2.abp.json", "--budget", "2"],
         ["expand", "symm_3_2.abp.json", "--budget", "1000"]),
        ("term_budget", 2, ["equal", "symm_3_2.abp.json", "symm_3_2.poly.json"],
         ["equal", "symm_3_2.abp.json", "symm_3_2.poly.json", "--term-budget", "2"],
         ["equal", "symm_3_2.abp.json", "symm_3_2.poly.json", "--term-budget", "1000"]),
        ("term_budget", 2, ["gen", "--k", "2", "--r", "1"], None, None),  # gen has no flag
        ("grid_budget", 50, ["pit", "x1x2.abp.json", "--read", "1"],
         ["pit", "x1x2.abp.json", "--read", "1", "--grid-budget", "50"],
         ["pit", "x1x2.abp.json", "--read", "1", "--grid-budget", "1000"]),
        ("seed", 5, ["pit", "x1x2.abp.json", "--read", "1", "--mode", "random"],
         ["pit", "x1x2.abp.json", "--read", "1", "--mode", "random", "--seed", "5"],
         ["pit", "x1x2.abp.json", "--read", "1", "--mode", "random", "--seed", "3"]),
        ("seed", 5, ["family", "fullrank", "--n", "1"],
         ["family", "fullrank", "--n", "1", "--seed", "5"],
         ["family", "fullrank", "--n", "1", "--seed", "3"]),
        ("field", "F7", ["gen", "--k", "1", "--r", "1"],
         ["gen", "--k", "1", "--r", "1", "--field", "F7"],
         ["gen", "--k", "1", "--r", "1", "--field", "F11"]),
        ("field", "F7", ["family", "symm", "--n", "3", "--k", "2"],
         ["family", "symm", "--n", "3", "--k", "2", "--field", "F7"],
         ["family", "symm", "--n", "3", "--k", "2", "--field", "F11"]),
        # no flag asks for human output, so nothing can win over "json"
        ("output", "json", ["stats", "x1x2.abp.json"], ["--json", "stats", "x1x2.abp.json"], None),
    ],
    ids=["expand-term_budget", "equal-term_budget", "gen-term_budget",
         "pit-grid_budget", "pit-random-seed", "family-fullrank-seed", "gen-field",
         "family-field", "stats-output"],
)
def test_a_flag_left_unset_takes_the_config_value(
    capsys, fixtures_dir, tmp_path, key, value, plain, given, other
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))

    def go(argv, config=True):
        argv = [fixtures_dir / a if a.endswith(".json") else a for a in argv]
        return run(capsys, *(["--config", cfg] if config else []), *argv)

    from_config = go(plain)
    assert from_config != go(plain, config=False)  # the config's value applies ...
    if given is not None:
        assert from_config == go(given, config=False)  # ... just as the flag would
    if other is not None:
        assert go(other) == go(other, config=False) != from_config  # the flag wins


def test_config_rejects_unknown_keys(capsys, fixtures_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"grid_budget": 100, "nope": 1}')
    code, _, err = run(
        capsys, "--config", cfg, "pit", fixtures_dir / "x1x2.abp.json", "--read", "1"
    )
    assert code == 2
    assert "unknown key 'nope'" in err


@pytest.mark.parametrize(
    "data",
    [
        {"term_budget": "abc"},
        {"term_budget": True},
        {"term_budget": 1.5},
        {"grid_budget": 0},
        {"field": 5},
        {"seed": "x"},
    ],
    ids=["term-budget-string", "term-budget-bool", "term-budget-float", "grid-budget-zero",
         "field-int", "seed-string"],
)
def test_malformed_config_is_a_runtime_error(capsys, fixtures_dir, tmp_path, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code, out, err = run(capsys, "--config", cfg, "stats", fixtures_dir / "x1x2.abp.json")
    assert code == 2
    assert err.startswith(f"error: {cfg}: bad {next(iter(data))} ")
    assert out == ""


def test_config_examples_list_exactly_the_config_keys(fixtures_dir):
    keys = {f.name for f in dataclasses.fields(CliConfig)}
    example = json.loads((fixtures_dir / "config_example.json").read_text())
    assert set(example) == keys
    readme = (fixtures_dir.parent / "README.md").read_text()
    section = readme.split("## Configuration", 1)[1]
    block = section.split("```json", 1)[1].split("```", 1)[0]
    assert set(json.loads(block)) == keys


def test_config_example_fixture_loads(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "--config", fixtures_dir / "config_example.json",
        "stats", fixtures_dir / "x1x2.abp.json",
    )
    assert code == 0
    assert out.startswith("program over rational")


# -- exit codes -------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args",
    [
        ("pit", "x1x2.abp.json", "--read", "1", "--mode", "random", "--trials", "0"),
        ("pit", "x1x2.abp.json", "--read", "1", "--mode", "random", "--trials", "-3"),
        ("pit", "x1x2.abp.json", "--read", "1", "--grid-budget", "0"),
        ("pit", "x1x2.abp.json", "--read", "0"),
        ("expand", "x1x2.abp.json", "--budget", "0"),
        ("expand", "x1x2.abp.json", "--budget", "1.5"),
        ("equal", "x1x2.abp.json", "x1x2.abp.json", "--term-budget", "0"),
        ("pit", "x1x2.abp.json", "--read", "-1", "--mode", "random"),
    ],
)
def test_count_flags_want_an_integer_of_at_least_one(capsys, fixtures_dir, args):
    args = [fixtures_dir / a if a.endswith(".json") else a for a in args]
    code, out, err = run(capsys, *args)
    assert (code, out) == (1, "")
    assert "want an integer >= 1" in err


@pytest.mark.parametrize(
    "args, code, message",
    [
        (("gen", "--k", "1", "--r", "1", "--field", "F1_0_0_0_7"), 2, "bad field spec"),
        (("gen", "--k", "1", "--r", "1", "--field", "F\u0667"), 2, "bad field spec"),
        (("gen", "--k", "1", "--r", "1", "--field", "F3^ 2"), 2, "bad field spec"),
        (("obliviate", "symm_3_2.abp.json", "--order", "1,2,\u0663"), 2, "bad order"),
        (("obliviate", "symm_3_2.abp.json", "--order", "1,2,3_0"), 2, "bad order"),
        (("eval", "affine_f7.abp.json", "--point", "1_0,1"), 2, "bad residue"),
        (("gen", "--k", "1", "--r", "1", "--field", "F2^3",
          "--eval", "0:0:0,0:0:0,0:0:0,1:0:0,0:\u0661:0"), 2, "bad extension element"),
        (("gen", "--k", "1_0", "--r", "1"), 1, "argument --k: invalid int value"),
        (("gen", "--k", " 1", "--r", "1"), 1, "argument --k: invalid int value"),
        (("decompose", "symm_3_2.abp.json", "--cut", "\u0661"), 1,
         "argument --cut: invalid int value"),
        (("family", "fullrank", "--n", "1", "--seed", "1_0"), 1,
         "argument --seed: invalid int value"),
        (("pit", "x1x2.abp.json", "--read", "1", "--grid-budget", "1_000"), 1,
         "want an integer >= 1"),
    ],
    ids=["field-separator", "field-arabic-indic", "field-degree-space", "order-arabic-indic",
         "order-separator", "residue-separator", "extension-arabic-indic", "flag-separator",
         "flag-space", "flag-arabic-indic", "seed-separator", "count-separator"],
)
def test_command_line_integers_are_ascii_decimal_digits(capsys, fixtures_dir, args, code, message):
    args = [fixtures_dir / a if a.endswith(".json") else a for a in args]
    got, out, err = run(capsys, *args)
    assert (got, out) == (code, "")
    assert message in err


def test_usage_errors_exit_one(capsys, fixtures_dir):
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "pit", fixtures_dir / "x1x2.abp.json")[0] == 1
    code, _, err = run(capsys, "stats", fixtures_dir / "x1x2.abp.json", "--json")
    assert code == 1
    assert "unrecognized arguments" in err


# -- README ---------------------------------------------------------------------


def readme_commands(readme: str) -> list[list[str]]:
    """The arguments of every `oabp ...` line of README's sh blocks, in order,
    without the trailing comments."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            if line.startswith("oabp "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_command_examples_run(capsys, fixtures_dir, tmp_path, monkeypatch):
    # the examples name fixtures/ relative to the repository and write their
    # -o files beside it, and a later line reads what an earlier one wrote
    shutil.copytree(fixtures_dir, tmp_path / "fixtures")
    monkeypatch.chdir(tmp_path)
    commands = readme_commands((fixtures_dir.parent / "README.md").read_text())
    assert len(commands) == 19
    for args in commands:
        code, _, err = run(capsys, *args)
        assert (code, err) == (0, ""), args
