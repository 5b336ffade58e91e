"""End-to-end command line coverage, run in process through main()."""

import json
import pathlib
from fractions import Fraction

import pytest

from oabp.cli import main
from oabp.fields import rationals
from oabp.poly import SparsePoly
from oabp.serialize import poly_dumps


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


@pytest.mark.parametrize(
    "data",
    [
        {**PROGRAM_HEAD, "edges": 5},
        {**PROGRAM_HEAD, "edges": [{"from": "s", "to": "t", "label": "var"}]},
        {**POLY_HEAD, "terms": 7},
        {**POLY_HEAD, "terms": [{"coeff": "1", "exps": [1, 1]}]},
        {"field": {"kind": "prime", "p": "x"}, "terms": []},
        {"field": {"kind": "prime", "p": float("inf")}, "terms": []},
    ],
    ids=["edges-int", "label-string", "terms-int", "exps-list", "prime-p-string", "prime-p-inf"],
)
def test_malformed_file_is_a_runtime_error(capsys, tmp_path, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, err = run(capsys, "stats", bad)
    assert code == 2
    assert err.startswith(f"error: {bad}: ")
    assert out == ""


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
    }
    _, again, _ = run(
        capsys, "--json", "pit", fixtures_dir / "x1x2.abp.json", "--read", "1"
    )
    assert again == out


def test_pit_compose_witness(capsys, fixtures_dir):
    code, out, _ = run(
        capsys, "pit", fixtures_dir / "x1x2.abp.json", "--read", "1", "--mode", "compose"
    )
    assert code == 0
    assert out == "NONZERO (mode=compose, queries=0)\nwitness: z1*z2\n"


def test_pit_zero_program(capsys, fixtures_dir):
    code, out, _ = run(capsys, "pit", fixtures_dir / "zero_2.abp.json", "--read", "2")
    assert code == 0
    assert out.startswith("ZERO (mode=hitset, queries=108)")
    # the program reads its variables twice, so a read-once promise is refused
    code, _, _ = run(capsys, "pit", fixtures_dir / "zero_2.abp.json", "--read", "1")
    assert code == 2


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
            for mode in ("hitset", "compose")
        ]
        assert runs[0] == runs[1]
        assert runs[0] == (2, "", f"error: {message}\n")


def test_pit_compose_refuses_an_invalid_program(capsys, tmp_path):
    bad = tmp_path / "two_sinks.abp.json"
    bad.write_text(json.dumps({
        **PROGRAM_HEAD,
        "levels": [["s"], ["t", "t2"]],
        "edges": [{"from": "s", "to": "t", "label": {"var": 1}}],
    }))
    code, out, err = run(capsys, "pit", bad, "--read", "1", "--mode", "compose")
    assert (code, out, err) == (2, "", "error: invalid program: sink level has 2 nodes, want 1\n")


def test_pit_grid_budget_exceeded(capsys, fixtures_dir):
    code, _, err = run(capsys, "pit", fixtures_dir / "symm_4_2.abp.json", "--read", "2")
    assert code == 2
    assert "compose mode avoids the grid" in err


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


def test_rank_needs_odd_variable_count(capsys, fixtures_dir):
    code, _, err = run(capsys, "rank", fixtures_dir / "symm_4_2.abp.json")
    assert code == 2
    assert "odd variable count" in err


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


def test_gen_eval(capsys):
    code, out, _ = run(capsys, "gen", "--k", "1", "--r", "1", "--eval", "0,0,0,1,2")
    assert (code, out) == (0, "-1, 2\n")


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
    assert out.startswith("oblivious program: size 16, width 4 -> ")
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


def test_config_rejects_unknown_keys(capsys, fixtures_dir, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"grid_budget": 100, "nope": 1}')
    code, _, err = run(
        capsys, "--config", cfg, "pit", fixtures_dir / "x1x2.abp.json", "--read", "1"
    )
    assert code == 2
    assert "unknown key 'nope'" in err


def test_config_example_fixture_loads(capsys, fixtures_dir):
    code, out, _ = run(
        capsys,
        "--config", fixtures_dir / "config_example.json",
        "stats", fixtures_dir / "x1x2.abp.json",
    )
    assert code == 0
    assert out.startswith("program over rational")


# -- exit codes -------------------------------------------------------------------------


def test_usage_errors_exit_one(capsys, fixtures_dir):
    assert run(capsys, )[0] == 1
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "pit", fixtures_dir / "x1x2.abp.json")[0] == 1
    code, _, err = run(capsys, "stats", fixtures_dir / "x1x2.abp.json", "--json")
    assert code == 1
    assert "unrecognized arguments" in err
