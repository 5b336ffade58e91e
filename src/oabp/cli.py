"""Command line interface: every library operation, driven by files.

One binary with subcommands.  Programs and polynomials travel as canonical
JSON files (see serialize); verdicts, stats and ranks print as short human
lines or, with --json, as deterministic JSON.  Exit status: 0 the command
completed (whatever the verdict), 1 usage error, 2 runtime error such as a
failed parse, a budget overrun, or a field mismatch.

A config file (JSON object) can preset shared knobs; point OABP_CONFIG at
it or pass --config.  Command line flags win over the config file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path

from .abp import (
    Abp,
    Permutation,
    check_oblivious,
    check_order,
    evaluate,
    expand,
    infer_order,
    stats,
    validate,
)
from .errors import FormatError, OabpError, StructureError
from .families import (
    elementary_symmetric_abp,
    full_rank_poly,
    order_separation_family,
    read_lower_bound,
    ryser_permanent_abp,
    seeded_weights,
    DEFAULT_WEIGHT_PRIME,
)
from .fields import Field, extension_field, prime_field, rationals
from .generator import (
    GeneratorParams,
    build_generator,
    eval_generator,
    seed_count,
    seed_degree_bounds,
    seed_names,
)
from .pit import (
    DEFAULT_EXTENSION_CAP,
    DEFAULT_GRID_BUDGET,
    DEFAULT_TRIALS,
    PitOptions,
    abp_oracle,
    compose_test,
    hitset_test_abp,
    random_probe,
    seed_grid_size,
)
from .poly import DEFAULT_TERM_BUDGET, SparsePoly, var_sort_key
from .serialize import (
    abp_dumps,
    poly_dumps,
    poly_to_json,
    sniff_load,
)
from .transforms import cut_decompose, derivative_abp, obliviate, reduce_independent

# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

CONFIG_ENV_VAR = "OABP_CONFIG"


@dataclass
class CliConfig:
    """Shared knobs, overridable per invocation."""

    field: str = "Q"
    term_budget: int = DEFAULT_TERM_BUDGET
    grid_budget: int = DEFAULT_GRID_BUDGET
    seed: int = 0
    extension_cap: int = DEFAULT_EXTENSION_CAP
    output: str = "human"  # "human" | "json"

    def check(self) -> None:
        if self.term_budget <= 0 or self.grid_budget <= 0:
            raise FormatError("budgets must be positive")
        if self.extension_cap <= 0:
            raise FormatError("extension cap must be positive")
        if self.output not in ("human", "json"):
            raise FormatError(f"unknown output mode {self.output!r}")


def load_config(path: str | None) -> CliConfig:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    cfg = CliConfig()
    if path:
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise FormatError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise FormatError(f"config {path} is not JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise FormatError(f"config {path} must hold a JSON object")
        known = {f.name for f in dc_fields(CliConfig)}
        for key, value in data.items():
            if key not in known:
                raise FormatError(f"config {path}: unknown key {key!r}")
            setattr(cfg, key, value)
    cfg.check()
    return cfg


def parse_field_spec(spec: str) -> Field:
    """Field from a short text spec: Q, F<p>, or F<p>^<d>."""
    s = spec.strip()
    if s.upper() in ("Q", "RATIONAL", "RATIONALS"):
        return rationals()
    if s[:1].upper() == "F":
        body = s[1:]
        try:
            if "^" in body:
                p_text, d_text = body.split("^", 1)
                return extension_field(int(p_text), int(d_text))
            return prime_field(int(body))
        except ValueError as exc:
            raise FormatError(f"bad field spec {spec!r}: {exc}") from exc
    raise FormatError(f"bad field spec {spec!r}; use Q, F<p>, or F<p>^<d>")


# ---------------------------------------------------------------------------
# small plumbing helpers
# ---------------------------------------------------------------------------


def _load_file(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        return sniff_load(text)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _load_abp(path: str) -> Abp:
    obj = _load_file(path)
    if not isinstance(obj, Abp):
        raise FormatError(f"{path}: expected a program file, found a polynomial")
    return obj


def _parse_order(text: str, n: int) -> Permutation:
    """--order takes the variable sequence: first-read variable first."""
    try:
        seq = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ValueError as exc:
        raise FormatError(f"bad order {text!r}: {exc}") from exc
    if len(seq) != n:
        raise FormatError(f"order lists {len(seq)} variables, expected {n}")
    return Permutation.from_sequence(seq)


def _parse_point(field: Field, text: str, n: int) -> tuple:
    parts = [tok for tok in text.split(",") if tok.strip()]
    if len(parts) != n:
        raise FormatError(f"point has {len(parts)} coordinates, expected {n}")
    return tuple(field.element_from_text(tok.strip()) for tok in parts)


class _Emitter:
    """Routes results either as human lines or as one canonical JSON blob."""

    def __init__(self, json_mode: bool):
        self.json_mode = json_mode

    def emit(self, payload: dict, lines: list[str]) -> None:
        if self.json_mode:
            print(json.dumps(payload, sort_keys=True, indent=1))
        else:
            for line in lines:
                print(line)


def _write_artifact(text: str, out: str | None, emitter: _Emitter, payload: dict, summary: str) -> None:
    """Write a canonical artifact to a file, or to stdout when no -o."""
    if out:
        Path(out).write_text(text)
        payload = dict(payload, out=out)
        emitter.emit(payload, [summary + f" -> {out}"])
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_validate(args, cfg: CliConfig, emitter: _Emitter) -> int:
    obj = _load_file(args.file)
    if isinstance(obj, Abp):
        problems = validate(obj)
        ordered = None
        if obj.order is not None and not problems:
            ordered = check_order(obj, obj.order)
            if not ordered:
                problems = [f"program does not respect its declared order {list(obj.order.image)}"]
        payload = {
            "file": args.file,
            "kind": "abp",
            "ok": not problems,
            "problems": problems,
        }
        lines = ["OK"] if not problems else [f"problem: {p}" for p in problems]
    else:
        payload = {"file": args.file, "kind": "poly", "ok": True, "problems": []}
        lines = ["OK"]
    emitter.emit(payload, lines)
    return 0


def cmd_stats(args, cfg: CliConfig, emitter: _Emitter) -> int:
    obj = _load_file(args.file)
    if isinstance(obj, Abp):
        st = stats(obj)
        reads = {str(i): st.reads[i] for i in sorted(st.reads)}
        payload = {
            "kind": "abp",
            "num_vars": obj.num_vars,
            "size": st.size,
            "depth": st.depth,
            "width": st.width,
            "read": st.read,
            "reads": reads,
            "order": list(obj.order.variable_sequence()) if obj.order else None,
            "oblivious": check_oblivious(obj).ok,
        }
        lines = [
            f"program over {obj.field.config.kind}: {obj.num_vars} variables",
            f"size {st.size}, depth {st.depth}, width {st.width}, read {st.read}",
            f"reads per variable: {reads}",
            f"oblivious: {payload['oblivious']}",
        ]
        if obj.order:
            lines.append(f"order (variable sequence): {list(obj.order.variable_sequence())}")
    else:
        payload = {
            "kind": "poly",
            "terms": obj.num_terms,
            "total_degree": obj.total_degree(),
            "variables": sorted(obj.variables(), key=var_sort_key),
            "multilinear": obj.is_multilinear(),
        }
        lines = [
            f"polynomial over {obj.field.config.kind}: {obj.num_terms} terms, "
            f"total degree {obj.total_degree()}, multilinear {obj.is_multilinear()}",
        ]
    emitter.emit(payload, lines)
    return 0


def cmd_eval(args, cfg: CliConfig, emitter: _Emitter) -> int:
    obj = _load_file(args.file)
    field = obj.field
    if isinstance(obj, Abp):
        point = _parse_point(field, args.point, obj.num_vars)
        value = evaluate(obj, point)
    else:
        variables = sorted(obj.variables(), key=var_sort_key)
        point = _parse_point(field, args.point, len(variables))
        value = obj.evaluate(dict(zip(variables, point)))
    emitter.emit(
        {"value": field.element_to_json(value)},
        [field.element_to_text(value)],
    )
    return 0


def cmd_expand(args, cfg: CliConfig, emitter: _Emitter) -> int:
    a = _load_abp(args.file)
    p = expand(a, budget=args.budget or cfg.term_budget)
    _write_artifact(
        poly_dumps(p),
        args.out,
        emitter,
        {"terms": p.num_terms, "total_degree": p.total_degree()},
        f"expanded to {p.num_terms} terms",
    )
    return 0


def cmd_obliviate(args, cfg: CliConfig, emitter: _Emitter) -> int:
    a = _load_abp(args.file)
    pi = _parse_order(args.order, a.num_vars) if args.order else None
    b = obliviate(a, pi)
    st = stats(b)
    _write_artifact(
        abp_dumps(b),
        args.out,
        emitter,
        {"size": st.size, "width": st.width, "depth": st.depth},
        f"oblivious program: size {st.size}, width {st.width}",
    )
    return 0


def cmd_derivative(args, cfg: CliConfig, emitter: _Emitter) -> int:
    a = _load_abp(args.file)
    d = derivative_abp(a, args.var)
    st = stats(d)
    _write_artifact(
        abp_dumps(d),
        args.out,
        emitter,
        {"size": st.size, "width": st.width, "var": args.var},
        f"derivative in x_{args.var}: size {st.size}",
    )
    return 0


def cmd_decompose(args, cfg: CliConfig, emitter: _Emitter) -> int:
    a = _load_abp(args.file)
    dec = cut_decompose(a, args.cut)
    if args.reduce:
        dec = reduce_independent(dec)
    payload = {
        "cut_level": dec.cut_level,
        "width": dec.width,
        "reduced": bool(args.reduce),
        "left": [poly_to_json(p) for p in dec.left],
        "right": [poly_to_json(p) for p in dec.right],
    }
    lines = [f"cut at level {dec.cut_level}: width {dec.width}" + (" (reduced)" if args.reduce else "")]
    for i, (l, r) in enumerate(zip(dec.left, dec.right), start=1):
        lines.append(f"pair {i}: left {l.num_terms} terms, right {r.num_terms} terms")
    emitter.emit(payload, lines)
    return 0


def cmd_gen(args, cfg: CliConfig, emitter: _Emitter) -> int:
    field = parse_field_spec(args.field or cfg.field)
    params = GeneratorParams.create(args.k, args.r, field)
    names = seed_names(args.k, args.r)
    if args.eval is not None:
        point = _parse_point(field, args.eval, seed_count(args.k, args.r))
        values = eval_generator(params, point)
        emitter.emit(
            {"outputs": [field.element_to_json(v) for v in values]},
            [", ".join(field.element_to_text(v) for v in values)],
        )
        return 0
    pm = build_generator(params, budget=cfg.term_budget)
    payload = {
        "k": args.k,
        "r": args.r,
        "seed_names": list(names),
        "seed_degree_bounds": list(seed_degree_bounds(args.k, args.r, 2**args.k)),
        "components": [poly_to_json(c) for c in pm.outputs],
    }
    lines = [f"map with {len(names)} seeds {', '.join(names)} and {len(pm.outputs)} outputs:"]
    for j, comp in enumerate(pm.outputs, start=1):
        lines.append(f"G{j} = {comp}")
    emitter.emit(payload, lines)
    return 0


def _witness_views(verdict):
    """(json value, display text) for a verdict's witness, if any."""
    w = verdict.witness
    if w is None:
        return None, None
    if verdict.mode == "compose":
        text = "*".join(v if e == 1 else f"{v}^{e}" for v, e in w)
        return [[v, e] for v, e in w], text
    field = verdict.field
    text = "(" + ", ".join(field.element_to_text(x) for x in w) + ")"
    return [field.element_to_json(x) for x in w], text


def cmd_pit(args, cfg: CliConfig, emitter: _Emitter) -> int:
    a = _load_abp(args.file)
    if args.order:
        pi = _parse_order(args.order, a.num_vars)
        a = Abp(a.field, a.num_vars, a.levels, a.edges, pi)
    opts = PitOptions(
        grid_budget=args.grid_budget or cfg.grid_budget,
        term_budget=args.term_budget or cfg.term_budget,
        extension_cap=cfg.extension_cap,
        trials=args.trials,
        seed=args.seed if args.seed is not None else cfg.seed,
    )
    if args.mode == "hitset":
        verdict = hitset_test_abp(a, args.read, opts)
    elif args.mode == "compose":
        verdict = compose_test(a, args.read, opts)
    else:
        verdict = random_probe(abp_oracle(a), a.num_vars, a.field, opts)
    witness_json, witness_text = _witness_views(verdict)
    payload = {
        "verdict": verdict.verdict,
        "mode": verdict.mode,
        "queries": verdict.queries,
        "witness": witness_json,
        "note": verdict.note,
        "grid": None if verdict.grid is None else list(verdict.grid),
    }
    lines = [f"{verdict.verdict} (mode={verdict.mode}, queries={verdict.queries})"]
    if witness_text is not None:
        lines.append(f"witness: {witness_text}")
    if verdict.note:
        lines.append(f"note: {verdict.note}")
    emitter.emit(payload, lines)
    return 0


def cmd_rank(args, cfg: CliConfig, emitter: _Emitter) -> int:
    obj = _load_file(args.file)
    if isinstance(obj, Abp):
        n = obj.num_vars
        if args.order:
            pi = _parse_order(args.order, n)
        elif obj.order is not None:
            pi = obj.order
        else:
            pi = infer_order(obj)
            if pi is None:
                raise StructureError("program respects no variable order; pass --order")
    else:
        variables = obj.variables()
        if not all(isinstance(v, int) for v in variables):
            raise FormatError("rank needs integer-numbered variables")
        n = max(variables) if variables else 0
        pi = _parse_order(args.order, n) if args.order else Permutation.identity(n)
    bound = read_lower_bound(obj, pi)
    emitter.emit(
        {"read_lower_bound": bound, "order": list(pi.variable_sequence())},
        [f"read lower bound: {bound}"],
    )
    return 0


def cmd_family(args, cfg: CliConfig, emitter: _Emitter) -> int:
    field = parse_field_spec(args.field or cfg.field)
    if args.name == "symm":
        if args.k is None:
            raise FormatError("family symm needs --k")
        a = elementary_symmetric_abp(args.n, args.k, field)
        st = stats(a)
        _write_artifact(
            abp_dumps(a), args.out, emitter,
            {"family": "symm", "n": args.n, "k": args.k, "size": st.size, "read": st.read},
            f"symm n={args.n} k={args.k}: size {st.size}, read {st.read}",
        )
        return 0
    if args.name == "ryser":
        a = ryser_permanent_abp(args.n, field)
        st = stats(a)
        _write_artifact(
            abp_dumps(a), args.out, emitter,
            {"family": "ryser", "n": args.n, "size": st.size, "read": st.read},
            f"ryser n={args.n}: size {st.size}, read {st.read}",
        )
        return 0
    if args.name == "ordersep":
        fam = order_separation_family(args.n, field)
        good = list(fam.good_order.variable_sequence())
        bad = list(fam.bad_order.variable_sequence())
        meta = {"family": "ordersep", "n": args.n, "good_order": good, "bad_order": bad}
        if args.emit == "poly":
            _write_artifact(
                poly_dumps(fam.poly), args.out, emitter, meta,
                f"ordersep n={args.n} polynomial; good order {good}, bad order {bad}",
            )
        else:
            _write_artifact(
                abp_dumps(fam.abp), args.out, emitter, meta,
                f"ordersep n={args.n} program; good order {good}, bad order {bad}",
            )
        return 0
    if args.name == "fullrank":
        if field.size() is None:
            field = prime_field(DEFAULT_WEIGHT_PRIME)
        m = 2 * args.n + 1
        weights = seeded_weights(field, m, args.seed if args.seed is not None else cfg.seed)
        p = full_rank_poly(field, 1, m, weights)
        _write_artifact(
            poly_dumps(p), args.out, emitter,
            {"family": "fullrank", "n": args.n, "terms": p.num_terms},
            f"fullrank n={args.n}: {p.num_terms} terms over F_{field.config.p}",
        )
        return 0
    raise FormatError(f"unknown family {args.name!r}")  # pragma: no cover


def cmd_equal(args, cfg: CliConfig, emitter: _Emitter) -> int:
    budget = args.term_budget or cfg.term_budget

    def as_poly(path: str) -> SparsePoly:
        obj = _load_file(path)
        if isinstance(obj, Abp):
            return expand(obj, budget=budget)
        return obj

    p = as_poly(args.a)
    q = as_poly(args.b)
    if p.field != q.field:
        raise FormatError(
            f"field mismatch: {p.field.config.to_json()} vs {q.field.config.to_json()}"
        )
    same = p == q
    emitter.emit(
        {"equal": same},
        ["EQUAL" if same else "DIFFERENT"],
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse flags usage problems with status 2; the contract wants 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oabp",
        description="Exact tools for ordered algebraic branching programs.",
    )
    parser.add_argument("--json", action="store_true", help="emit results as JSON")
    parser.add_argument("--config", help=f"config file (default: ${CONFIG_ENV_VAR})")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        return p

    p = add("validate", cmd_validate, "check a program or polynomial file")
    p.add_argument("file")

    p = add("stats", cmd_stats, "size, depth, width and read counts")
    p.add_argument("file")

    p = add("eval", cmd_eval, "evaluate at a point")
    p.add_argument("file")
    p.add_argument("--point", required=True, help="comma-separated field elements")

    p = add("expand", cmd_expand, "expand a program to a polynomial file")
    p.add_argument("file")
    p.add_argument("-o", "--out", help="output file (default: stdout)")
    p.add_argument("--budget", type=int, help="term budget")

    p = add("obliviate", cmd_obliviate, "rewrite as an oblivious program")
    p.add_argument("file")
    p.add_argument("--order", help="variable sequence, e.g. 2,4,1,3,5")
    p.add_argument("-o", "--out", help="output file (default: stdout)")

    p = add("derivative", cmd_derivative, "partial derivative of an oblivious program")
    p.add_argument("file")
    p.add_argument("--var", type=int, required=True, help="variable index (1-based)")
    p.add_argument("-o", "--out", help="output file (default: stdout)")

    p = add("decompose", cmd_decompose, "cut into left/right polynomial pairs")
    p.add_argument("file")
    p.add_argument("--cut", type=int, required=True, help="cut level index")
    p.add_argument("--reduce", action="store_true", help="reduce to independent pairs")

    p = add("gen", cmd_gen, "build or evaluate the hitting-set map")
    p.add_argument("--k", type=int, required=True, help="recursion level")
    p.add_argument("--r", type=int, required=True, help="read bound")
    p.add_argument("--field", help="field spec: Q, F<p>, F<p>^<d>")
    p.add_argument("--eval", help="comma-separated seed values")

    p = add("pit", cmd_pit, "zero-test a program")
    p.add_argument("file")
    p.add_argument("--read", type=int, required=True, help="read bound r")
    p.add_argument("--mode", choices=("hitset", "compose", "random"), default="hitset")
    p.add_argument("--order", help="override the variable order")
    p.add_argument("--grid-budget", type=int, dest="grid_budget")
    p.add_argument("--term-budget", type=int, dest="term_budget")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="samples in random mode")
    p.add_argument("--seed", type=int, help="seed in random mode")

    p = add("rank", cmd_rank, "read lower bound from the derivative matrix")
    p.add_argument("file")
    p.add_argument("--order", help="variable sequence, e.g. 2,4,1,3,5")

    p = add("family", cmd_family, "write a named example family")
    p.add_argument("name", choices=("symm", "ryser", "ordersep", "fullrank"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, help="degree (symm only)")
    p.add_argument("--seed", type=int, help="weight seed (fullrank only)")
    p.add_argument("--emit", choices=("abp", "poly"), default="abp", help="ordersep artifact kind")
    p.add_argument("--field", help="field spec: Q, F<p>, F<p>^<d>")
    p.add_argument("-o", "--out", help="output file (default: stdout)")

    p = add("equal", cmd_equal, "compare two files as polynomials")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--term-budget", type=int, dest="term_budget")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        cfg = load_config(args.config)
        if args.json:
            cfg.output = "json"
        emitter = _Emitter(cfg.output == "json")
        return args.handler(args, cfg, emitter)
    except OabpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
