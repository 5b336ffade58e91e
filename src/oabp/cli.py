"""Command line interface: every library operation, driven by files.

One binary with subcommands.  Programs and polynomials travel as canonical
JSON files (see serialize); verdicts, stats and ranks print as short human
lines or, with --json, as deterministic JSON.  Exit status: 0 the command
completed (whatever the verdict), 1 usage error, 2 runtime error such as a
failed parse, a budget overrun, or a field mismatch.

A config file (JSON object) can preset shared knobs; point OABP_CONFIG at
it or pass --config.  A flag left unset takes the config's value, and main
merges the config into the parsed arguments once.  Each handler takes only
those arguments and returns (payload, human lines), or None after writing
an artifact to stdout; main alone prints and picks the exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields as dc_fields, replace
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
from .errors import BudgetError, FormatError, OabpError, StructureError
from .families import (
    elementary_symmetric_abp,
    full_rank_poly,
    order_separation_family,
    read_lower_bound,
    ryser_permanent_abp,
    seeded_weights,
    DEFAULT_WEIGHT_PRIME,
)
from .fields import Field, _json_int, _text_int, extension_field, prime_field, rationals
from .generator import (
    GeneratorParams,
    build_generator,
    eval_generator,
    points_needed,
    seed_count,
    seed_degree_bounds,
    seed_names,
)
from .pit import (
    DEFAULT_GRID_BUDGET,
    DEFAULT_TRIALS,
    PitOptions,
    abp_oracle,
    hitset_test_abp,
    random_probe,
    span_test,
)
from .poly import DEFAULT_TERM_BUDGET, SparsePoly, var_sort_key
from .serialize import (
    _parse,
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
    output: str = "human"  # "human" | "json"


def load_config(path: str | None) -> CliConfig:
    """The defaults, overridden by the file at path or $OABP_CONFIG: a str
    or an int (at least 1, but for the seed) per CliConfig field."""
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    cfg = CliConfig()
    if not path:
        return cfg
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from exc
    known = {f.name for f in dc_fields(CliConfig)}
    try:
        data = _parse(text)
        if not isinstance(data, dict):
            raise FormatError("config must hold a JSON object")
        for key, value in data.items():
            if key not in known:
                raise FormatError(f"unknown key {key!r}")
            if isinstance(getattr(cfg, key), int):  # the default's type
                _json_int(value, key, None if key == "seed" else 1)
            elif not isinstance(value, str):
                raise FormatError(f"bad {key} {value!r}: not a string")
            setattr(cfg, key, value)
        if cfg.output not in ("human", "json"):
            raise FormatError(f"bad output {cfg.output!r}: want 'human' or 'json'")
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc
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
                return extension_field(_text_int(p_text), _text_int(d_text))
            return prime_field(_text_int(body))
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
    except OabpError as exc:  # a malformed file, or a field that is none
        raise FormatError(f"{path}: {exc}") from exc


def _load_abp(path: str) -> Abp:
    obj = _load_file(path)
    if not isinstance(obj, Abp):
        raise FormatError(f"{path}: expected a program file, found a polynomial")
    return obj


def _parse_order(text: str, n: int) -> Permutation:
    """--order takes the variable sequence: first-read variable first."""
    try:
        seq = [_text_int(tok) for tok in text.replace(" ", "").split(",") if tok]
    except ValueError as exc:
        raise FormatError(f"bad order {text!r}: {exc}") from exc
    if len(seq) != n:
        raise FormatError(f"order lists {len(seq)} variables, expected {n}")
    return Permutation.from_sequence(seq)


def _with_order(a: Abp, text: str | None) -> Abp:
    """The program with --order, when given, as its declared order."""
    return replace(a, order=_parse_order(text, a.num_vars)) if text else a


def _parse_point(field: Field, text: str, n: int) -> tuple:
    parts = [tok for tok in text.split(",") if tok.strip()]
    if len(parts) != n:
        raise FormatError(f"point has {len(parts)} coordinates, expected {n}")
    return tuple(field.element_from_text(tok.strip()) for tok in parts)


def _write_artifact(text: str, out: str | None, payload: dict, summary: str):
    """Write a canonical artifact to the -o file and return what to print
    about it; with no -o, write it to stdout and return None."""
    if not out:
        sys.stdout.write(text)
        return None
    Path(out).write_text(text)
    return dict(payload, out=out), [summary + f" -> {out}"]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_validate(args):
    obj = _load_file(args.file)
    if isinstance(obj, Abp):
        problems = validate(obj)
        if obj.order is not None and not problems and not check_order(obj, obj.order):
            seq = list(obj.order.variable_sequence())
            problems = [f"program does not respect its declared order {seq}"]
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
    return payload, lines


def cmd_stats(args):
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
    return payload, lines


def cmd_eval(args):
    obj = _load_file(args.file)
    field = obj.field
    if isinstance(obj, Abp):
        point = _parse_point(field, args.point, obj.num_vars)
        value = evaluate(obj, point)
    else:
        variables = sorted(obj.variables(), key=var_sort_key)
        point = _parse_point(field, args.point, len(variables))
        value = obj.evaluate(dict(zip(variables, point)))
    return {"value": field.element_to_json(value)}, [field.element_to_text(value)]


def cmd_expand(args):
    a = _load_abp(args.file)
    p = expand(a, budget=args.term_budget)
    return _write_artifact(
        poly_dumps(p),
        args.out,
        {"terms": p.num_terms, "total_degree": p.total_degree()},
        f"expanded to {p.num_terms} terms",
    )


def cmd_obliviate(args):
    b = obliviate(_with_order(_load_abp(args.file), args.order))
    st = stats(b)
    return _write_artifact(
        abp_dumps(b),
        args.out,
        {"size": st.size, "width": st.width, "depth": st.depth},
        f"oblivious program: size {st.size}, width {st.width}",
    )


def cmd_derivative(args):
    a = _load_abp(args.file)
    d = derivative_abp(a, args.var)
    st = stats(d)
    return _write_artifact(
        abp_dumps(d),
        args.out,
        {"size": st.size, "width": st.width, "var": args.var},
        f"derivative in x_{args.var}: size {st.size}",
    )


def cmd_decompose(args):
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
    return payload, lines


def cmd_gen(args):
    field = parse_field_spec(args.field)
    point = None
    if args.eval is not None:
        # the point is read before the 2^k interpolation nodes are laid out
        point = _parse_point(field, args.eval, seed_count(args.k, args.r))
    # the barycentric tables over m nodes take about m^2 products
    nodes = points_needed(args.k, args.r)
    if nodes**2 > args.term_budget:
        raise BudgetError(
            f"generator tables k={args.k}, r={args.r}: {nodes} interpolation nodes "
            f"need {nodes**2} products, over the term budget {args.term_budget}"
        )
    params = GeneratorParams(args.k, args.r, field)
    if point is not None:
        values = eval_generator(params, point)
        return (
            {"outputs": [field.element_to_json(v) for v in values]},
            [", ".join(field.element_to_text(v) for v in values)],
        )
    names = seed_names(args.k, args.r)
    components = build_generator(params, budget=args.term_budget)
    payload = {
        "k": args.k,
        "r": args.r,
        "seed_names": list(names),
        "seed_degree_bounds": list(seed_degree_bounds(args.k, args.r, 2**args.k)),
        "components": [poly_to_json(c) for c in components],
    }
    lines = [f"map with {len(names)} seeds {', '.join(names)} and {len(components)} outputs:"]
    for j, comp in enumerate(components, start=1):
        lines.append(f"G{j} = {comp}")
    return payload, lines


def _witness_views(verdict):
    """(json value, display text) for a verdict's witness, if any."""
    w = verdict.witness
    if w is None:
        return None, None
    field = verdict.field
    if verdict.mode == "span":
        mono, coeff = w
        view = {"monomial": [[v, e] for v, e in mono], "coeff": field.element_to_json(coeff)}
        return view, str(SparsePoly(field, {mono: coeff}))
    text = "(" + ", ".join(field.element_to_text(x) for x in w) + ")"
    return [field.element_to_json(x) for x in w], text


def cmd_pit(args):
    a = _with_order(_load_abp(args.file), args.order)
    opts = PitOptions(grid_budget=args.grid_budget, trials=args.trials, seed=args.seed)
    if args.mode == "hitset":
        verdict = hitset_test_abp(a, args.read, opts)
    elif args.mode == "span":
        verdict = span_test(a, args.read)
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
        "span_dim": verdict.span_dim,
    }
    lines = [f"{verdict.verdict} (mode={verdict.mode}, queries={verdict.queries})"]
    if witness_text is not None:
        lines.append(f"witness: {witness_text}")
    if verdict.note:
        lines.append(f"note: {verdict.note}")
    return payload, lines


def cmd_rank(args):
    obj = _load_file(args.file)
    if isinstance(obj, Abp):
        # unchecked: the bound is about the polynomial, not the program
        obj = _with_order(obj, args.order)
        pi = obj.order if obj.order is not None else infer_order(obj)
        if pi is None:
            raise StructureError("program respects no variable order; pass --order")
    else:
        variables = obj.variables()
        if not all(isinstance(v, int) for v in variables):
            raise FormatError("rank needs integer-numbered variables")
        n = max(variables) if variables else 0
        pi = _parse_order(args.order, n) if args.order else Permutation.identity(n)
    bound = read_lower_bound(obj, pi)
    return (
        {"read_lower_bound": bound, "order": list(pi.variable_sequence())},
        [f"read lower bound: {bound}"],
    )


def cmd_family(args):
    field = parse_field_spec(args.field)
    meta = {"family": args.name, "n": args.n}
    if args.name in ("symm", "ryser"):
        if args.name == "ryser":
            a = ryser_permanent_abp(args.n, field)
            title = f"ryser n={args.n}"
        elif args.k is None:
            raise FormatError("family symm needs --k")
        else:
            a = elementary_symmetric_abp(args.n, args.k, field)
            meta["k"] = args.k
            title = f"symm n={args.n} k={args.k}"
        st = stats(a)
        text = abp_dumps(a)
        meta.update(size=st.size, read=st.read)
        summary = f"{title}: size {st.size}, read {st.read}"
    elif args.name == "ordersep":
        fam = order_separation_family(args.n, field)
        good = list(fam.good_order.variable_sequence())
        bad = list(fam.bad_order.variable_sequence())
        meta.update(good_order=good, bad_order=bad)
        if args.emit == "poly":
            text, kind = poly_dumps(fam.poly), "polynomial"
        else:
            text, kind = abp_dumps(fam.abp), "program"
        summary = f"ordersep n={args.n} {kind}; good order {good}, bad order {bad}"
    else:  # fullrank
        if field.size() is None:
            field = prime_field(DEFAULT_WEIGHT_PRIME)
        m = 2 * args.n + 1
        p = full_rank_poly(field, 1, m, seeded_weights(field, m, args.seed))
        text = poly_dumps(p)
        meta["terms"] = p.num_terms
        summary = f"fullrank n={args.n}: {p.num_terms} terms over F_{field.config.p}"
    return _write_artifact(text, args.out, meta, summary)


def cmd_equal(args):
    def as_poly(path: str) -> SparsePoly:
        obj = _load_file(path)
        if isinstance(obj, Abp):
            return expand(obj, budget=args.term_budget)
        return obj

    p = as_poly(args.a)
    q = as_poly(args.b)
    if p.field != q.field:
        raise FormatError(
            f"field mismatch: {p.field.config.to_json()} vs {q.field.config.to_json()}"
        )
    same = p == q
    return {"equal": same}, ["EQUAL" if same else "DIFFERENT"]


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse flags usage problems with status 2; the contract wants 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int(text: str) -> int:
    """argparse type of the integer flags, with argparse's own message."""
    try:
        return _text_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _count(text: str) -> int:
    """argparse type of the budget, trials and read-bound flags: an integer >= 1."""
    try:
        n = _text_int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"want an integer >= 1, got {text!r}")
    return n


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
    p.add_argument("--budget", type=_count, dest="term_budget", metavar="BUDGET", help="term budget")

    p = add("obliviate", cmd_obliviate, "rewrite as an oblivious program")
    p.add_argument("file")
    p.add_argument("--order", help="variable sequence, e.g. 2,4,1,3,5")
    p.add_argument("-o", "--out", help="output file (default: stdout)")

    p = add("derivative", cmd_derivative, "partial derivative of an oblivious program")
    p.add_argument("file")
    p.add_argument("--var", type=_int, required=True, help="variable index (1-based)")
    p.add_argument("-o", "--out", help="output file (default: stdout)")

    p = add("decompose", cmd_decompose, "cut into left/right polynomial pairs")
    p.add_argument("file")
    p.add_argument("--cut", type=_int, required=True, help="cut level index")
    p.add_argument("--reduce", action="store_true", help="reduce to independent pairs")

    p = add("gen", cmd_gen, "build or evaluate the hitting-set map")
    p.add_argument("--k", type=_int, required=True, help="recursion level")
    p.add_argument("--r", type=_int, required=True, help="read bound")
    p.add_argument("--field", help="field spec: Q, F<p>, F<p>^<d>")
    p.add_argument("--eval", help="comma-separated seed values")

    p = add("pit", cmd_pit, "zero-test a program")
    p.add_argument("file")
    p.add_argument("--read", type=_count, required=True, help="read bound r")
    p.add_argument("--mode", choices=("hitset", "span", "random"), default="hitset")
    p.add_argument("--order", help="override the variable order")
    p.add_argument("--grid-budget", type=_count, dest="grid_budget")
    p.add_argument("--trials", type=_count, default=DEFAULT_TRIALS, help="samples in random mode")
    p.add_argument("--seed", type=_int, help="seed in random mode")

    p = add("rank", cmd_rank, "read lower bound from the derivative matrix")
    p.add_argument("file")
    p.add_argument("--order", help="variable sequence, e.g. 2,4,1,3,5")

    p = add("family", cmd_family, "write a named example family")
    p.add_argument("name", choices=("symm", "ryser", "ordersep", "fullrank"))
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--k", type=_int, help="degree (symm only)")
    p.add_argument("--seed", type=_int, help="weight seed (fullrank only)")
    p.add_argument("--emit", choices=("abp", "poly"), default="abp", help="ordersep artifact kind")
    p.add_argument("--field", help="field spec: Q, F<p>, F<p>^<d>")
    p.add_argument("-o", "--out", help="output file (default: stdout)")

    p = add("equal", cmd_equal, "compare two files as polynomials")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--term-budget", type=_count, dest="term_budget")

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
        for key, value in vars(cfg).items():  # a flag left unset takes the config's value
            if getattr(args, key, None) is None:
                setattr(args, key, value)
        result = args.handler(args)
    except OabpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if result is not None:  # None: the handler wrote an artifact to stdout
        payload, lines = result
        if args.json or args.output == "json":
            print(json.dumps(payload, sort_keys=True, indent=1))
        else:
            for line in lines:
                print(line)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
