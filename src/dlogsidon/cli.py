"""Command-line surface tying the modules together.

Subcommands: basis, generate, prune, bh generate, bh montecarlo, audit,
count, finite, gf2 finite, gf2 generate. Every output is canonical JSON
(sorted keys, compact separators), one value per line, so identical
configurations produce byte-identical artifacts. Big integers are written
as decimal strings; the only floats are labeled approximations.

Exit status: 0 on success, 1 on a verification or runtime failure, 2 on a
usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from math import isqrt

from . import bh as bh_mod
from . import gf2x
from .arith import INTEGERS, is_primitive_root, smallest_primitive_root
from .auditor import check_one_bucket, find_collisions, growth_bracket_check, is_sidon
from .basis import Basis, build_basis
from .blocks import const_decimal, const_sqrt2, const_sqrt5, const_window, sidon_params
from .errors import DlogSidonError, InvalidModulus
from .generator import count_upto, generate_blocks
from .pruner import pruned_generate


class UsageError(Exception):
    """A bad flag value; reported through argparse with exit status 2."""


class _ExactParser(argparse.ArgumentParser):
    """No abbreviated flags (--h is not --help); subparsers inherit this."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def parse_constant(text: str):
    """sqrt5 | sqrt2 | bh:<h> | decimal string in (0, 1/2)."""
    try:
        if text == "sqrt5":
            return const_sqrt5()
        if text == "sqrt2":
            return const_sqrt2()
        if text.startswith("bh:"):
            return const_window(int(text.split(":", 1)[1]))
        return const_decimal(text)
    except (ValueError, DlogSidonError) as e:
        raise UsageError(f"--c {text!r}: {e}") from None


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _square_scale(text: str) -> int:
    n = int(text)
    if n < 4 or isqrt(n) ** 2 != n:
        raise argparse.ArgumentTypeError(f"must be the square of an integer >= 2, got {n}")
    return n


def _checked_law(params, k_max: int):
    """The block law, once --kmax reaches its first block."""
    if k_max < params.k_min:
        raise UsageError(f"--kmax {k_max} is below the first block {params.k_min}")
    return params


def _bh_law(ns: argparse.Namespace):
    if ns.h < 3:
        raise UsageError(f"--h must be >= 3, got {ns.h}")
    return _checked_law(bh_mod.bh_params(ns.h), ns.k_max)


_canon = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# An element line as _canon writes SidonElement.to_json_obj: keys sorted,
# no spaces, the value a as a decimal string.
_ELEMENT_LINE = '{{"a":"{}","digits":[{}],"k":{},"p":{}}}\n'.format


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_lines(path: str | None, objs) -> None:
    _write_text(path, "".join(_canon(o) + "\n" for o in objs))


def _write_elements(path: str | None, elements, hex_p: bool = False) -> None:
    """One line per element, from one fixed format string: the bytes _canon
    writes for its to_json_obj, with p as a hex string where hex_p."""
    p_field = '"{:x}"'.format if hex_p else str
    _write_text(path, "".join(
        _ELEMENT_LINE(e.value, ",".join(map(str, e.digits)), e.k, p_field(e.p))
        for e in elements))


def _write_doc(path: str | None, obj) -> None:
    _write_text(path, _canon(obj) + "\n")


def _read_lines(path: str) -> list[str]:
    if path == "-":
        return sys.stdin.read().splitlines()
    with open(path) as fh:
        return fh.read().splitlines()


def _make_basis(ns: argparse.Namespace, scale: int, count: int = 0) -> Basis:
    """The basis of the basis flags, its first `count` entries built; a
    generation builds the rest once it has checked its blocks. The flags
    name one basis: --seed comes with --basis random and only with it, and
    --basis-file takes neither."""
    if (ns.seed is None) == (ns.basis == "random"):
        raise UsageError("--basis random needs --seed, and --seed needs --basis random")
    path = getattr(ns, "basis_file", None)
    if path:
        if ns.basis is not None:
            raise UsageError("--basis-file takes no --basis or --seed")
        with open(path) as fh:
            b = Basis.from_json_doc(json.load(fh))
        if b.scale != scale:
            raise UsageError(f"--basis-file scale {b.scale} does not match h^2 = {scale}")
        return b
    return build_basis(scale, count, seed=ns.seed)


def _sidon_prefix(ns: argparse.Namespace, c):
    """The plain-law prefix at constant c over a scale-4 basis that generate,
    prune and count share."""
    params = _checked_law(sidon_params(c=c), ns.k_max)
    return generate_blocks(ns.k_max, params, _make_basis(ns, 4))


def _cmd_basis(ns: argparse.Namespace) -> int:
    b = _make_basis(ns, ns.scale, ns.count)
    _write_doc(ns.out, b.to_json_doc())
    return 0


def _audit_value(line: str, where: str) -> int:
    """A JSON integer, a string of a decimal integer, or an object whose "a"
    is one of those; anything else raises ValueError naming the line."""
    try:
        obj = json.loads(line)
    except ValueError:
        obj = None
    value = obj.get("a") if isinstance(obj, dict) else obj
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    if type(value) is not int:  # bool is an int subclass; floats are inexact
        raise ValueError(f"{where}: {line.strip()!r} is not an integer, a decimal string "
                         f"or an object whose \"a\" is one")
    return value


def _cmd_generate(ns: argparse.Namespace) -> int:
    prefix = _sidon_prefix(ns, parse_constant(ns.c))
    _write_elements(ns.out, prefix.elements)
    _write_doc(ns.summary, {
        "c": ns.c,
        "h": prefix.basis.h,
        "k_max": ns.k_max,
        "blocks": prefix.summaries(),
        "excluded": [r.to_json_obj() for r in prefix.excluded],
    })
    return 0


def _cmd_prune(ns: argparse.Namespace) -> int:
    c = parse_constant(ns.c)
    if not c > const_sqrt5():  # pruned_generate's own check, before any block
        raise UsageError(f"--c {ns.c!r}: pruning needs c above (3 - sqrt 5)/2")
    result = pruned_generate(_sidon_prefix(ns, c))
    _write_elements(ns.out, result.pruned.elements)
    if ns.bad_out:
        _write_lines(ns.bad_out, (r.to_json_obj() for r in result.records))
    _write_doc(ns.summary, {
        "c": ns.c,
        "k_max": ns.k_max,
        "blocks": result.reports,
        "bad_total": len(result.records),
        "kept": len(result.pruned.elements),
    })
    return 0


def _cmd_bh_generate(ns: argparse.Namespace) -> int:
    params = _bh_law(ns)
    prefix = bh_mod.bh_generate(ns.k_max, params, _make_basis(ns, ns.h * ns.h))
    if ns.raw:
        kept, removed = prefix.elements, []
    else:
        result = bh_mod.bh_prune(prefix)
        kept, removed = result.pruned.elements, result.removed
    _write_elements(ns.out, kept)
    _write_doc(ns.summary, {
        "h": ns.h,
        "k_max": ns.k_max,
        "blocks": prefix.summaries(),
        "removed": [e.to_json_obj() for e in removed],
        "negative_taper_blocks": bh_mod.negative_taper_blocks(params, ns.k_max),
    })
    return 0


def _cmd_bh_montecarlo(ns: argparse.Namespace) -> int:
    _bh_law(ns)
    _write_doc(ns.out, bh_mod.montecarlo_bad_ratio(ns.h, ns.k_max, ns.trials, ns.seed))
    return 0


def _cmd_audit(ns: argparse.Namespace) -> int:
    l = ns.l
    if l < 2:
        raise UsageError("--l must be >= 2")
    values = [_audit_value(line, f"--input line {i}")
              for i, line in enumerate(_read_lines(ns.input), start=1) if line.strip()]
    reports = find_collisions(values, l, modulus=ns.modulus)
    _write_lines(ns.out, (r.to_json_obj() for r in reports))
    if reports and not ns.allow_collisions:
        where = "stdout" if ns.out == "-" else ns.out
        print(f"audit: {len(reports)} collision report(s) at {where}", file=sys.stderr)
        return 1
    return 0


def _cmd_count(ns: argparse.Namespace) -> int:
    prefix = _sidon_prefix(ns, parse_constant(ns.c))
    doc = {"x": str(ns.x), "count": count_upto(ns.x, prefix), "k_max": ns.k_max}
    if ns.brackets:
        doc["brackets"] = growth_bracket_check(prefix)
    _write_doc(ns.out, doc)
    return 0


def _finite(ns: argparse.Namespace, ring, q, g, head: dict) -> int:
    """The finite Sidon set mod q over the ring, written after `head`.
    Refuses, before the first log, a set whose pair audit mod N(q) - 1
    cannot fit or (in finite_sidon) whose logs need more baby steps than
    the limit."""
    check_one_bucket(len(ring.irreducibles_below(q)))
    residues = sorted(ring.finite_sidon(q, g))
    modulus = ring.norm(q) - 1
    sidon = is_sidon(residues, modulus)
    _write_doc(ns.out, dict(head, modulus=modulus, size=len(residues),
                            residues=residues, sidon=sidon))
    return 0 if sidon else 1


def _cmd_finite(ns: argparse.Namespace) -> int:
    q, g = ns.q, ns.g
    INTEGERS.baby_steps(q)  # before the generator search factors q - 1
    try:  # each raises InvalidModulus for a non-prime q first
        if g is None:
            g = smallest_primitive_root(q)
        elif not is_primitive_root(g, q):
            raise UsageError(f"--g {g} is not a primitive root mod {q}")
    except InvalidModulus:
        raise UsageError(f"--q {q} is not prime") from None
    return _finite(ns, INTEGERS, q, g, {"q": q, "g": g})


def _cmd_gf2_finite(ns: argparse.Namespace) -> int:
    n = ns.n
    if n < 3:
        raise UsageError("--n must be >= 3")
    if ns.q is None:
        q = gf2x.least_irreducible(n)
    else:
        try:
            q = int(ns.q, 16)
        except ValueError:
            raise UsageError(f"--q {ns.q!r} is not a hex bit pattern") from None
        if q < 0 or gf2x.gf2_deg(q) != n or not gf2x.is_irreducible(q):
            raise UsageError(f"--q {ns.q} is not an irreducible polynomial of degree {n}")
        gf2x.check_degree(n)  # as least_irreducible does, before _finite counts residues
    return _finite(ns, gf2x.GF2, q, None, {"n": n, "q": format(q, "x")})


def _cmd_gf2_generate(ns: argparse.Namespace) -> int:
    params = _checked_law(sidon_params(c=parse_constant(ns.c), offset=0), ns.k_max)
    prefix = gf2x.gf2_generate_blocks(ns.k_max, params)
    # Polynomials are written as hex bit patterns.
    _write_elements(ns.out, prefix.elements, hex_p=True)
    _write_doc(ns.summary, {
        "c": ns.c,
        "k_max": ns.k_max,
        "blocks": [{"k": k, "block_size": prefix.block_sizes[k]}
                   for k in sorted(prefix.block_sizes)],
        "excluded": [{"p": format(r.p, "x"), "k": r.k, "basis_index": r.basis_index}
                     for r in prefix.excluded],
    })
    return 0


def _add_c_flag(p, default):
    p.add_argument("--c", default=default,
                   help="exponent constant: sqrt5, sqrt2, bh:<h>, or a decimal in (0, 1/2)")


def _add_kmax_flag(p):
    p.add_argument("--kmax", dest="k_max", type=int, required=True,
                   help="last block index to generate")


def _add_basis_flags(p, file=True):
    p.add_argument("--basis", choices=("deterministic", "random"),
                   help="least prime per interval (the default), or seeded uniform choice")
    if file:
        p.add_argument("--basis-file", dest="basis_file",
                       help="JSON basis document to use instead of building one")
    p.add_argument("--seed", type=int, help="RNG seed (with --basis random, and only there)")


def _add_out_flags(p, summary=True):
    p.add_argument("--out", default="-", help="output path, - for stdout (default)")
    if summary:
        p.add_argument("--summary", help="summary JSON path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ExactParser(
        prog="dlogsidon",
        description="Sidon and B_h sequences from discrete logarithms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="emit a basis document as JSON")
    p.set_defaults(run=_cmd_basis)
    p.add_argument("--scale", type=_square_scale, default=4, help="radix scale h^2 (default 4)")
    p.add_argument("--count", type=_positive_int, required=True, help="number of entries")
    _add_basis_flags(p, file=False)
    p.add_argument("--out", default="-", help="output path, - for stdout (default)")

    p = sub.add_parser("generate", help="generate all elements of blocks up to kmax")
    p.set_defaults(run=_cmd_generate)
    _add_c_flag(p, "sqrt5")
    _add_kmax_flag(p)
    _add_basis_flags(p)
    _add_out_flags(p)

    p = sub.add_parser("prune", help="generate and remove range-bound bad primes")
    p.set_defaults(run=_cmd_prune)
    _add_c_flag(p, "sqrt2")
    _add_kmax_flag(p)
    p.add_argument("--bad-out", dest="bad_out", help="bad-prime records JSONL path")
    _add_basis_flags(p)
    _add_out_flags(p)

    bhp = sub.add_parser("bh", help="h-fold-sum sequences, h >= 3")
    bhsub = bhp.add_subparsers(dest="sub", required=True)

    p = bhsub.add_parser("generate", help="tapered-block generation plus greedy pruning")
    p.set_defaults(run=_cmd_bh_generate)
    p.add_argument("--h", type=int, default=3, help="sum order (default 3)")
    p.add_argument("--kmax", dest="k_max", type=int, required=True)
    p.add_argument("--raw", action="store_true", help="skip the repeated-sum pruning")
    _add_basis_flags(p)
    _add_out_flags(p)

    p = bhsub.add_parser("montecarlo", help="removed-fraction survey over random bases")
    p.set_defaults(run=_cmd_bh_montecarlo)
    p.add_argument("--h", type=int, default=3)
    p.add_argument("--kmax", dest="k_max", type=int, required=True)
    p.add_argument("--trials", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_out_flags(p, summary=False)

    p = sub.add_parser("audit", help="exhaustive l-fold sum collision search")
    p.set_defaults(run=_cmd_audit)
    p.add_argument("--input", required=True, help="element JSONL path, - for stdin")
    p.add_argument("--l", type=int, default=2, help="sum arity, sides l-multisets (default 2)")
    p.add_argument("--modulus", type=_positive_int, help="compare sums modulo this")
    p.add_argument("--allow-collisions", dest="allow_collisions", action="store_true",
                   help="exit 0 even when collisions are found")
    p.add_argument("--out", default="-", help="collision report JSONL path")

    p = sub.add_parser("count", help="counting function A(x) against a prefix")
    p.set_defaults(run=_cmd_count)
    p.add_argument("--x", type=int, required=True, help="count elements <= x")
    _add_c_flag(p, "sqrt5")
    _add_kmax_flag(p)
    p.add_argument("--brackets", action="store_true",
                   help="include per-block bracket checks and exponent diagnostics")
    _add_basis_flags(p)
    _add_out_flags(p, summary=False)

    p = sub.add_parser("finite", help="finite discrete-log Sidon set mod a prime")
    p.set_defaults(run=_cmd_finite)
    p.add_argument("--q", type=int, required=True, help="prime modulus")
    p.add_argument("--g", type=int, help="primitive root (default: smallest)")
    p.add_argument("--out", default="-")

    gf2p = sub.add_parser("gf2", help="the GF(2)[X] analogue")
    gf2sub = gf2p.add_subparsers(dest="sub", required=True)

    p = gf2sub.add_parser("finite", help="finite Sidon set in Z_(2^n - 1)")
    p.set_defaults(run=_cmd_gf2_finite)
    p.add_argument("--n", type=int, required=True, help="modulus degree, >= 3")
    p.add_argument("--q", help="irreducible modulus as hex bits (default: least)")
    p.add_argument("--out", default="-")

    p = gf2sub.add_parser("generate", help="blocks of irreducibles by degree")
    p.set_defaults(run=_cmd_gf2_generate)
    _add_c_flag(p, "sqrt5")
    _add_kmax_flag(p)
    _add_out_flags(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.run(ns)
    except UsageError as e:
        parser.error(str(e))
    except (DlogSidonError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
