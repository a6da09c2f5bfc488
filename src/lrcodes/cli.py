"""Command-line surface and the JSON on-disk format for built codes.

Exit codes: 0 success, 2 invalid input or parameters, 3 verification or
decoding failure.  All symbol I/O is space-separated ASCII-digit integers;
"?" marks an erased coordinate in decode input.

A code file stores (q, n, k, r), everything the construction derives
from them, and the generator matrix G.  Loading rebuilds the code from
(q, n, k, r) and refuses a file whose derived fields differ from the
rebuild; G is kept as stored, and encode (msg . G) and decode both use
it, so the two cannot disagree.  The verify command checks G against
the construction's polynomials.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Sequence

from .bounds import (
    improved_bound,
    optimality_report,
    predicted_distance,
    rate_bound_holds,
    singleton_like_bound,
)
from .construction import CodeParams, CodeSpec, build_code, encode, validate_params
from .errors import LrcError, Unrecoverable
from .repair import decode_erasures, repair_group_values, repair_local
from .verify import DEFAULT_BUDGET, run_verification

SPEC_VERSION = 1


# -- persistence --------------------------------------------------------


def _params_doc(params: CodeParams) -> dict:
    """The fields of CodeParams in order, m_blocks under its JSON name m."""
    return {"m" if name == "m_blocks" else name: v for name, v in asdict(params).items()}


def _derived_doc(spec: CodeSpec) -> dict:
    """Every field of the code file but the generator matrix: what a
    loader compares with the rebuild.  k_prime is left out, as k + t."""
    params = _params_doc(spec.params)
    del params["k_prime"]
    return {
        "version": SPEC_VERSION,
        **params,
        "subgroup": asdict(spec.subgroup),
        **asdict(spec.partition),
        **asdict(spec.good),
        "h_B": spec.h_B,
        "eval_points": spec.eval_points,
    }


def spec_to_dict(spec: CodeSpec) -> dict:
    """The code file's document: the derived fields, then G."""
    return {**_derived_doc(spec), "generator_matrix": spec.G.tolist()}


def write_spec_file(spec: CodeSpec, path: str | Path) -> None:
    text = json.dumps(spec_to_dict(spec), indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise LrcError(f"bad code file: {message}")


def _is_int(x: object) -> bool:
    """JSON integers only: true/false load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def load_spec_file(path: str | Path) -> CodeSpec:
    """Load a code file by rebuilding its code from (q, n, k, r).

    Every stored field but the generator matrix must equal the rebuilt
    one as JSON text, so types count too (true is not 1).  The generator
    matrix is shape- and field-checked, then kept as stored, so that the
    verify command can report (rather than refuse to load) a tampered
    matrix.
    """
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise LrcError("bad code file: JSON nested too deeply") from None
    _expect(isinstance(doc, dict), "top level is not an object")
    version = doc.get("version")
    _expect(_is_int(version) and version == SPEC_VERSION, f"unsupported version {version!r}")
    for key in ("q", "n", "k", "r"):
        _expect(_is_int(doc.get(key)), f"missing or non-integer field {key!r}")
    q, n, k, r = doc["q"], doc["n"], doc["k"], doc["r"]
    # checked before the rebuild, so that the rebuilt G is no larger than the file's
    G = doc.get("generator_matrix")
    _expect(
        isinstance(G, list)
        and len(G) == k
        # exactly {int}: JSON true loads as bool, a subclass of int
        and all(
            isinstance(row, list) and len(row) == n and set(map(type, row)) == {int}
            for row in G
        )
        and min(map(min, G), default=0) >= 0
        and max(map(max, G), default=0) < q,
        "generator matrix must be k rows of n field elements",
    )
    spec = build_code(validate_params(q, n, k, r))
    for key, value in _derived_doc(spec).items():
        _expect(
            json.dumps(doc.get(key), sort_keys=True) == json.dumps(value, sort_keys=True),
            f"{key!r} does not match the code built from (q, n, k, r) = {(q, n, k, r)}",
        )
    return replace(spec, G=G)


# -- symbol parsing -----------------------------------------------------


def _gather_tokens(args: argparse.Namespace) -> list[str]:
    if args.file is not None:
        if args.symbols:
            raise LrcError("give symbols either inline or with --file, not both")
        return Path(args.file).read_text(encoding="utf-8").split()
    if not args.symbols:
        raise LrcError("no symbols given")
    return list(args.symbols)


def _parse_symbols(tokens: Sequence[str], q: int, allow_erased: bool = False) -> list[int | None]:
    out: list[int | None] = []
    for tok in tokens:
        if tok == "?":
            if not allow_erased:
                raise LrcError("erasure token '?' not allowed here")
            out.append(None)
            continue
        # int() would also take "1_0", "+1", "-0" and non-ASCII digits
        if not (tok.isascii() and tok.isdigit()):
            raise LrcError(f"symbol {tok!r} is not a decimal integer")
        v = int(tok)
        if not 0 <= v < q:
            raise LrcError(f"symbol {v} outside [0, {q})")
        out.append(v)
    return out


# -- subcommands --------------------------------------------------------


def cmd_params(args: argparse.Namespace) -> int:
    params = validate_params(args.q, args.n, args.k, args.r)
    report = optimality_report(params)
    print(
        f"valid ({params.n}, {params.k}, {params.r}) code over GF({params.q}): "
        f"s={params.s} t={params.t} m={params.m_blocks} n_bar={params.n_bar} k'={params.k_prime}"
    )
    print(f"minimum distance d = {report.d_predicted} ({report.applicable_reason})")
    print(json.dumps({**_params_doc(params), **asdict(report)}, indent=2))
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    params = validate_params(args.q, args.n, args.k, args.r)
    spec = build_code(params)
    write_spec_file(spec, args.out)
    print(f"wrote ({params.n}, {params.k}, {params.r}) code over GF({params.q}) "
          f"with d = {predicted_distance(params)} to {args.out}")
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    msg = _parse_symbols(_gather_tokens(args), spec.params.q)
    print(" ".join(str(x) for x in encode(msg, spec)))
    return 0


def cmd_repair(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    word = _parse_symbols(_gather_tokens(args), spec.params.q, allow_erased=True)
    i = args.index
    g_idx, pairs = repair_group_values(spec, word, i)
    value = repair_local(spec, i, pairs)
    print(f"coordinate {i} (point {spec.eval_points[i - 1]}), repair group {g_idx}")
    print("helper values: " + " ".join(f"{a}={v}" for a, v in pairs))
    print(f"repaired value: {value}")
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    word = _parse_symbols(_gather_tokens(args), spec.params.q, allow_erased=True)
    print(" ".join(str(x) for x in decode_erasures(spec, word)))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    spec = load_spec_file(args.spec)
    report = run_verification(spec, budget=args.budget)
    print(json.dumps({**asdict(report), "all_ok": report.all_ok}, indent=2))
    return 0 if report.all_ok else 3


def cmd_bounds(args: argparse.Namespace) -> int:
    for name, v in (("n", args.n), ("k", args.k), ("r", args.r)):
        if v < 1:
            raise LrcError(f"{name} must be a positive integer, got {v}")
    if args.k > args.n:
        raise LrcError(f"dimension k = {args.k} exceeds the length n = {args.n}")
    doc = {
        "n": args.n,
        "k": args.k,
        "r": args.r,
        "d_singleton": singleton_like_bound(args.n, args.k, args.r),
        "d_improved": improved_bound(args.n, args.k, args.r),
        "rate_bound_holds": rate_bound_holds(args.n, args.k, args.r),
    }
    print(json.dumps(doc, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrcodes",
        description="Distance-optimal locally recoverable codes of any length",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_qnkr(p: argparse.ArgumentParser) -> None:
        p.add_argument("--q", type=int, required=True, help="field order")
        p.add_argument("--n", type=int, required=True, help="code length")
        p.add_argument("--k", type=int, required=True, help="dimension")
        p.add_argument("--r", type=int, required=True, help="locality")

    def add_symbols(p: argparse.ArgumentParser, what: str) -> None:
        p.add_argument("symbols", nargs="*", help=f"{what} as space-separated integers")
        p.add_argument("--file", help=f"read the {what} from a file instead")

    p = sub.add_parser("params", help="validate parameters and report the distance")
    add_qnkr(p)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("construct", help="build a code and write its JSON file")
    add_qnkr(p)
    p.add_argument("--out", required=True, help="output path for the code file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("encode", help="encode a k-symbol message")
    p.add_argument("--spec", required=True, help="code file from construct")
    add_symbols(p, "message")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("repair", help="repair one coordinate from its group")
    p.add_argument("--spec", required=True, help="code file from construct")
    p.add_argument("--index", type=int, required=True, help="1-based coordinate to repair")
    add_symbols(p, "codeword")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("decode", help="decode a word with '?' erasures")
    p.add_argument("--spec", required=True, help="code file from construct")
    add_symbols(p, "received word")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("verify", help="run every brute-force oracle on a code file")
    p.add_argument("--spec", required=True, help="code file from construct")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max enumerated words (default %(default)s)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="distance bounds for (n, k, r), no field needed")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Unrecoverable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (LrcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
