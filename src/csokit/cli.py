"""Command-line front end.

Subcommands: certify, destructor, tto, synthesize, verify-paper and
question1-search, which reports a word-norm gap and an exact trace-word gap
of T: the trace gap proves T is not complex symmetric, and the word gap only
where it exceeds the bound that a verifying G leaves.  Matrix, Blaschke,
and symbol arguments accept either inline JSON or a path to a JSON file.
All output is canonical JSON (sorted keys, compact separators), so
identical inputs and seeds give byte-identical bytes.

Exit codes: certify maps its verdict to 0 (symmetric), 2 (obstructed), or
3 (inconclusive); malformed input, usage errors included, is 64 everywhere;
other toolkit errors (precondition, capacity, accuracy) are 65, among them a
synthesis whose fit did not converge; verify-paper exits 1 when any entry
fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialize
from .certify import find_conjugation, trace_obstruction_search, word_obstruction_search
from .errors import AccuracyError, InputError, ToolkitError
from .indestructible import destructor_witness
from .linalg import DEFAULT_TOL
from .modelspace import DEFAULT_QUAD, tto_matrix
from .synthesis import synthesize_tto_for_nilpotent2
from .verify import RunConfig, run_suite_with_determinism

EXIT_MALFORMED = 64
EXIT_TOOLKIT = 65
VERDICT_EXIT = {"c_symmetric": 0, "obstructed": 2, "inconclusive": 3}


def _load_json(arg: str):
    text = arg.strip()
    if not text.startswith("{"):
        try:
            with open(arg) as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {arg}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON: {exc}") from None


def _emit(obj, out: str | None) -> None:
    text = serialize.dumps(obj) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


# Shared numeric flags: type and default.  Each subcommand takes the ones it reads.
_FLAGS = {"seed": (int, RunConfig.seed), "tol": (float, DEFAULT_TOL), "quad": (int, DEFAULT_QUAD)}


def _common(parser: argparse.ArgumentParser, *flags: str) -> None:
    for name in flags:
        kind, default = _FLAGS[name]
        parser.add_argument(f"--{name}", type=kind, default=default)
    parser.add_argument("--out", default=None)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit 64, as malformed input does, not
    argparse's 2, which is certify's "obstructed"."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_MALFORMED, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="csokit",
        description="complex-symmetry certificates, destructor witnesses, and "
        "truncated Toeplitz synthesis for nilpotent operators of order two",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="decide complex symmetry of a matrix")
    p.add_argument("--matrix", required=True)
    _common(p, "tol")

    p = sub.add_parser("destructor", help="pair a matrix against the 3x3 witness")
    p.add_argument("--matrix", required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=2.0)
    _common(p)

    p = sub.add_parser("tto", help="matrix of a truncated Toeplitz operator")
    p.add_argument("--u", required=True, help="Blaschke product JSON")
    p.add_argument("--phi", required=True, help="symbol JSON")
    _common(p)

    p = sub.add_parser("synthesize", help="analytic TTO unitarily equivalent to N")
    p.add_argument("--matrix", required=True)
    _common(p)

    p = sub.add_parser("verify-paper", help="replay the whole certified suite")
    _common(p, "seed", "quad")

    p = sub.add_parser(
        "question1-search",
        help="look for a word-norm or trace-word gap that proves T is not complex symmetric",
    )
    p.add_argument("--matrix", required=True)
    p.add_argument("--max-len", type=int, default=5)
    _common(p, "tol")

    return parser


def cmd_certify(args) -> int:
    T = serialize.matrix_from_json(_load_json(args.matrix))
    cert = find_conjugation(T, tol=args.tol)
    _emit(serialize.cso_certificate_to_json(cert), args.out)
    return VERDICT_EXIT[cert.verdict]


def cmd_destructor(args) -> int:
    A = serialize.matrix_from_json(_load_json(args.matrix))
    cert = destructor_witness(A, args.alpha, args.beta)
    _emit(serialize.destructor_to_json(cert), args.out)
    return 0


def cmd_tto(args) -> int:
    u = serialize.blaschke_from_json(_load_json(args.u))
    phi = serialize.symbol_from_json(_load_json(args.phi))
    _emit(serialize.matrix_to_json(tto_matrix(u, phi)), args.out)
    return 0


def cmd_synthesize(args) -> int:
    N = serialize.matrix_from_json(_load_json(args.matrix))
    res = synthesize_tto_for_nilpotent2(N)
    if not res.converged:  # a rank-0 N always converges, so res.modulus is set
        raise AccuracyError(
            f"the TTO fit did not converge: equivalence residual {res.equivalence_residual:.3e} "
            f"at ||N|| = {res.modulus.target_singular_values[0]:.3e}"
        )
    _emit(serialize.synthesis_to_json(res), args.out)
    return 0


def cmd_verify_paper(args) -> int:
    cfg = RunConfig(seed=args.seed, quad=args.quad)
    report = run_suite_with_determinism(cfg)
    for entry in report["entries"]:
        tag = "PASS" if entry["status"] == "pass" else entry["status"].upper()
        sys.stderr.write(f"[{tag}] {entry['name']}: {entry['claim']}\n")
    _emit(report, args.out)
    return 0 if report["all_pass"] else 1


def cmd_question1(args) -> int:
    T = serialize.matrix_from_json(_load_json(args.matrix))
    word_hit = word_obstruction_search(T, max_len=args.max_len, tol=args.tol)
    trace_hit = trace_obstruction_search(T, tol=args.tol)
    out = {
        "word_search": None if word_hit is None else {"word": word_hit[0], "gap": word_hit[1]},
        "trace_search": serialize.trace_hit_to_json(trace_hit),
        "note": "a trace gap proves T is not complex symmetric at tol, and a word gap of "
        "length L does only above L(4t + t^2)||T||^L, t = max(tol, 16 L n eps); finding "
        "neither resolves nothing: a matrix unitarily equivalent to its transpose "
        "satisfies every trace and norm identity",
    }
    _emit(out, args.out)
    return 0


COMMANDS = {
    "certify": cmd_certify,
    "destructor": cmd_destructor,
    "tto": cmd_tto,
    "synthesize": cmd_synthesize,
    "verify-paper": cmd_verify_paper,
    "question1-search": cmd_question1,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_MALFORMED
    except ToolkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_TOOLKIT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
