"""Command line front end.

Subcommands
-----------
projector KIND M [--out json|matrix|svg|tikz] [--output FILE]
    Build the extremal, Jones-Wenzl, highest, or lowest weight projector
    on M strands and print it (json = morphism terms, matrix = its weight
    map, svg/tikz = a picture).

verify SUITE [MAX]
    Run a named identity suite (or "all"); one PASS/FAIL line per
    identity, exit status 0 only if everything passed.  MAX overrides the
    suite's default size cap.

eval LHS [RHS] OP
    Apply OP to one or two morphisms.  Binary ops: compose (LHS after
    RHS), tensor, eq.  Unary ops: ptrace, phi, coords.  Operands are
    either paths to morphism JSON files or builtin names such as id_3,
    u_4_0, cap_4_1, cup_2_0, d_3, dinv_3, s_4_2, t_5, jw_4, highest_3,
    lowest_3, ess_2.

render INPUT [--format svg|tikz|ascii] [--output FILE]
    Draw a morphism (JSON path or builtin name).

Global flags --mode {raw,quotient} and --max-strands N take precedence
over the ATL_MODE / ATL_MAX_STRANDS environment variables.

Bad input is whatever the library refuses with a ValueError (an
out-of-range operand or projector size, mismatched shapes, a size over
--max-strands, a strand superposed over an essential circle, a bad
--max-strands, ATL_MODE or ATL_MAX_STRANDS value, a malformed JSON file),
plus what only the front end can see (a wrong number of operands, an
unknown op, an odd number of endpoints, a negative verify MAX, a file
that cannot be read or written).  It is reported with its message on one
"error: ..." line, with exit status 2.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NoReturn

from .canon import coordinates, enumerate_basis, ess_equal, labels_from_matching
from .config import get_config, set_config
from .diagram import Morphism, crossing, gen_cap, gen_cup, gen_d, gen_id, gen_u
from .planar import ess_generator, partial_trace, tensor
from .projectors import extremal, highest_weight, jones_wenzl, lowest_weight
from .render import render_ascii, render_svg, render_tikz
from .rep import phi
from .verify import SUITES, run_suite

# constructor and smallest strand count
PROJECTOR_KINDS = {
    "extremal": (extremal, 0),
    "jw": (jones_wenzl, 1),
    "highest": (highest_weight, 1),
    "lowest": (lowest_weight, 1),
}

_BUILTINS = {
    "id": (1, lambda n: gen_id(n)),
    "u": (2, lambda n, i: gen_u(n, i)),
    "cap": (2, lambda n, i: gen_cap(n, i)),
    "cup": (2, lambda n, i: gen_cup(n, i)),
    "d": (1, lambda n: gen_d(n, 1)),
    "dinv": (1, lambda n: gen_d(n, -1)),
    "s": (2, lambda n, i: crossing(n, i)),
    "t": (1, extremal),
    "jw": (1, jones_wenzl),
    "highest": (1, highest_weight),
    "lowest": (1, lowest_weight),
    "ess": (1, ess_generator),
}


def _usage_error(message: str) -> NoReturn:
    """Report bad user input on one line and exit with status 2."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_operand(text: str) -> Morphism:
    """A builtin name like u_4_0, or a path to a morphism JSON file."""
    head, *rest = text.split("_")
    if head in _BUILTINS and rest:
        arity, fn = _BUILTINS[head]
        if len(rest) == arity and all(p.lstrip("-").isdigit() for p in rest):
            try:
                return fn(*(int(p) for p in rest))
            except ValueError as exc:  # out-of-range size or index
                _usage_error(f"{text}: {exc}")
    path = Path(text)
    if not path.exists():
        _usage_error(f"{text!r} is neither a builtin name nor a file")
    try:
        x = Morphism.loads(path.read_text())
    except OSError as exc:  # a directory, or a file that may not be read
        _usage_error(f"{text}: cannot read ({exc.strerror})")
    except ValueError as exc:
        _usage_error(f"{text}: not a morphism JSON file ({type(exc).__name__}: {exc})")
    if (x.dom + x.cod) % 2:
        _usage_error(f"{text}: shape {x.dom}->{x.cod} has an odd number of endpoints")
    return x


def _emit(text: str, output: str | None) -> None:
    if output:
        try:
            Path(output).write_text(text)
        except OSError as exc:
            _usage_error(f"{output}: cannot write ({exc.strerror})")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_projector(args) -> int:
    build, _ = PROJECTOR_KINDS[args.kind]
    proj = build(args.m)
    if args.out == "json":
        _emit(proj.dumps(), args.output)
    elif args.out == "matrix":
        _emit(phi(proj).dumps(), args.output)
    elif args.out == "svg":
        _emit(render_svg(proj), args.output)
    else:
        _emit(render_tikz(proj), args.output)
    return 0


def cmd_verify(args) -> int:
    if args.max is not None and args.max < 0:
        _usage_error(f"verify MAX must be nonnegative, got {args.max}")
    ok, lines = run_suite(args.suite, args.max)
    for line in lines:
        print(line)
    return 0 if ok else 1


def cmd_eval(args) -> int:
    operands = args.operands
    if len(operands) < 2:
        _usage_error("eval needs LHS [RHS] OP")
    op = operands[-1]
    sources = operands[:-1]
    binary = {"compose", "tensor", "eq"}
    unary = {"ptrace", "phi", "coords"}
    if op in binary and len(sources) != 2:
        _usage_error(f"{op} takes two operands")
    if op in unary and len(sources) != 1:
        _usage_error(f"{op} takes one operand")
    if op not in binary | unary:
        _usage_error(f"unknown op {op!r}")
    ms = [load_operand(s) for s in sources]
    if op == "compose":
        _emit((ms[0] * ms[1]).dumps(), args.output)
    elif op == "tensor":
        _emit(tensor(ms[0], ms[1]).dumps(), args.output)
    elif op == "ptrace":
        _emit(partial_trace(ms[0]).dumps(), args.output)
    elif op == "phi":
        _emit(phi(ms[0]).dumps(), args.output)
    elif op == "coords":
        coeffs = coordinates(ms[0])
        labels = [
            labels_from_matching(b) for b in enumerate_basis(ms[0].dom + ms[0].cod)
        ]
        obj = {"basis": labels, "coords": [str(c) for c in coeffs]}
        _emit(json.dumps(obj, indent=2), args.output)
    else:
        syntactic = ms[0] == ms[1]
        essential = ess_equal(ms[0], ms[1])
        print(f"syntactic: {syntactic}")
        print(f"essential: {essential}")
        return 0 if essential else 1
    return 0


def cmd_render(args) -> int:
    m = load_operand(args.input)
    if args.format == "svg":
        _emit(render_svg(m), args.output)
    elif args.format == "tikz":
        _emit(render_tikz(m), args.output)
    else:
        _emit(render_ascii(m), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="atlq", description=__doc__.split("\n")[0])
    parser.add_argument("--mode", choices=["raw", "quotient"])
    parser.add_argument("--max-strands", type=int)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("projector", help="build a named projector")
    p.add_argument("kind", choices=sorted(PROJECTOR_KINDS))
    p.add_argument("m", type=int)
    p.add_argument("--out", choices=["json", "matrix", "svg", "tikz"], default="json")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_projector)

    v = sub.add_parser("verify", help="run an identity suite")
    v.add_argument("suite", choices=sorted(["all", *SUITES]))
    v.add_argument("max", nargs="?", type=int)
    v.set_defaults(fn=cmd_verify)

    e = sub.add_parser("eval", help="apply an operation to morphisms")
    e.add_argument("operands", nargs="+", metavar="LHS [RHS] OP")
    e.add_argument("--output")
    e.set_defaults(fn=cmd_eval)

    r = sub.add_parser("render", help="draw a morphism")
    r.add_argument("input")
    r.add_argument("--format", choices=["svg", "tikz", "ascii"], default="svg")
    r.add_argument("--output")
    r.set_defaults(fn=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = get_config()
        mode = args.mode if args.mode is not None else cfg.mode
        max_strands = (
            args.max_strands if args.max_strands is not None else cfg.max_strands
        )
        set_config(type(cfg)(max_strands=max_strands, mode=mode))
        return args.fn(args)
    except ValueError as exc:  # input the library refuses, with its message
        _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
