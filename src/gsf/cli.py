"""Command line front end: generate points, print operator families, run
the verification checks, and show the combinatorial layouts.

Exit codes: 0 when everything passes (or is skipped), 1 when a verification
check fails, 2 on bad input.  Output is deterministic for fixed flags and
seed: JSON with sorted keys.
"""

import argparse
import json
import os
import sys

from .combinatorics import (color_positions, gon_positions, sim_sequence,
                            simplex_positions)
from .errors import (ConstructionError, InputError, ReductionError,
                     SamplingError, StructuralError)
from .field import field_create, json_integer
from .grassmann import load_point, point_to_json, random_point, save_point
from .solutions import (Construction, gon_slot, gon_inverse_slot,
                        reduced_slot, simplex_slot)
from .verify import CHECK_NAMES, run_checks


def _emit(obj, path=None):
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def integer(text):
    """Decimal text read strictly, as in point files: an optional sign,
    then ASCII digits.  Its name is the type argparse names on a refusal."""
    return json_integer(text, "the value")


def _seed(args):
    env = os.environ.get("GSF_SEED")
    return args.seed if env is None else json_integer(env, "GSF_SEED")


def cmd_gen(args):
    field = field_create(args.field)
    point = random_point(args.n, field, seed=_seed(args))
    summary = {"n": point.n, "field": field.descriptor(),
               "minors": len(point.table.entries), "vanishing": 0}
    if args.out:
        save_point(args.out, point)
        summary["out"] = args.out
        _emit(summary)
    else:
        _emit(point_to_json(point))
    return 0


def _slot_builder(what):
    return {"A": gon_slot, "B": gon_inverse_slot, "R": simplex_slot,
            "Z": reduced_slot}[what]


def cmd_build(args):
    point = load_point(args.point)
    field, n = point.field, point.n
    top = 2 * n if args.what == "Z" else 2 * n + 1
    extra = (field.parse(args.lam),) if args.what == "Z" else ()
    if args.q == "all":
        labels = list(range(1, top + 1))
    else:
        try:
            labels = [json_integer(args.q, "--q")]
        except ValueError as e:
            raise InputError("--q takes a label or 'all'") from e
        if not 1 <= labels[0] <= top:
            raise InputError("label %d out of range 1..%d" % (labels[0], top))
    fmt = field.fmt
    builder = _slot_builder(args.what)
    con = Construction(point)
    entries = {}
    for q in labels:
        slot = builder(con, q, *extra)
        entries[str(q)] = {
            "matrix": [[fmt(v) for v in row] for row in slot.matrix],
            "positions": list(slot.positions),
        }
    out = {"what": args.what, "n": n, "field": field.descriptor()}
    if args.what == "Z":
        out["lam"] = fmt(extra[0])
    if args.q == "all":
        out["entries"] = entries
    else:
        out["q"] = labels[0]
        out.update(entries[str(labels[0])])
    _emit(out, args.out)
    return 0


def cmd_verify(args):
    point = load_point(args.point)
    field = point.field
    checks = None
    if args.checks and args.checks != "all":
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
        if not checks:
            raise InputError("--checks %r names no check" % args.checks)
    lambdas = None
    if args.lam:
        lambdas = [field.parse(s) for s in args.lam.split(",")]
    reports = run_checks(point, checks=checks, lambdas=lambdas,
                         depth=args.depth)
    status = "pass" if all(r.ok() for r in reports) else "fail"
    _emit({"field": field.descriptor(), "n": point.n, "status": status,
           "reports": [r.to_json() for r in reports]}, args.out)
    return 0 if status == "pass" else 1


def cmd_positions(args):
    n = args.n
    gon = {str(q): gon_positions(n, q) for q in range(1, 2 * n + 2)}
    simplex = {str(q): simplex_positions(2 * n, q)
               for q in range(1, 2 * n + 2)}
    if args.equation == "gon" and not args.coloring:
        _emit(gon, args.out)
        return 0
    if args.equation == "simplex" and not args.coloring:
        _emit(simplex, args.out)
        return 0
    trace = color_positions(n)
    colors = {
        "pairs": [list(p) for p in sim_sequence(2 * n)],
        "rows": ["".join(row) for row in trace.rows],
        "histories": ["".join(h) for h in trace.histories],
    }
    if args.coloring and args.equation is None:
        _emit(colors, args.out)
        return 0
    _emit({"n": n, "gon": gon, "simplex": simplex, "colors": colors},
          args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="gsf",
        description="Exact solutions of the polygon and simplex equations "
                    "from points of a Grassmannian, with verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="sample a point with all minors nonzero")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--field", default="q",
                   help="q, gf(p), or gf(p,k;c0,...,ck)")
    p.add_argument("--seed", type=integer, default=0,
                   help="overridden by the GSF_SEED environment variable")
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="print an operator family")
    p.add_argument("--point", required=True)
    p.add_argument("--what", "--family", dest="what",
                   choices=("A", "B", "R", "Z"), required=True)
    p.add_argument("--q", default="all", help="a label or 'all'")
    p.add_argument("--lam", "--lambda", dest="lam", default="0",
                   help="reduction parameter, Z only")
    p.add_argument("--out")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="run verification checks on a point")
    p.add_argument("--point", required=True)
    p.add_argument("--checks", default=None,
                   help="'all' or a comma separated subset of: %s"
                        % ",".join(CHECK_NAMES))
    p.add_argument("--lam", "--lambda", dest="lam", default=None,
                   help="comma separated reduction parameters")
    p.add_argument("--depth", type=integer, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("positions", help="print the equation layouts")
    p.add_argument("--n", type=integer, required=True)
    p.add_argument("--equation", choices=("gon", "simplex"), default=None)
    p.add_argument("--coloring", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_positions)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, SamplingError, ConstructionError, ReductionError,
            StructuralError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
