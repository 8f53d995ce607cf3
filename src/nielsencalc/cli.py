"""Command-line surface for the coincidence calculator.

Subcommands: classify, self, sphere, spaceform, db-validate, db-show.
Elements are entered as integer coordinate vectors relative to the
database generators and echoed back (to the diagnostic stream) with the
generator labels.  Answers go to stdout; diagnostics and errors go to
stderr.  Exit codes: 0 success, 2 usage error, 3 insufficient database
data, 4 database validation failure or database data that contradicts
the classification.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import homotopy_db
from .classifier import (
    INF,
    CoincidenceAnswer,
    InconsistentDataError,
    ProjectiveClass,
    SpaceFormQuery,
    classify_projective,
    classify_space_form,
    classify_sphere_target,
)
from .fgab import GroupElement
from .homotopy_db import (
    FIELD_DIMS,
    Database,
    DatabaseError,
    InsufficientDataError,
    SpaceId,
)
from .selfcoincidence import LoosenessVerdict, self_verdict

__all__ = ["main", "console_main", "render"]


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# rendering

def _json_count(x):
    return "inf" if x == INF else x


def _fmt_count(x) -> str:
    return "unknown" if x is None else str(_json_count(x))


def _fmt_flag(x: Optional[bool]) -> str:
    if x is None:
        return "unknown"
    return "yes" if x else "no"


def render(answer, mode: str, db_version: str = "") -> str:
    """Render a coincidence answer or a looseness verdict."""
    if isinstance(answer, CoincidenceAnswer):
        doc, text = _answer_doc, _answer_text
    elif isinstance(answer, LoosenessVerdict):
        doc, text = _verdict_doc, _verdict_text
    else:
        raise TypeError(f"cannot render {type(answer).__name__}")
    if mode == "machine":
        import json     # here, so that text-mode calls do not load it
        return json.dumps({**doc(answer), "db_version": db_version},
                          sort_keys=True)
    return text(answer)


def _answer_doc(ans: CoincidenceAnswer) -> dict:
    return {
        "case_id": ans.case_id,
        "condition": ans.condition,
        "nielsen": _json_count(ans.nielsen),
        "mcc": _json_count(ans.mcc),
        "mc": _json_count(ans.mc),
        "flags": {
            "omega_sharp_zero": ans.omega_sharp_zero,
            "loose": ans.loose,
            "loose_small": ans.loose_small,
        },
        "notes": list(ans.notes),
    }


def _answer_text(ans: CoincidenceAnswer) -> str:
    row = " ".join(_fmt_count(x) for x in (ans.nielsen, ans.mcc, ans.mc))
    lines = [f"case {ans.case_id}: {ans.condition} | {row}",
             f"N#={_fmt_count(ans.nielsen)} MCC={_fmt_count(ans.mcc)} "
             f"MC={_fmt_count(ans.mc)}",
             f"omega#=0: {_fmt_flag(ans.omega_sharp_zero)} | "
             f"loose: {_fmt_flag(ans.loose)} | "
             f"loose by small deformation: {_fmt_flag(ans.loose_small)}"]
    lines.extend(f"note: {note}" for note in ans.notes)
    return "\n".join(lines)


def _verdict_doc(v: LoosenessVerdict) -> dict:
    return {key: getattr(v, key) for key in (
        "K", "m", "nprime", "small_deformation", "loose", "coincidence_producing",
        "omega_sharp_zero", "lifted_pair_loose", "gap_witness")}


def _verdict_text(v: LoosenessVerdict) -> str:
    if v.loose:
        pair_line = "(f,f): loose by small deformation"
    else:
        pair_line = "(f,f): NOT loose; coincidence producing"
    omega_line = "omega#=0" if v.omega_sharp_zero else "omega# nonzero"
    if v.lifted_pair_loose and v.small_deformation:
        lifted_line = "lifted pair (f~,f~): loose by small deformation"
    elif v.lifted_pair_loose:
        lifted_line = "lifted pair (f~,f~): loose; NOT by small deformation"
    else:
        lifted_line = "lifted pair (f~,f~): NOT loose"
    lines = [pair_line, omega_line, lifted_line]
    if v.gap_witness:
        lines.append("OMEGA#-BLIND: the invariant vanishes but the pair "
                     "is not loose")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# helpers

def _parse_coords(text: str, what: str) -> tuple[int, ...]:
    try:
        parts = text.split(",") if text.strip() != "" else []
        return tuple(int(p.strip()) for p in parts)
    except ValueError as exc:
        raise UsageError(f"{what}: expected comma-separated integers, "
                         f"got {text!r}") from exc


def _element(db: Database, space: SpaceId, m: int, text: str,
             what: str) -> GroupElement:
    group = db.require_group(space, m)
    coords = _parse_coords(text, what)
    try:
        return group.element(coords)
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _echo(db: Database, space: SpaceId, m: int, name: str, x: GroupElement):
    labels = db.groups[(space, m)].labels
    desc = " + ".join(f"{c}*{lab}" for c, lab in zip(x.coords, labels)) or "0"
    print(f"{name} = ({','.join(map(str, x.coords))}) in pi_{m}({space}): {desc}",
          file=sys.stderr)


def _load_db(args) -> Database:
    path = args.db or os.environ.get("NIELSEN_DB")
    if path:
        return homotopy_db.load(path)
    return homotopy_db.load_default()


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classify(args) -> int:
    db = _load_db(args)
    lift_sphere = SpaceId.lift_sphere(args.K, args.nprime)
    classes = []
    for name, lift_text, res_text in (("f1", args.f1, args.residue1),
                                      ("f2", args.f2, args.residue2)):
        lift = _element(db, lift_sphere, args.m, lift_text, name)
        _echo(db, lift_sphere, args.m, name, lift)
        residue = None
        if res_text is not None:
            if args.K == "R":
                raise UsageError("K = R has a trivial residue group; drop "
                                 f"--residue for {name}")
            residue = _element(db, SpaceId.sphere(FIELD_DIMS[args.K] - 1),
                               args.m - 1, res_text, f"residue of {name}")
        classes.append(ProjectiveClass(args.K, args.m, args.nprime, lift, residue))
    answer = classify_projective(db, classes[0], classes[1])
    print(render(answer, args.output, db.version))
    return 0


def _cmd_self(args) -> int:
    db = _load_db(args)
    lift_sphere = SpaceId.lift_sphere(args.K, args.nprime)
    lift = _element(db, lift_sphere, args.m, args.f, "f")
    _echo(db, lift_sphere, args.m, "f", lift)
    verdict = self_verdict(db, args.K, args.m, args.nprime, lift)
    print(render(verdict, args.output, db.version))
    return 0


def _cmd_sphere(args) -> int:
    db = _load_db(args)
    space = SpaceId.sphere(args.n)
    c1 = _element(db, space, args.m, args.f1, "f1")
    c2 = _element(db, space, args.m, args.f2, "f2")
    _echo(db, space, args.m, "f1", c1)
    _echo(db, space, args.m, "f2", c2)
    related = {"auto": None, "yes": True, "no": False}[args.antipodal]
    answer = classify_sphere_target(db, args.m, args.n, c1, c2, related)
    print(render(answer, args.output, db.version))
    return 0


def _cmd_spaceform(args) -> int:
    homotopic = {"true": True, "false": False}[args.homotopic]
    query = SpaceFormQuery(args.order, args.n, homotopic,
                           domain_case=args.domain_case)
    answer = classify_space_form(query)
    if args.output == "machine":
        db = _load_db(args)
        print(render(answer, "machine", db.version))
        return 0
    if answer.nielsen is not None and answer.nielsen == answer.mcc:
        print(f"N#=MCC={answer.nielsen}")
    else:
        print(f"N#={_fmt_count(answer.nielsen)} MCC={_fmt_count(answer.mcc)}")
    if answer.mc is not None:
        print(f"MC={_fmt_count(answer.mc)}")
    for note in answer.notes:
        print(f"note: {note}")
    return 0


def _cmd_db_validate(args) -> int:
    path = args.db or os.environ.get("NIELSEN_DB")
    origin = str(path) if path else "<default>"
    text = (homotopy_db.read_db_text(path) if path
            else homotopy_db.default_db_text())
    db, violations = homotopy_db.check(text, origin)
    if violations:
        for v in violations:
            print(str(v), file=sys.stderr)
        print(f"INVALID: {len(violations)} violation(s) in {origin}",
              file=sys.stderr)
        return 4
    print(f"OK: {origin} is valid ({db.version}, {len(db.groups)} groups, "
          f"{len(db.homs)} homomorphisms, {len(db.assertions)} assertions)")
    return 0


def _cmd_db_show(args) -> int:
    db = _load_db(args)
    print(f"nielsendb {db.version}")
    print(f"{len(db.groups)} groups, {len(db.homs)} homomorphisms, "
          f"{len(db.assertions)} assertions")
    for entry in sorted(db.groups.values(), key=lambda e: (str(e.space), e.m)):
        labels = ",".join(entry.labels) if entry.labels else "-"
        print(f"  group {entry}  gens {labels}")
    for entry in sorted(db.homs, key=lambda e: str(e.key)):
        print(f"  hom {entry}")
    for assertion in sorted(db.assertions, key=str):
        print(f"  {assertion}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nielsencalc",
        description="Exact Nielsen and minimum coincidence numbers for maps "
                    "from spheres into projective spaces, spheres, and "
                    "spherical space forms.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--db", default=None,
                        help="database file (default: $NIELSEN_DB or the "
                             "shipped database)")
    common.add_argument("--output", choices=("text", "machine"),
                        default="text", help="answer format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="seven-case classification for S^m -> KP(n')")
    p.add_argument("--K", required=True, choices=("R", "C", "H"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--nprime", type=int, required=True)
    p.add_argument("--f1", required=True, metavar="COORDS",
                   help="lift coordinates of the first class")
    p.add_argument("--f2", required=True, metavar="COORDS")
    p.add_argument("--residue1", metavar="COORDS", default=None)
    p.add_argument("--residue2", metavar="COORDS", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("self", parents=[common],
                       help="looseness verdict for a self-pair (f,f)")
    p.add_argument("--K", required=True, choices=("R", "C", "H"))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--nprime", type=int, required=True)
    p.add_argument("--f", required=True, metavar="COORDS")
    p.set_defaults(func=_cmd_self)

    p = sub.add_parser("sphere", parents=[common],
                       help="coincidence numbers for S^m -> S^n")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--f1", required=True, metavar="COORDS")
    p.add_argument("--f2", required=True, metavar="COORDS")
    p.add_argument("--antipodal", choices=("auto", "yes", "no"),
                   default="auto",
                   help="whether f1 ~ A∘f2 (auto: decide from the database)")
    p.set_defaults(func=_cmd_sphere)

    p = sub.add_parser("spaceform", parents=[common],
                       help="counts for maps into a spherical space form S^n/G")
    p.add_argument("--order", type=int, required=True,
                   help="order of the deck group G")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--homotopic", choices=("true", "false"), required=True)
    p.add_argument("--domain-case", dest="domain_case",
                   choices=("sphere", "simply-connected"), default="sphere")
    p.set_defaults(func=_cmd_spaceform)

    p = sub.add_parser("db-validate", parents=[common],
                       help="validate a database file")
    p.set_defaults(func=_cmd_db_validate)

    p = sub.add_parser("db-show", parents=[common],
                       help="list the contents of a database")
    p.set_defaults(func=_cmd_db_show)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return 3
    except DatabaseError as exc:
        for violation in exc.violations:
            print(str(violation), file=sys.stderr)
        print(f"database rejected: {exc.origin or 'input'}", file=sys.stderr)
        return 4
    except InconsistentDataError as exc:
        print(f"database inconsistent: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:  # ClassificationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
