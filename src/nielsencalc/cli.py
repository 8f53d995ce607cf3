"""Command-line surface for the coincidence calculator.

Subcommands: classify, self, sphere, spaceform, db-validate, db-show.
Elements are entered as integer coordinate vectors relative to the
database generators and echoed back (to the diagnostic stream) with the
generator labels.  Answers go to stdout; diagnostics and errors go to
stderr.  Each answer or verdict becomes one document (_document):
--output machine prints it as JSON with the database version, and the
text form (_text) reads the document alone.  Exit codes: 0 success,
1 output that could not be written, 2 usage error, 3 insufficient
database data, 4 database validation failure or database data that
contradicts the classification, 130 interrupted.

console_main, the entry of the nielsencalc script and of python -m
nielsencalc, ends the process with os._exit once main has returned and
stdout and stderr are flushed, so a call skips interpreter teardown.
Ctrl-C ends it silently with exit 130, a broken pipe with exit 1, other
OSErrors with exit 1 and a line on stderr.  main only returns the code."""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import Optional

from . import classifier, homotopy_db
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

def render(answer, mode: str, db_version: Optional[str]) -> str:
    """Render a coincidence answer or a looseness verdict: its document
    as JSON with the database version, or as text."""
    doc = _document(answer)
    if mode == "machine":
        import json     # here, so that text-mode calls do not load it
        return json.dumps({**doc, "db_version": db_version}, sort_keys=True)
    return _text(doc)


_VERDICT_KEYS = ("K", "m", "nprime", "small_deformation", "loose",
                 "coincidence_producing", "omega_sharp_zero",
                 "lifted_pair_loose", "gap_witness")


def _document(answer) -> dict:
    """The one document of an answer, holding only the values that JSON
    holds: an infinite count is "inf" and an undetermined value None."""
    if isinstance(answer, LoosenessVerdict):
        return {key: getattr(answer, key) for key in _VERDICT_KEYS}
    if not isinstance(answer, CoincidenceAnswer):
        raise TypeError(f"cannot render {type(answer).__name__}")
    doc = {"case_id": answer.case_id, "condition": answer.condition}
    for key in ("nielsen", "mcc", "mc"):
        count = getattr(answer, key)
        doc[key] = "inf" if count == INF else count
    doc["flags"] = {"omega_sharp_zero": answer.omega_sharp_zero,
                    "loose": answer.loose,
                    "loose_small": answer.loose_small}
    doc["notes"] = list(answer.notes)
    return doc


def _value(x) -> str:
    if x is None:
        return "unknown"
    if x is True:
        return "yes"
    if x is False:
        return "no"
    return str(x)


def _text(doc: dict) -> str:
    """The text form of a document, read from its keys alone."""
    if "case_id" not in doc:
        if doc["loose"]:
            lines = ["(f,f): loose by small deformation"]
        else:
            lines = ["(f,f): NOT loose; coincidence producing"]
        lines.append("omega#=0" if doc["omega_sharp_zero"] else "omega# nonzero")
        if not doc["lifted_pair_loose"]:
            lines.append("lifted pair (f~,f~): NOT loose")
        elif doc["small_deformation"]:
            lines.append("lifted pair (f~,f~): loose by small deformation")
        else:
            lines.append("lifted pair (f~,f~): loose; NOT by small deformation")
        if doc["gap_witness"]:
            lines.append("OMEGA#-BLIND: the invariant vanishes but the pair "
                         "is not loose")
        return "\n".join(lines)
    nielsen, mcc, mc = (_value(doc[key]) for key in ("nielsen", "mcc", "mc"))
    if str(doc["case_id"]).startswith("spaceform-"):
        if doc["nielsen"] is not None and doc["nielsen"] == doc["mcc"]:
            lines = [f"N#=MCC={nielsen}"]
        else:
            lines = [f"N#={nielsen} MCC={mcc}"]
        if doc["mc"] is not None:
            lines.append(f"MC={mc}")
    else:
        flags = doc["flags"]
        lines = [f"case {doc['case_id']}: {doc['condition']} | "
                 f"{nielsen} {mcc} {mc}",
                 f"N#={nielsen} MCC={mcc} MC={mc}",
                 f"omega#=0: {_value(flags['omega_sharp_zero'])} | "
                 f"loose: {_value(flags['loose'])} | "
                 f"loose by small deformation: {_value(flags['loose_small'])}"]
    lines.extend(f"note: {note}" for note in doc["notes"])
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# helpers

def _int(text: str) -> int:     # as in a database: an optional '-', ASCII digits
    if not homotopy_db._digits(text.strip().removeprefix("-")):
        raise ValueError(text)
    return int(text)


_int.__name__ = "int"       # the name argparse's message gives the type


def _parse_coords(text: str, what: str) -> tuple[int, ...]:
    try:
        parts = text.split(",") if text.strip() != "" else []
        return tuple(map(_int, parts))
    except ValueError as exc:
        raise UsageError(f"{what}: expected comma-separated integers, "
                         f"got {homotopy_db._cut(text)!r}") from exc


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


def _db_text(args) -> tuple[str, str]:
    """Text and origin of the database: --db, else $NIELSEN_DB, else shipped."""
    path = args.db or os.environ.get("NIELSEN_DB")
    if path:
        return homotopy_db.read_db_text(path), str(path)
    return homotopy_db.default_db_text(), "<default>"


def _load_db(args) -> Database:
    return homotopy_db.loads(*_db_text(args))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classify(args) -> int:
    db = _load_db(args)
    classifier._check_slice_key(args.K, args.m, args.nprime)
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
    classifier._check_slice_key(args.K, args.m, args.nprime)
    lift_sphere = SpaceId.lift_sphere(args.K, args.nprime)
    lift = _element(db, lift_sphere, args.m, args.f, "f")
    _echo(db, lift_sphere, args.m, "f", lift)
    verdict = self_verdict(db, args.K, args.m, args.nprime, lift)
    print(render(verdict, args.output, db.version))
    return 0


def _cmd_sphere(args) -> int:
    db = _load_db(args)
    space, _ = classifier._sphere_key(db, args.m, args.n)
    c1 = _element(db, space, args.m, args.f1, "f1")
    c2 = _element(db, space, args.m, args.f2, "f2")
    _echo(db, space, args.m, "f1", c1)
    _echo(db, space, args.m, "f2", c2)
    answer = classify_sphere_target(db, args.m, args.n, c1, c2)
    print(render(answer, args.output, db.version))
    return 0


def _cmd_spaceform(args) -> int:
    db = _load_db(args)
    homotopic = {"true": True, "false": False}[args.homotopic]
    answer = classify_space_form(SpaceFormQuery(args.order, args.n, homotopic))
    print(render(answer, args.output, db.version))
    return 0


def _cmd_db_validate(args) -> int:
    text, origin = _db_text(args)
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

# command -> (handler, help, options); an option is (flag, keywords of
# ArgumentParser.add_argument), and every command also takes _COMMON
_COMMON = (
    ("--db", {"help": "database file (default: $NIELSEN_DB or the shipped "
                      "database)"}),
    ("--output", {"choices": ("text", "machine"), "default": "text",
                  "help": "answer format"}))
_K = ("--K", {"required": True, "choices": ("R", "C", "H")})
_INT = {"type": _int, "required": True}
_M, _NPRIME = ("--m", _INT), ("--nprime", _INT)
_COORDS = {"required": True, "metavar": "COORDS"}
COMMANDS = {
    "classify": (_cmd_classify, "seven-case classification for S^m -> KP(n')", (
        _K, _M, _NPRIME,
        ("--f1", {**_COORDS, "help": "lift coordinates of the first class"}),
        ("--f2", _COORDS),
        ("--residue1", {"metavar": "COORDS"}),
        ("--residue2", {"metavar": "COORDS"}))),
    "self": (_cmd_self, "looseness verdict for a self-pair (f,f)", (
        _K, _M, _NPRIME, ("--f", _COORDS))),
    "sphere": (_cmd_sphere, "coincidence numbers for S^m -> S^n", (
        _M, ("--n", _INT), ("--f1", _COORDS), ("--f2", _COORDS))),
    "spaceform": (_cmd_spaceform,
                  "counts for maps into a spherical space form S^n/G", (
        ("--order", {**_INT, "help": "order of the deck group G"}),
        ("--n", _INT),
        ("--homotopic", {"choices": ("true", "false"), "required": True}))),
    "db-validate": (_cmd_db_validate, "validate a database file", ()),
    "db-show": (_cmd_db_show, "list the contents of a database", ()),
}


def _parse_strict(argv) -> Optional[SimpleNamespace]:
    """What ``build_parser().parse_args(argv)`` returns, for an argv made of
    a command and exact option names, each as --name=value or as --name
    followed by a value that does not start with '-'.  None for any other
    argv, which is left to argparse and its messages."""
    if not argv or argv[0] not in COMMANDS:
        return None
    func, _, options = COMMANDS[argv[0]]
    specs = dict(_COMMON + options)
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in specs:
            return None
        if not eq:
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
        elif value == "--":     # argparse drops it and stores []
            return None
        spec = specs[flag]
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in spec and value not in spec["choices"]:
            return None
        values[flag] = value
    args = SimpleNamespace(command=argv[0], func=func)
    for flag, spec in specs.items():
        if flag not in values and spec.get("required"):
            return None
        setattr(args, flag[2:].replace("-", "_"),
                values.get(flag, spec.get("default")))
    return args


def build_parser() -> "argparse.ArgumentParser":
    import argparse     # here, so that a well-formed call does not load it

    class Parser(argparse.ArgumentParser):      # its subparsers inherit it
        def error(self, message):
            super().error(" ".join(map(homotopy_db._cut, message.split(" "))))

    parser = Parser(
        prog="nielsencalc",
        description="Exact Nielsen and minimum coincidence numbers for maps "
                    "from spheres into projective spaces, spheres, and "
                    "spherical space forms.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for flag, spec in _COMMON + options:
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_strict(argv)
    if args is None:
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
            bad = [dest for dest, value in vars(args).items() if value == []]
            if bad:     # argparse drops the value of --name=-- and stores []
                flag = "--" + bad[0].replace("_", "-")
                parser.error(f"argument {flag}: expected one argument")
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
    # the process ends here: module teardown, the last collection and
    # freeing the heap would only delay the exit
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:      # None when the fd was closed at start
                stream.flush()
    except KeyboardInterrupt:   # Ctrl-C: 128 + SIGINT, with no traceback
        os._exit(130)
    except BrokenPipeError:     # the reader left; what is unwritten is lost
        os._exit(1)
    except OSError as exc:      # e.g. a full disk: one line, no traceback
        try:
            os.write(2, f"error: {exc}\n".encode(errors="replace"))
        finally:                # also when stderr cannot be written
            os._exit(1)
    os._exit(code)


if __name__ == "__main__":
    console_main()
