"""Command-line surface for the coincidence calculator.

One table, COMMANDS, holds the subcommands and their options; one parser,
_parse_strict, reads every argv by it or refuses it with a usage error, and
-h or --help prints text rendered from it.  Elements are entered as integer
coordinate vectors relative to the database generators and echoed back on
stderr with the generator labels.  Answers go to stdout; diagnostics and
errors go to stderr.  main loads the database and renders the answer that
classify, self, sphere or spaceform returns; db-show prints its listing,
and db-validate checks the text itself.  Each answer or verdict becomes one
document (_document): --output machine prints it as JSON with the database
version, and the text form (_text) reads the document alone.  Exit codes:
0 success, 1 output that could not be written, 2 usage error, 3
insufficient database data, 4 database validation failure or database
data that contradicts the classification, 130 interrupted.

console_main, the entry of the nielsencalc script and of python -m
nielsencalc, ends the process with os._exit once main has returned and
stdout and stderr are flushed, so a call skips interpreter teardown.
Ctrl-C ends it silently with exit 130, a broken pipe with exit 1, other
OSErrors with exit 1 and a line on stderr.  main only returns the code."""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

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
    _cut,
    _digits,
)
from .selfcoincidence import LoosenessVerdict, self_verdict

__all__ = ["main", "console_main", "render"]


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# rendering

def render(answer, mode: str, db_version: str | None) -> str:
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
    if not _digits(text.strip().removeprefix("-")):
        raise ValueError(text)
    return int(text)


def _element(db: Database, space: SpaceId, m: int, text: str,
             what: str) -> GroupElement:
    group = db.require_group(space, m)
    try:
        parts = text.split(",") if text.strip() else []
        coords = tuple(map(_int, parts))
    except ValueError as exc:
        raise UsageError(f"{what}: expected comma-separated integers, "
                         f"got {_cut(text)!r}") from exc
    try:
        return group.element(coords)
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from exc


def _echo(db: Database, space: SpaceId, m: int, name: str, x: GroupElement):
    labels = db.groups[(space, m)].labels
    desc = " + ".join(f"{c}*{lab}" for c, lab in zip(x.coords, labels)) or "0"
    print(f"{name} = ({','.join(map(str, x.coords))}) in pi_{m}({space}): {desc}",
          file=sys.stderr)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_classify(db: Database, args) -> CoincidenceAnswer:
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
    return classify_projective(db, classes[0], classes[1])


def _cmd_self(db: Database, args) -> LoosenessVerdict:
    classifier._check_slice_key(args.K, args.m, args.nprime)
    lift_sphere = SpaceId.lift_sphere(args.K, args.nprime)
    lift = _element(db, lift_sphere, args.m, args.f, "f")
    _echo(db, lift_sphere, args.m, "f", lift)
    return self_verdict(db, args.K, args.m, args.nprime, lift)


def _cmd_sphere(db: Database, args) -> CoincidenceAnswer:
    space, _ = classifier._sphere_key(db, args.m, args.n)
    c1 = _element(db, space, args.m, args.f1, "f1")
    c2 = _element(db, space, args.m, args.f2, "f2")
    _echo(db, space, args.m, "f1", c1)
    _echo(db, space, args.m, "f2", c2)
    return classify_sphere_target(db, args.m, args.n, c1, c2)


def _cmd_spaceform(db: Database, args) -> CoincidenceAnswer:
    homotopic = {"true": True, "false": False}[args.homotopic]
    return classify_space_form(SpaceFormQuery(args.order, args.n, homotopic))


def _cmd_db_validate(text: str, origin: str) -> int:
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


def _cmd_db_show(db: Database, args) -> None:
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


# ---------------------------------------------------------------------------
# argument parsing

# command -> (handler, help, options); an option is (flag, spec), a spec
# holds any of help, choices, default, required, type and metavar, and
# every command also takes _COMMON
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


_RULES = ("Write each option in full and once, as --name VALUE or --name=VALUE.\n"
          "Join a VALUE that starts with '-' to its name, as --f1=-1,0, unless it\n"
          "is a negative integer.")


def _help(command: str | None) -> str:
    """The text of -h or --help: of one command, or of nielsencalc for None."""
    head = ["COMMAND", _RULES, "commands (COMMAND --help lists the options of one):"]
    rows = [(name, text) for name, (_, text, _) in COMMANDS.items()]
    if command is not None:
        head, rows = [command, COMMANDS[command][1], "options:"], []
        for flag, spec in _COMMON + COMMANDS[command][2]:
            value = spec.get("metavar", flag[2:].upper())
            if "choices" in spec:
                value = "{" + ",".join(spec["choices"]) + "}"
            notes = (spec.get("help"), "(required)" if spec.get("required") else None)
            rows.append((f"{flag} {value}", " ".join(filter(None, notes))))
    width = max(len(name) for name, _ in rows)
    lines = [f"  {name:{width}}  {text}".rstrip() for name, text in rows]
    return "\n".join([f"usage: nielsencalc {head[0]} [--OPTION VALUE]...", "",
                      head[1], "", head[2], *lines])


def _parse_strict(argv) -> SimpleNamespace | str:
    """The arguments of argv, read by COMMANDS and _RULES, or the help text
    when -h or --help stands where an option may, before any fault.  Raises
    UsageError, with one message, on any other argv."""
    command = argv[0] if argv else None
    if command not in COMMANDS:
        if command in ("-h", "--help"):
            return _help(None)
        got = f", got {_cut(command)!r}" if argv else ""
        raise UsageError(f"expected a command ({', '.join(COMMANDS)}){got}")
    func, _, options = COMMANDS[command]
    specs = dict(_COMMON + options)
    values = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in specs:
            if token in ("-h", "--help"):
                return _help(command)
            raise UsageError(f"unknown option {_cut(flag)!r} for {command}")
        if flag in values:
            raise UsageError(f"argument {flag}: given more than once")
        if not eq:
            value = next(tokens, "-")       # '-', which is no value, at the end
        # '--' is no value, and a separate one starts with '-' only as an integer
        if value.startswith("-") and (value == "--" if eq else not _digits(value[1:])):
            raise UsageError(f"argument {flag}: expected one argument")
        spec = specs[flag]
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            raise UsageError(f"argument {flag}: invalid int value: "
                             f"{_cut(value)!r}") from None
        if "choices" in spec and value not in spec["choices"]:
            raise UsageError(f"argument {flag}: invalid choice: {_cut(value)!r} "
                             f"(choose from {', '.join(spec['choices'])})")
        values[flag] = value
    args = SimpleNamespace(command=command, func=func)
    for flag, spec in specs.items():
        if flag not in values and spec.get("required"):
            missing = [f for f in specs if f not in values and specs[f].get("required")]
            raise UsageError(f"missing required options: {', '.join(missing)}")
        setattr(args, flag[2:].replace("-", "_"),
                values.get(flag, spec.get("default")))
    return args


def main(argv=None) -> int:
    try:
        args = _parse_strict(sys.argv[1:] if argv is None else list(argv))
        if isinstance(args, str):       # the text of -h or --help
            print(args)
            return 0
        path = args.db or os.environ.get("NIELSEN_DB")  # else the shipped one
        if path:
            text, origin = homotopy_db.read_db_text(path), str(path)
        else:
            text, origin = homotopy_db.default_db_text(), "<default>"
        if args.func is _cmd_db_validate:
            return _cmd_db_validate(text, origin)
        db = homotopy_db.loads(text, origin)
        answer = args.func(db, args)
        if answer is not None:      # None from db-show, which printed itself
            print(render(answer, args.output, db.version))
        return 0
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
