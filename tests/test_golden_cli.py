"""Golden transcript of the command line: stdout, stderr and exit code.

Every README command and every shape of answer runs in both output
modes, next to the error paths for exit codes 2, 3 and 4.
``golden/cli_transcript.json`` holds the expected results.  Adding an
argv to a list below and running

    PYTHONPATH=src python tests/test_golden_cli.py

appends its result to the file.  The recorder never rewrites an entry:
when an existing entry's result differs, it prints that argv, writes
nothing and exits 1.  An intended change of behaviour therefore means
deleting the entry from the file by hand and recording it again.
"""

import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from nielsencalc import homotopy_db
from nielsencalc.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.json"

README_COMMANDS = [
    ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "1", "--f2", "1"],
    ["self", "--K", "R", "--m", "11", "--nprime", "6", "--f", "1"],
    ["sphere", "--m", "11", "--n", "6", "--f1", "1", "--f2", "0"],
    ["sphere", "--m", "1", "--n", "1", "--f1", "3", "--f2", "1"],
    ["spaceform", "--order", "5", "--n", "3", "--homotopic", "false"],
    ["db-validate"],
    ["db-show"],
]

# every shape of answer: the seven table cases and the residue note,
# the three self-pair verdicts, the loose sphere answer and the three
# space-form answers that no README command shows
ANSWER_COMMANDS = [
    ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "2", "--f2", "2"],
    ["classify", "--K", "R", "--m", "6", "--nprime", "6", "--f1", "1", "--f2", "2"],
    ["classify", "--K", "R", "--m", "6", "--nprime", "6", "--f1", "1", "--f2=-1"],
    ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "1", "--f2", "0"],
    ["classify", "--K", "C", "--m", "5", "--nprime", "2", "--f1", "1", "--f2", "1"],
    ["classify", "--K", "C", "--m", "5", "--nprime", "2", "--f1", "1", "--f2", "0"],
    ["classify", "--K", "H", "--m", "11", "--nprime", "2", "--f1", "1", "--f2", "1",
     "--residue1", "7"],
    ["self", "--K", "R", "--m", "11", "--nprime", "6", "--f", "2"],
    ["self", "--K", "C", "--m", "5", "--nprime", "2", "--f", "1"],
    ["sphere", "--m", "11", "--n", "6", "--f1", "1", "--f2", "1"],
    ["spaceform", "--order", "5", "--n", "3", "--homotopic", "true"],
    ["spaceform", "--order", "2", "--n", "2", "--homotopic", "false"],
    ["spaceform", "--order", "2", "--n", "2", "--homotopic", "true"],
]

ERROR_COMMANDS = [
    # exit 2: bad coordinates, and a residue given with K = R
    ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "1,2", "--f2", "1"],
    ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "x", "--f2", "1"],
    ["self", "--K", "R", "--m", "11", "--nprime", "6", "--f", "y"],
    ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "1", "--f2", "1",
     "--residue1", "0"],
    # exit 3: a slice that is not in the database
    ["classify", "--K", "R", "--m", "13", "--nprime", "6", "--f1", "1", "--f2", "1"],
    ["self", "--K", "C", "--m", "9", "--nprime", "3", "--f", "1"],
    # exit 4: a corrupted and a missing database file
    ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "1", "--f2", "1",
     "--db", "corrupt.nielsendb"],
    ["db-validate", "--db", "corrupt.nielsendb"],
    ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "1", "--f2", "1",
     "--db", "missing.nielsendb"],
    ["db-validate", "--db", "missing.nielsendb"],
    ["spaceform", "--order", "5", "--n", "3", "--homotopic", "false",
     "--db", "missing.nielsendb"],
    ["spaceform", "--order", "5", "--n", "3", "--homotopic", "false",
     "--db", "missing.nielsendb", "--output", "machine"],
    # a database that contradicts the seven-case table
    ["classify", "--K", "R", "--m", "6", "--nprime", "6", "--f1", "1", "--f2", "1",
     "--db", "inconsistent.nielsendb"],
    # parse errors: one malformed line of each kind, and a bad version header
    ["db-validate", "--db", "malformed.nielsendb"],
    ["classify", "--K", "R", "--m", "3", "--nprime", "2", "--f1", "1", "--f2", "1",
     "--db", "malformed.nielsendb"],
    ["db-validate", "--db", "badversion.nielsendb"],
    # the order of effects: f1 is echoed before f2 is parsed, sphere parses
    # both classes before it echoes either, and the database is loaded
    # before the slice is checked
    ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "1", "--f2", "x"],
    ["sphere", "--m", "11", "--n", "6", "--f1", "1", "--f2", "x"],
    ["self", "--K", "R", "--m", "1", "--nprime", "6", "--f", "1",
     "--db", "missing.nielsendb"],
]

# help, a bad choice, an abbreviated option name, a negative value in its
# own token and an unknown option: the argv that main() leaves to argparse
ARGPARSE_COMMANDS = [
    ["--help"],
    ["classify", "--help"],
    ["classify", "--K", "X", "--m", "11", "--nprime", "6", "--f1", "1", "--f2", "1"],
    ["classify", "--K", "R", "--m", "11", "--nprim", "6", "--f1", "1", "--f2", "1"],
    ["classify", "--K", "R", "--m", "6", "--nprime", "6", "--f1", "1", "--f2", "-1"],
    ["sphere", "--m", "11", "--n", "6", "--f1", "1", "--f2", "0", "--antipodal", "yes"],
]

COMMANDS = ([argv + ["--output", mode] for argv in README_COMMANDS + ANSWER_COMMANDS
             for mode in ("text", "machine")] + ERROR_COMMANDS + ARGPARSE_COMMANDS)

# argparse wraps its help text to the terminal width
COLUMNS = "80"

# identity antipodal action on pi_6(S^6), where it must negate degree
INCONSISTENT_DB = (
    "nielsendb v1\n"
    'group S(6) 6 = 1 [] gens i src "degree"\n'
    'group S(5) 5 = 1 [] gens j src "degree"\n'
    'hom boundary_K S(6),6 -> S(5),5 matrix [[2]] src "chi"\n'
    'hom suspension_E S(5),5 -> S(6),6 matrix [[1]] src "iso"\n'
    'hom antipodal_A S(6),6 -> S(6),6 matrix [[1]] src "wrong on purpose"\n')

# a malformed group line, a malformed hom line, a bad matrix literal,
# ragged rows, an unparsable space and an unknown hom name
MALFORMED_DB = (
    "nielsendb v1\n"
    'group S(2) 3 = 1 [] gens eta src "Hopf"\n'
    'group S(3) 3 = 1 [] gens iota src "degree"\n'
    'group S(2) 2 = 1 [2 gens iota src "unclosed torsion"\n'
    'hom suspension_E S(2),3 S(3),4 matrix [[1]] src "no arrow"\n'
    'hom suspension_E S(2),3 -> S(3),4 matrix [[1,]] src "trailing comma"\n'
    'hom hopf_H S(3),3 -> S(2),3 matrix [[1,0],[1]] src "ragged"\n'
    'group Q(2) 4 = 1 [] gens a src "no such space"\n'
    'hom frobnicate S(2),3 -> S(3),3 matrix [[1]] src "no such map"\n')

BAD_VERSION_DB = ("# a version this reader does not know\n"
                  "nielsendb v1.1\n"
                  'group S(3) 3 = 1 [] gens iota src "degree"\n')


def _write_databases(directory: Path):
    corrupt = homotopy_db.default_db_text().replace(
        "group S(7) 10 = 0 [24] gens nu7",
        "group S(7) 10 = 0 [4,2] gens nu7,extra")
    (directory / "corrupt.nielsendb").write_text(corrupt, encoding="utf-8")
    (directory / "inconsistent.nielsendb").write_text(INCONSISTENT_DB,
                                                      encoding="utf-8")
    (directory / "malformed.nielsendb").write_text(MALFORMED_DB, encoding="utf-8")
    (directory / "badversion.nielsendb").write_text(BAD_VERSION_DB,
                                                    encoding="utf-8")


def _run(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def _expected():
    return {tuple(entry["argv"]): entry
            for entry in json.loads(GOLDEN.read_text(encoding="utf-8"))}


def test_golden_covers_every_command():
    assert set(_expected()) == {tuple(argv) for argv in COMMANDS}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_golden_cli(argv, tmp_path, monkeypatch):
    monkeypatch.delenv("NIELSEN_DB", raising=False)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    monkeypatch.chdir(tmp_path)
    _write_databases(tmp_path)
    assert _run(argv) == _expected()[tuple(argv)]


def _record() -> int:
    """Append the result of every argv in COMMANDS that the file lacks.
    Returns 1, writing nothing, when an entry already in the file no
    longer matches its result."""
    os.environ.pop("NIELSEN_DB", None)
    os.environ["COLUMNS"] = COLUMNS
    entries = json.loads(GOLDEN.read_text(encoding="utf-8"))
    expected = {tuple(entry["argv"]): entry for entry in entries}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _write_databases(Path(tmp))
        os.chdir(tmp)
        try:
            results = [_run(argv) for argv in COMMANDS]
        finally:
            os.chdir(here)
    changed = [result["argv"] for result in results
               if expected.get(tuple(result["argv"]), result) != result]
    for argv in changed:
        print("changed: " + " ".join(argv), file=sys.stderr)
    if changed:
        return 1
    entries += [result for result in results
                if tuple(result["argv"]) not in expected]
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(_record())
