import ast
import errno
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import BufferedWriter, BytesIO, StringIO, TextIOWrapper
from pathlib import Path

import pytest

import nielsencalc
import oracles
from nielsencalc import cli, homotopy_db
from nielsencalc.cli import main
from test_golden_cli import (
    ANSWER_COMMANDS,
    COMMANDS as GOLDEN_COMMANDS,
    ERROR_COMMANDS,
    GRAMMAR_COMMANDS,
    README_COMMANDS,
    _expected,
    _write_databases,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify

def test_classify_example_case2(capsys):
    code, out, err = run(capsys, "classify", "--K", "R", "--m", "11",
                         "--nprime", "6", "--f1", "1", "--f2", "1")
    assert code == 0
    assert "case 2" in out
    assert "N#=0 MCC=1 MC=1" in out
    assert "f1 = (1)" in err  # echo with labels on the diagnostic stream
    assert "halfHopf" in err


def test_classify_case1_row_text_mentions_kernel(capsys):
    code, out, _ = run(capsys, "classify", "--K", "R", "--m", "11",
                       "--nprime", "6", "--f1", "2", "--f2", "2")
    assert code == 0
    assert "case 1" in out
    assert "ker ∂_K" in out
    assert "0 0 0" in out  # the reproduced table row
    assert "N#=0 MCC=0 MC=0" in out


def test_classify_infinite_mc_text_and_machine(capsys):
    code, out, _ = run(capsys, "classify", "--K", "R", "--m", "11",
                       "--nprime", "6", "--f1", "1", "--f2", "0")
    assert code == 0
    assert "MC=inf" in out
    code, out, _ = run(capsys, "classify", "--K", "R", "--m", "11",
                       "--nprime", "6", "--f1", "1", "--f2", "0",
                       "--output", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["mc"] == "inf"
    assert doc["nielsen"] == 2 and doc["mcc"] == 2
    assert doc["db_version"] == "v1"


def test_classify_machine_output_round_trips(capsys):
    code, out, _ = run(capsys, "classify", "--K", "C", "--m", "5",
                       "--nprime", "2", "--f1", "1", "--f2", "1",
                       "--output", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["case_id"] == 6
    assert json.loads(json.dumps(doc)) == doc


def test_classify_with_residue_note(capsys):
    code, out, _ = run(capsys, "classify", "--K", "H", "--m", "11",
                       "--nprime", "2", "--f1", "1", "--f2", "1",
                       "--residue1", "7")
    assert code == 0
    assert "residue present, numbers unaffected" in out


# ---------------------------------------------------------------------------
# self

def test_self_verdict_example(capsys):
    code, out, _ = run(capsys, "self", "--K", "R", "--m", "11",
                       "--nprime", "6", "--f", "1")
    assert code == 0
    assert "loose; NOT by small deformation" in out
    assert "omega#=0" in out
    assert "OMEGA#-BLIND" in out


def test_self_verdict_small_deformation(capsys):
    code, out, _ = run(capsys, "self", "--K", "R", "--m", "11",
                       "--nprime", "6", "--f", "2")
    assert code == 0
    assert "loose by small deformation" in out
    assert "OMEGA#-BLIND" not in out


def test_self_machine_output(capsys):
    code, out, _ = run(capsys, "self", "--K", "R", "--m", "11",
                       "--nprime", "6", "--f", "1", "--output", "machine")
    assert code == 0
    doc = json.loads(out)
    assert doc["gap_witness"] is True
    assert doc["omega_sharp_zero"] is True
    assert doc["loose"] is False
    assert doc["db_version"] == "v1"


def test_real_residue_rejected_with_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--K", "R", "--m", "11",
                       "--nprime", "6", "--f1", "1", "--f2", "1",
                       "--residue1", "0")
    assert code == 2
    assert "trivial residue group" in err


# ---------------------------------------------------------------------------
# sphere / spaceform

def test_sphere_subcommand(capsys):
    code, out, _ = run(capsys, "sphere", "--m", "11", "--n", "6",
                       "--f1", "1", "--f2", "1")
    assert code == 0
    assert "N#=0 MCC=0 MC=0" in out
    code, out, _ = run(capsys, "sphere", "--m", "1", "--n", "1",
                       "--f1", "3", "--f2", "1")
    assert code == 0
    assert "N#=2 MCC=2 MC=2" in out


def test_sphere_takes_no_antipodal_override(capsys):
    # whether f1 ~ A∘f2 is read from the database alone
    code, out, err = run(capsys, "sphere", "--m", "11", "--n", "6",
                         "--f1", "1", "--f2", "0", "--antipodal", "yes")
    assert (code, out, err) == (
        2, "", "usage error: unknown option '--antipodal' for sphere\n")


def test_spaceform_subcommand(capsys):
    code, out, _ = run(capsys, "spaceform", "--order", "5", "--n", "3",
                       "--homotopic", "false")
    assert code == 0
    assert "N#=MCC=5" in out
    code, out, _ = run(capsys, "spaceform", "--order", "2", "--n", "2",
                       "--homotopic", "false")
    assert code == 0
    assert "N#=MCC=2" in out
    assert "contradicting" in out


def test_spaceform_rejects_a_missing_database_in_both_modes(capsys):
    argv = ("spaceform", "--order", "5", "--n", "3", "--homotopic", "false",
            "--db", "missing.nielsendb")
    text = run(capsys, *argv)
    machine = run(capsys, *argv, "--output", "machine")
    assert text == machine
    assert text[:2] == (4, "") and "database rejected" in text[2]


# ---------------------------------------------------------------------------
# one document per answer

@pytest.mark.parametrize("argv", ANSWER_COMMANDS, ids=" ".join)
def test_text_is_rendered_from_the_machine_document(capsys, argv):
    code, machine, _ = run(capsys, *argv, "--output", "machine")
    assert code == 0
    doc = json.loads(machine)
    del doc["db_version"]
    code, text, _ = run(capsys, *argv, "--output", "text")
    assert code == 0
    assert text == cli._text(doc) + "\n"


def test_a_key_added_to_the_document_reaches_the_machine_output(capsys,
                                                                 monkeypatch):
    document = cli._document
    monkeypatch.setattr(cli, "_document",
                        lambda answer: {**document(answer), "trace": ["entry"]})
    for argv in ANSWER_COMMANDS:
        code, out, _ = run(capsys, *argv, "--output", "machine")
        assert code == 0
        assert json.loads(out)["trace"] == ["entry"]


# ---------------------------------------------------------------------------
# db subcommands and db resolution

def test_db_validate_default(capsys):
    code, out, _ = run(capsys, "db-validate")
    assert code == 0
    assert out.startswith("OK:")


def test_db_validate_rejects_corrupt(tmp_path, capsys):
    bad = homotopy_db.default_db_text().replace(
        "group S(7) 10 = 0 [24] gens nu7",
        "group S(7) 10 = 0 [4,2] gens nu7,extra")
    path = tmp_path / "bad.nielsendb"
    path.write_text(bad, encoding="utf-8")
    code, out, err = run(capsys, "db-validate", "--db", str(path))
    assert code == 4
    assert "group_invariant" in err
    assert out == ""


def test_db_show_lists_entries(capsys):
    code, out, _ = run(capsys, "db-show")
    assert code == 0
    assert "nielsendb v1" in out
    assert "pi_11(S(6)) = Z" in out
    assert "boundary_K" in out


def test_env_var_database(tmp_path, capsys, monkeypatch):
    path = tmp_path / "custom.nielsendb"
    path.write_text(homotopy_db.default_db_text(), encoding="utf-8")
    monkeypatch.setenv("NIELSEN_DB", str(path))
    code, out, _ = run(capsys, "db-validate")
    assert code == 0
    assert str(path) in out


def test_missing_db_file_is_database_failure(capsys):
    code, _, err = run(capsys, "classify", "--K", "R", "--m", "11",
                       "--nprime", "6", "--f1", "1", "--f2", "1",
                       "--db", "/nonexistent/none.nielsendb")
    assert code == 4
    assert "database rejected" in err


@pytest.mark.parametrize("torsion", ["\u0665", "+2", "2_4"])
def test_db_validate_rejects_digits_other_than_ascii(tmp_path, capsys, torsion):
    lines = homotopy_db.default_db_text().splitlines(keepends=True)
    lineno = next(k for k, line in enumerate(lines, 1)
                  if line.startswith("group S(7) 10 = 0 [24]"))
    lines[lineno - 1] = lines[lineno - 1].replace("[24]", f"[{torsion}]")
    path = tmp_path / "digits.nielsendb"
    path.write_text("".join(lines), encoding="utf-8")
    code, out, err = run(capsys, "db-validate", "--db", str(path))
    assert (code, out) == (4, "")
    assert err.startswith(f"[parse] {path}: malformed group line (line {lineno})\n")


@pytest.mark.parametrize("command", ["db-validate", "db-show"])
def test_non_utf8_db_file_is_an_io_violation(tmp_path, capsys, command):
    path = tmp_path / "bad.nielsendb"
    path.write_bytes(b"nielsendb v1\n\xff\xfe group\n")
    code, out, err = run(capsys, command, "--db", str(path))
    assert code == 4
    assert out == ""
    assert err.startswith(f"[io] {path}: 'utf-8' codec can't decode")
    assert err.endswith(f"database rejected: {path}\n")


@pytest.mark.parametrize("command", ["db-validate", "db-show"])
def test_missing_db_file_is_an_io_violation(tmp_path, capsys, command):
    path = tmp_path / "none.nielsendb"
    code, out, err = run(capsys, command, "--db", str(path))
    assert (code, out) == (4, "")
    assert err == (f"[io] {path}: [Errno 2] No such file or directory: "
                   f"'{path}'\ndatabase rejected: {path}\n")


def test_a_db_file_over_the_size_cap_is_an_io_violation(tmp_path, capsys):
    cap = homotopy_db._MAX_DB_CHARS
    at_cap, over = tmp_path / "at_cap.nielsendb", tmp_path / "over.nielsendb"
    for path, size in ((at_cap, cap), (over, cap + 1)):
        path.touch()
        os.truncate(path, size)     # sparse: NUL characters, no disk used
    assert len(homotopy_db.read_db_text(at_cap)) == cap
    code, out, err = run(capsys, "db-show", "--db", str(over))
    assert (code, out) == (4, "")
    assert err == (f"[io] {over}: longer than {cap} characters\n"
                   f"database rejected: {over}\n")


def test_a_db_path_that_is_a_directory_is_an_io_violation(tmp_path):
    proc = _child("-m", "nielsencalc", "db-show", "--db", str(tmp_path))
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr.startswith(f"[io] {tmp_path}: ")
    assert proc.stderr.endswith(f"\ndatabase rejected: {tmp_path}\n")
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# exit codes

def test_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "classify", "--K", "X", "--m", "11",
                     "--nprime", "6", "--f1", "1", "--f2", "1")
    assert code == 2
    # wrong coordinate vector length
    code, _, err = run(capsys, "classify", "--K", "R", "--m", "11",
                       "--nprime", "6", "--f1", "1,2", "--f2", "1")
    assert code == 2
    assert "usage error" in err
    # bad coordinate syntax
    code, _, _ = run(capsys, "classify", "--K", "R", "--m", "11",
                     "--nprime", "6", "--f1", "x", "--f2", "1")
    assert code == 2
    # dimension constraint
    code, _, _ = run(capsys, "spaceform", "--order", "5", "--n", "2",
                     "--homotopic", "false")
    assert code == 2


@pytest.mark.parametrize("flag, value", [
    ("--f1", "1_0"), ("--f1", "+1"), ("--f2", "\u0661"), ("--f2", "1,_1"),
    ("--m", "1_1"), ("--m", "+11"), ("--nprime", "\u0666"), ("--m", "x")])
def test_an_integer_is_read_by_the_database_rule(flag, value):
    # int() also takes a sign, '_' and other scripts' digits; an integer
    # is an optional '-' and ASCII digits, as in a database file
    argv = ["classify", "--K", "R", "--m", "11", "--nprime", "6",
            "--f1", "1", "--f2", "0"]
    argv[argv.index(flag) + 1] = value
    code, out, err = _outcome(argv)
    assert (code, out) == (2, "")
    if flag in ("--f1", "--f2"):
        assert err.endswith(f"usage error: {flag[2:]}: expected "
                            f"comma-separated integers, got {value!r}\n")
    else:
        assert err == f"usage error: argument {flag}: invalid int value: {value!r}\n"


@pytest.mark.parametrize("argv,message", [
    (("classify", "--K", "R", "--m", "0", "--nprime", "6", "--f1", "1",
      "--f2", "1"), "the classification needs m >= 2 and n' >= 2"),
    (("classify", "--K", "R", "--m=-1", "--nprime", "6", "--f1", "1",
      "--f2", "1"), "the classification needs m >= 2 and n' >= 2"),
    (("self", "--K", "R", "--m", "1", "--nprime", "6", "--f", "1"),
     "the classification needs m >= 2 and n' >= 2"),
    (("sphere", "--m", "0", "--n", "6", "--f1", "1", "--f2", "0"),
     "m and n must be >= 1"),
])
def test_a_dimension_out_of_range_is_refused_before_any_group_is_read(
        capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


LONG_COORDS = "9" * 5000 + "x"


@pytest.mark.parametrize("what,f1,f2", [("f1", LONG_COORDS, "0"),
                                        ("f2", "1", LONG_COORDS)])
def test_a_usage_error_quotes_at_most_40_characters_of_an_argument(
        capsys, what, f1, f2):
    code, out, err = run(capsys, "sphere", "--m", "11", "--n", "6",
                         "--f1", f1, "--f2", f2)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: {what}: expected comma-separated")
    assert len(err) < 120 and "…[5001 characters]" in err


LONG_WORD = "9" * 5000


@pytest.mark.parametrize("argv,message", [
    ((LONG_WORD,), "expected a command (classify, self, sphere, spaceform, "
     "db-validate, db-show), got '" + "9" * 40 + "…[5000 characters]'"),
    (("sphere", "--m", "11", "--n", "6", "--f1", "1", "--f2", "0",
      "--" + LONG_WORD), "unknown option '--" + "9" * 38
     + "…[5002 characters]' for sphere"),
    (("sphere", "--m", LONG_WORD, "--n", "6", "--f1", "1", "--f2", "0"),
     "argument --m: invalid int value: '" + "9" * 40 + "…[5000 characters]'"),
    (("classify", "--K", "X" * 5000, "--m", "11", "--nprime", "6",
      "--f1", "1", "--f2", "1"),
     "argument --K: invalid choice: '" + "X" * 40
     + "…[5000 characters]' (choose from R, C, H)"),
])
def test_a_parse_error_cuts_long_arguments(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


def test_insufficient_data_exit_3(capsys):
    code, _, err = run(capsys, "classify", "--K", "R", "--m", "13",
                       "--nprime", "6", "--f1", "1", "--f2", "1")
    assert code == 3
    assert "insufficient data" in err
    assert "pi_13(S(6))" in err


def test_database_contradicting_the_table_exit_4(tmp_path, capsys):
    # identity antipodal action on pi_6(S^6), where it must negate degree
    path = tmp_path / "inconsistent.nielsendb"
    path.write_text(
        "nielsendb v1\n"
        'group S(6) 6 = 1 [] gens i src "degree"\n'
        'group S(5) 5 = 1 [] gens j src "degree"\n'
        'hom boundary_K S(6),6 -> S(5),5 matrix [[2]] src "chi"\n'
        'hom suspension_E S(5),5 -> S(6),6 matrix [[1]] src "iso"\n'
        'hom antipodal_A S(6),6 -> S(6),6 matrix [[1]] src "wrong on purpose"\n',
        encoding="utf-8")
    code, out, err = run(capsys, "classify", "--K", "R", "--m", "6",
                         "--nprime", "6", "--f1", "1", "--f2", "1",
                         "--db", str(path))
    assert code == 4
    assert out == ""
    assert "no case condition fired" in err
    for ref in ("boundary_K:S(6),6->S(5),5", "suspension_E:S(5),5->S(6),6",
                "antipodal_A:S(6),6->S(6),6"):
        assert ref in err


@pytest.mark.parametrize("m,n,group", [(1, 3, "Z"), (4, 6, "Z_2")])
def test_sphere_database_below_connectivity_exit_4(tmp_path, capsys, m, n,
                                                   group):
    path = tmp_path / "connectivity.nielsendb"
    path.write_text(
        "nielsendb v1\n"
        f'group S({n}) {m} = {"1 []" if group == "Z" else "0 [2]"} gens x '
        'src "wrong on purpose"\n'
        f'hom antipodal_A S({n}),{m} -> S({n}),{m} matrix [[1]] src "id"\n',
        encoding="utf-8")
    code, out, err = run(capsys, "sphere", "--m", str(m), "--n", str(n),
                         "--f1", "1", "--f2", "0", "--db", str(path))
    assert (code, out) == (4, "")
    assert (f"database inconsistent: the database gives pi_{m}(S({n})) = "
            f"{group}, but every map S^{m} -> S^{n} is nullhomotopic\n") in err


def test_errors_never_pollute_answer_stream(capsys):
    code, out, err = run(capsys, "classify", "--K", "R", "--m", "13",
                         "--nprime", "6", "--f1", "1", "--f2", "1")
    assert code == 3
    assert out == ""
    assert err != ""


def test_deterministic_output(capsys):
    runs = []
    for _ in range(2):
        code, out, err = run(capsys, "classify", "--K", "H", "--m", "11",
                             "--nprime", "2", "--f1", "5", "--f2", "3",
                             "--output", "machine")
        assert code == 0
        runs.append((out, err))
    assert runs[0] == runs[1]


def _child(*args, text=True, unbuffered=None, stdout=subprocess.PIPE, **run):
    # the child imports the package this process imported, also when the
    # test run put src/ on sys.path without setting PYTHONPATH;
    # unbuffered=None keeps this process's PYTHONUNBUFFERED
    package_root = str(Path(nielsencalc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], stdout=stdout,
                          stderr=subprocess.PIPE, text=text, env=env, **run)


def test_module_invocation_subprocess():
    proc = _child("-m", "nielsencalc", "spaceform", "--order", "7",
                  "--n", "3", "--homotopic", "false")
    assert proc.returncode == 0
    assert "N#=MCC=7" in proc.stdout


# ---------------------------------------------------------------------------
# the console entry: flush, then os._exit with the code that main() gives

class _Exited(Exception):
    pass


def test_console_main_flushes_both_streams_then_exits_with_the_code(
        monkeypatch):
    raw = {name: BytesIO() for name in ("stdout", "stderr")}
    for name in raw:
        monkeypatch.setattr(sys, name, TextIOWrapper(BufferedWriter(raw[name])))

    def written():
        return raw["stdout"].getvalue(), raw["stderr"].getvalue()

    def fake_main():
        print("answer")
        print("note", file=sys.stderr)
        assert written() == (b"", b"")      # both still in their buffers
        return 3

    seen = []

    def fake_exit(code):
        seen.append((code, written()))
        raise _Exited

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(os, "_exit", fake_exit)
    with pytest.raises(_Exited):
        cli.console_main()
    assert seen == [(3, (b"answer\n", b"note\n"))]


def test_ctrl_c_ends_the_call_with_exit_130_and_writes_nothing(monkeypatch):
    raw = {name: BytesIO() for name in ("stdout", "stderr")}
    for name in raw:
        monkeypatch.setattr(sys, name, TextIOWrapper(BufferedWriter(raw[name])))

    def interrupted():
        print("half an answer")     # still in its buffer: it is dropped
        raise KeyboardInterrupt

    seen = []

    def fake_exit(code):
        seen.append((code, raw["stdout"].getvalue(), raw["stderr"].getvalue()))
        raise _Exited

    monkeypatch.setattr(cli, "main", interrupted)
    monkeypatch.setattr(os, "_exit", fake_exit)
    try:
        cli.console_main()
    except _Exited:
        pass
    except KeyboardInterrupt:   # escaped: fail this test, not the whole run
        pytest.fail("KeyboardInterrupt escaped console_main")
    assert seen == [(130, b"", b"")]


_NOTHING_LEFT_FOR_EXIT = """
import atexit, contextlib, io, json, threading
before = [atexit._ncallbacks(), threading.active_count()]
from nielsencalc.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in %r]
print(json.dumps([before, [atexit._ncallbacks(), threading.active_count()], codes]))
"""


def test_a_call_leaves_no_atexit_hook_or_thread_that_os_exit_would_skip():
    argvs = [README_COMMANDS[0], README_COMMANDS[0] + ["--output", "machine"],
             ["db-show"], GRAMMAR_COMMANDS[2]]
    proc = _child("-c", _NOTHING_LEFT_FOR_EXIT % (argvs,))
    assert proc.returncode == 0, proc.stderr
    before, after, codes = json.loads(proc.stdout)
    assert after == before
    assert codes == [0, 0, 0, 2]


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_a_reader_that_left_ends_the_call_silently_with_exit_1(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _child("-m", "nielsencalc", "db-show", unbuffered=unbuffered,
                      stdout=write_end)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_an_unwritable_stdout_ends_the_call_with_exit_1_and_one_line(
        unbuffered):
    with open("/dev/full", "wb") as full:
        proc = _child("-m", "nielsencalc", "db-show", unbuffered=unbuffered,
                      stdout=full)
    enospc = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    assert (proc.returncode, proc.stderr) == (1, f"error: {enospc}\n")
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_a_call_with_stdout_closed_at_start_exits_0(monkeypatch):
    monkeypatch.delenv("NIELSEN_DB", raising=False)
    argv = README_COMMANDS[0] + ["--output", "text"]
    proc = _child("-m", "nielsencalc", *argv, stdout=subprocess.DEVNULL,
                  preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, _expected()[tuple(argv)]["stderr"])


def test_a_buffered_output_larger_than_a_pipe_buffer_arrives_whole(
        tmp_path, capsys):
    labels = ",".join(f"gen{i:05d}" for i in range(10000))
    db = tmp_path / "wide.nielsendb"
    db.write_text(f'nielsendb v1\ngroup S(3) 3 = 10000 [] gens {labels} src "wide"\n',
                  encoding="utf-8")
    argv = ["db-show", "--db", str(db)]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode("utf-8")
    assert len(expected) > 1 << 16
    proc = _child("-m", "nielsencalc", *argv, unbuffered=False, text=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")


def test_every_entry_point_goes_through_console_main():
    main_py = Path(nielsencalc.__file__).with_name("__main__.py")
    assert [ast.unparse(node) for node in ast.parse(main_py.read_text()).body] == [
        "from .cli import console_main", "console_main()"]
    tomllib = pytest.importorskip("tomllib")     # Python 3.11 on
    pyproject = Path(__file__).parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))[
        "project"]["scripts"]
    assert scripts == {"nielsencalc": "nielsencalc.cli:console_main"}


CONSOLE_COMMANDS = ([argv + ["--output", mode] for argv in README_COMMANDS
                     for mode in ("text", "machine")]
                    + ERROR_COMMANDS + GRAMMAR_COMMANDS)


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", CONSOLE_COMMANDS, ids=" ".join)
def test_console_entry_writes_the_golden_transcript(argv, unbuffered, tmp_path,
                                                    monkeypatch):
    # exits 0, 2, 3 and 4 each flush their output before os._exit
    monkeypatch.delenv("NIELSEN_DB", raising=False)
    monkeypatch.chdir(tmp_path)
    _write_databases(tmp_path)
    proc = _child("-m", "nielsencalc", *argv, text=False, unbuffered=unbuffered)
    expected = _expected()[tuple(argv)]
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        expected["exit"], expected["stdout"].encode("utf-8"),
        expected["stderr"].encode("utf-8"))


# ---------------------------------------------------------------------------
# start-up: what a fresh interpreter loads

_IMPORTS = """
import sys
before = set(sys.modules)
import nielsencalc.cli
print(sorted({"dataclasses", "inspect", "ast", "json", "argparse"}
             & (set(sys.modules) - before)))
"""

_JSON_ON_DEMAND = """
import contextlib, io, sys
seen = ["json" in sys.modules]
from nielsencalc.cli import main
seen.append("json" in sys.modules)
argv = ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "1", "--f2", "1"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for extra in ([], ["--output", "machine"]):
        assert main(argv + extra) == 0
        seen.append("json" in sys.modules)
print(seen)
"""


def test_cli_import_leaves_out_dataclasses_inspect_ast_and_json():
    proc = _child("-c", _IMPORTS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_json_is_imported_for_machine_output_only():
    proc = _child("-c", _JSON_ON_DEMAND)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.startswith("[True"):
        pytest.skip("this interpreter loads json before the package")
    # before and after the import, after a text and after a machine call
    assert proc.stdout.strip() == "[False, False, False, True]"


_NO_ARGPARSE = """
import contextlib, io, sys
seen = ["argparse" in sys.modules]
from nielsencalc.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in %r]
seen.append("argparse" in sys.modules)
print(seen, codes)
"""

# usage errors that no golden entry shows: a missing value, '--' as a
# value, a missing required option and an unjoined value that starts with '-'
PARSE_FAULTS = [["self", "--K"], ["db-validate", "--db=--"],
                ["sphere", "--m", "11", "--n", "6", "--f1", "1"],
                ["sphere", "--m", "11", "--n", "6", "--f1", "-1,0", "--f2", "0"]]


def test_no_call_imports_argparse(tmp_path, monkeypatch):
    # every golden argv (answers, each --help and every usage error there)
    # and the faults above, in one process
    monkeypatch.delenv("NIELSEN_DB", raising=False)
    _write_databases(tmp_path)
    argvs = GOLDEN_COMMANDS + PARSE_FAULTS
    proc = _child("-c", _NO_ARGPARSE % (argvs,), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.startswith("[True"):
        pytest.skip("this interpreter loads argparse before the package")
    codes = [_expected()[tuple(argv)]["exit"] for argv in GOLDEN_COMMANDS]
    assert proc.stdout.strip() == f"[False, False] {codes + [2] * len(PARSE_FAULTS)}"


_NO_REGEX = """
import contextlib, io, re, sys
def refuse(pattern, flags):
    raise AssertionError(f"compiled {pattern!r}")
re._compile = refuse
import nielsencalc.cli
from nielsencalc import homotopy_db
homotopy_db.load_default()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    print([nielsencalc.cli.main(argv) for argv in %r], file=sys.__stdout__)
"""


def test_import_load_and_text_commands_compile_no_regular_expression():
    proc = _child("-c", _NO_REGEX % (README_COMMANDS,))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str([0] * len(README_COMMANDS))


# ---------------------------------------------------------------------------
# the parser

# the cli_session command mix of the benchmark (bench/workloads.py)
BENCH_COMMANDS = [
    ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "2", "--f2", "2"],
    ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "1", "--f2", "1"],
    ["classify", "--K", "R", "--m", "6", "--nprime", "6", "--f1", "1", "--f2=-1"],
    ["classify", "--K", "R", "--m", "6", "--nprime", "6", "--f1", "3", "--f2", "1"],
    ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "1", "--f2", "0"],
    ["classify", "--K", "C", "--m", "5", "--nprime", "2", "--f1", "1", "--f2", "1"],
    ["classify", "--K", "H", "--m", "11", "--nprime", "2", "--f1", "1", "--f2", "2"],
    ["self", "--K", "R", "--m", "11", "--nprime", "6", "--f", "1"],
    ["sphere", "--m", "11", "--n", "6", "--f1", "1", "--f2", "0"],
    ["sphere", "--m", "1", "--n", "1", "--f1", "3", "--f2", "1"],
    ["spaceform", "--order", "5", "--n", "3", "--homotopic", "false"],
    ["spaceform", "--order", "5", "--n", "3", "--homotopic", "false", "--output", "machine"],
    ["db-validate"],
    ["db-show"],
    ["classify", "--K", "R", "--m", "12", "--nprime", "6", "--f1", "1", "--f2", "1"],
    ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "x", "--f2", "1"],
]


NAMESPACES = Path(__file__).parent / "golden" / "cli_namespaces.json"


def test_strict_parser_takes_the_documented_and_benchmarked_calls():
    # each namespace as recorded from the argparse parser that the CLI had
    # before this parser was its only one, with the handler by name
    recorded = json.loads(NAMESPACES.read_text(encoding="utf-8"))
    argvs = README_COMMANDS + ERROR_COMMANDS + BENCH_COMMANDS
    assert [entry["argv"] for entry in recorded] == list(
        map(list, dict.fromkeys(map(tuple, argvs))))
    for entry in recorded:
        args = vars(cli._parse_strict(entry["argv"]))
        assert {**args, "func": args["func"].__name__} == entry["namespace"]


def _outcome(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("joined", [True, False], ids=["joined", "separate"])
@pytest.mark.parametrize("option", ["--m", "--K", "--f1", "--db", "--output",
                                    "--residue1"])
def test_option_given_as_double_dash_is_a_usage_error(option, joined):
    argv = ["classify", "--K", "R", "--m", "11", "--nprime", "6", "--f1", "1",
            "--f2", "1"]
    if option in argv:
        del argv[argv.index(option):argv.index(option) + 2]
    argv += [f"{option}=--"] if joined else [option, "--"]
    assert _outcome(argv) == (
        2, "", f"usage error: argument {option}: expected one argument\n")


_GOOD_INTS = ("0", "1", "2", "5", "6", "11")
_COORDS = ("1", "0", "2", "1,2", "x")
_BAD = ("", "X", " 7 ", "+3", "\u0665", "-1", "-", "--", "--x", "-h", "a=b",
        "1_0", "+1", "\u0661")
_JUNK = ("-h", "--help", "--", "junk", "--nprim", "--f", "-1")


def test_parser_agrees_with_the_reference_grammar(tmp_path, monkeypatch):
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    monkeypatch.delenv("NIELSEN_DB", raising=False)
    monkeypatch.chdir(tmp_path)

    def good(spec):
        if "choices" in spec:
            return spec["choices"]
        return _GOOD_INTS if spec.get("type") is cli._int else _COORDS

    @st.composite
    def argvs(draw):
        # a well-formed call, then up to two faults: a bad value, an
        # abbreviated name, a missing option, a repeated option or a stray
        # token
        command = draw(st.sampled_from([*cli.COMMANDS] * 3 + ["--help", "-h", "clasify"]))
        options = cli.COMMANDS[command][2] if command in cli.COMMANDS else ()
        pairs = [[flag, draw(st.sampled_from(good(spec)))]
                 for flag, spec in cli._COMMON + options
                 if draw(st.integers(bool(spec.get("required")), 1))]
        strays = []
        for _ in range(draw(st.sampled_from((0, 1, 1, 2)))):
            fault = draw(st.sampled_from(("value", "name", "drop", "repeat", "stray")))
            if fault == "stray" or not pairs:
                strays.append([draw(st.sampled_from(_JUNK))])
            elif fault == "drop":
                pairs.pop(draw(st.integers(0, len(pairs) - 1)))
            elif fault == "repeat":
                flag = draw(st.sampled_from(pairs))[0]
                spec = dict(cli._COMMON + options).get(flag, {})
                pairs.append([flag, draw(st.sampled_from(good(spec)))])
            else:
                pair = draw(st.sampled_from(pairs))
                if fault == "value":
                    pair[1] = draw(st.sampled_from(_BAD))
                else:
                    pair[0] = pair[0][:-1]
        tokens = [command]
        for pair in draw(st.permutations(pairs + strays)):
            tokens += ["=".join(pair)] if draw(st.booleans()) else pair
        return tokens

    @settings(max_examples=500, deadline=None, database=None, derandomize=True)
    @given(argvs())
    @example(["db-validate", "--db=--"])
    @example(["db-show", "--output", "X", "--output", "text"])
    @example(["self", "--K", "R", "--m", "11", "--nprime", "6", "--f", "-h"])
    @example(["self", "--K", "R", "--m", "11", "--nprime", "6", "--f", "1",
              "--m", "11"])
    @example([])
    def check(argv):
        expected = oracles.reference_cli(argv)
        if expected is None:
            with pytest.raises(cli.UsageError):
                cli._parse_strict(argv)
            code, out, err = _outcome(argv)
            assert (code, out, err.count("\n")) == (2, "", 1)
            assert err.startswith("usage error: ")
        elif expected[0] == "help":
            assert _outcome(argv) == (0, cli._help(expected[1]) + "\n", "")
        else:
            args = vars(cli._parse_strict(argv))
            assert args == {**expected[1], "func": cli.COMMANDS[argv[0]][0]}

    check()
