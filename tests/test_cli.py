import json
import os
import subprocess
import sys
from pathlib import Path

import nielsencalc
from nielsencalc import homotopy_db
from nielsencalc.cli import main


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


def test_sphere_antipodal_override(capsys):
    code, out, _ = run(capsys, "sphere", "--m", "11", "--n", "6",
                       "--f1", "1", "--f2", "0", "--antipodal", "yes")
    assert code == 0
    assert "N#=0 MCC=0 MC=0" in out


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


def test_module_invocation_subprocess():
    # the child imports the package this process imported, also when the
    # test run put src/ on sys.path without setting PYTHONPATH
    package_root = str(Path(nielsencalc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "nielsencalc", "spaceform", "--order", "7",
         "--n", "3", "--homotopic", "false"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "N#=MCC=7" in proc.stdout
