import json
import os
import subprocess
import sys

import pytest

from spekcat import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden")


def golden(name):
    return os.path.join(GOLDEN, name)


def read(name):
    with open(golden(name)) as fh:
        return fh.read()


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_eta(capsys):
    code, out, _ = run(capsys, "eval", golden("eta.spekd"))
    assert code == 0
    assert out == read("eta.rel")
    assert "11" in out and "44" in out


def test_eval_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.spekd"
    path.write_text("")
    code, out, _ = run(capsys, "eval", str(path))
    assert code == 0
    assert out.splitlines()[0] == "REL 1^0 -> 1^0"


def test_eval_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.spekd"
    path.write_text("box e: eps+\nwire e.1\n")
    code, out, err = run(capsys, "eval", str(path))
    assert code == 1
    assert "line 2" in err


def test_eval_missing_file(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "no-such-file.spekd"])
    assert exc.value.code == 1


def test_form_golden_outputs(capsys):
    for name in ("triangle", "triangle_internalized", "chain"):
        code, out, _ = run(capsys, "form", golden(name + ".spekd"))
        assert code == 0
        assert out.startswith(read(name + ".form"))


def test_form_reports_constraint(capsys):
    code, out, _ = run(capsys, "form", golden("triangle_internalized.spekd"))
    assert code == 0
    assert "constraint T1 + T2 + T3 = 0" in out


def test_form_empty(capsys):
    code, out, _ = run(capsys, "form", golden("empty_state.spekd"))
    assert code == 0
    assert out.splitlines()[0] == "EMPTY"


def test_form_rejects_mspek(tmp_path, capsys):
    path = tmp_path / "m.spekd"
    path.write_text("theory mspek\nbox b: bot\nout b.1\n")
    code, _, err = run(capsys, "form", str(path))
    assert code == 3


def test_form_jsonl(capsys):
    code, out, _ = run(capsys, "--format", "jsonl", "form",
                       golden("triangle_internalized.spekd"))
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert sum(1 for r in records if "signature" in r) == 4
    assert any(r.get("constraint") == "T1 + T2 + T3 = 0" for r in records)


def test_compare_worked_examples(capsys):
    code, out, _ = run(capsys, "compare", golden("triangle.spekd"),
                       golden("triangle_internalized.spekd"))
    assert code == 0
    assert "OK" in out


def test_compare_random(capsys):
    code, out, _ = run(capsys, "compare", "--random", "50", "--seed", "3")
    assert code == 0


def test_compare_detects_mismatch(capsys, monkeypatch):
    from spekcat import signatures as sg

    real = sg.state_form

    def corrupted(d):
        form, zd = real(d)
        return (form.__class__(form.zone_legs, form.signatures[:-1] or
                               form.signatures, form.leg_order), zd)

    monkeypatch.setattr(cli.sg, "state_form", corrupted)
    code, out, _ = run(capsys, "compare", golden("triangle.spekd"))
    assert code == 4
    assert "MISMATCH" in out


def test_enumerate_spek(capsys):
    code, out, _ = run(capsys, "enumerate", "--theory", "spek",
                       "--arity", "1")
    assert code == 0
    assert "legs=1 states=6" in out
    assert "{1,2}" in out and "{3,4}" in out


def test_enumerate_mspek(capsys):
    code, out, _ = run(capsys, "enumerate", "--theory", "mspek",
                       "--arity", "1")
    assert code == 0
    assert "legs=1 states=7" in out
    assert "{1,2,3,4}" in out


def test_enumerate_writes_report(tmp_path, capsys):
    code, out, _ = run(capsys, "enumerate", "--theory", "spek",
                       "--arity", "1", "--out", str(tmp_path / "rep"))
    assert code == 0
    files = os.listdir(tmp_path / "rep")
    assert "hom_0_1.rel" in files
    text = (tmp_path / "rep" / "hom_0_1.rel").read_text()
    assert text.count("REL ") >= 6 and "#" in text


def test_enumerate_determinism(capsys):
    _, out1, _ = run(capsys, "enumerate", "--theory", "spek", "--arity", "2")
    _, out2, _ = run(capsys, "enumerate", "--theory", "spek", "--arity", "2")
    assert out1 == out2


def test_verify_laws(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "laws")
    assert code == 0
    lines = out.splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)
    assert any("frobenius" in line for line in lines)
    assert any("snake" in line for line in lines)


def test_verify_duality(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "duality")
    assert code == 0
    assert "PASS duality.bijective" in out


def test_verify_kbp_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "kbp", "--arity", "2")
    assert code == 0
    assert "PASS kbp.spek" in out and "PASS kbp.mspek" in out


def test_verify_jsonl(capsys):
    code, out, _ = run(capsys, "--format", "jsonl", "verify",
                       "--suite", "laws")
    assert code == 0
    for line in out.splitlines():
        assert json.loads(line)["status"] == "PASS"


def test_verify_reports_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli.vf, "ghz_delta_identity", lambda: False)
    code, out, _ = run(capsys, "verify", "--suite", "laws")
    assert code == 5
    assert "FAIL laws.ghz-delta" in out


def test_bad_max_cells_is_reported(capsys, monkeypatch):
    monkeypatch.setenv("SPEK_MAX_CELLS", "abc")
    code, out, err = run(capsys, "eval", golden("eta.spekd"))
    assert code == 6 and out == ""
    assert err == "error: SPEK_MAX_CELLS must be an integer, got 'abc'\n"


def test_closed_output_pipe_exits_quietly():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "spekcat.cli", "--format", "jsonl", "eval",
         golden("eta.spekd")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()          # the reader goes before anything is written
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""
