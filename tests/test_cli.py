import json
import os
import subprocess
import sys

import pytest

from nets import chain
from spekcat import cli
from spekcat import signatures as sg
from spekcat import verification as vf
from spekcat.relations import Relation, max_arity

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


def test_eval_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "bad.spekd"
    path.write_bytes(b"\xff\xfe\n")
    code, out, err = run(capsys, "eval", str(path))
    assert code == cli.EXIT_PARSE
    assert out == ""
    assert len(err.splitlines()) == 1 and str(path) in err


def test_eval_reads_past_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "eta.spekd"
    path.write_bytes(b"\xef\xbb\xbf" + read("eta.spekd").encode("utf-8"))
    code, out, _ = run(capsys, "eval", str(path))
    assert code == 0
    assert out == read("eta.rel")


def test_form_streams_without_listing_the_signatures(capsys, monkeypatch):
    real, forms = sg.state_form, []

    def kept(d):
        forms.append(real(d))
        return forms[-1]

    monkeypatch.setattr(cli.sg, "state_form", kept)
    for fmt in ("text", "jsonl"):
        code, out, _ = run(capsys, "--format", fmt, "form",
                           golden("chain.spekd"))
        form = forms[-1][0]
        assert code == 0 and "signatures" not in form.__dict__
        assert out.count("\n") == len(form.signatures) + len(form.system.rows)


def test_import_loads_neither_dataclasses_nor_inspect():
    # the records are namedtuples: starting the program loads no
    # dataclasses module, whose import pulls in inspect
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "import spekcat.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-c", probe, src],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_text_start_loads_neither_json_nor_the_generator():
    # json is imported for jsonl output only and the random diagram
    # generator for compare --random only; verification stays eager.
    # Modules loaded before the import (e.g. by site) do not count.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             "before = set(sys.modules); import spekcat.cli; "
             "print(sorted({'json', 'spekcat.generate', "
             "'spekcat.verification'} & (set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-I", "-c", probe, src],
                         capture_output=True, text=True, check=True).stdout
    assert out == "['spekcat.verification']\n"


def test_start_loads_neither_typing_nor_shutil():
    # annotations are written with builtins, and shutil is imported by
    # enumerate --out only.  -S keeps site from loading either beforehand.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import spekcat.cli; "
             "print(sorted({'typing', 'shutil', 'bz2', 'lzma', 'zlib', "
             "'fnmatch'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", probe, src],
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


# the command line program run as by -m, from src/, in an interpreter
# that has imported nothing else: json is not loaded beforehand
FRESH_CLI = ("import runpy, sys; sys.path.insert(0, sys.argv.pop(1)); "
             "runpy.run_module('spekcat.cli', run_name='__main__', "
             "alter_sys=True)")


@pytest.mark.parametrize("argv", [
    ["eval", golden("eta.spekd")],
    ["form", golden("triangle_internalized.spekd")],
    ["compare", golden("triangle.spekd")],
    ["compare", "--random", "3"],
    ["enumerate", "--arity", "1"],
    ["verify", "--suite", "laws"],
    ["compare", "--random", "20", "--seed", "7"],
    ["enumerate", "--theory", "mspek", "--arity", "2"],
    ["verify", "--suite", "all", "--arity", "2"],
])
def test_jsonl_from_a_fresh_interpreter(argv, capsys):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-I", "-c", FRESH_CLI, src, "--format", "jsonl"]
        + argv, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(json.loads(line) for line in lines)
    assert run(capsys, "--format", "jsonl", *argv) == (0, proc.stdout, "")


def test_form_golden_outputs(capsys):
    for name in ("triangle", "triangle_internalized", "chain", "bent"):
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


def test_form_refuses_before_it_prints(tmp_path, capsys, monkeypatch):
    # 2^21 and 2^200 signatures: over the ceiling of 2^20, in either format
    monkeypatch.delenv("SPEK_MAX_CELLS", raising=False)
    for n in (21, 200):
        path = tmp_path / ("chain%d.spekd" % n)
        path.write_text(chain(n))
        for fmt in ("text", "jsonl"):
            code, out, err = run(capsys, "--format", fmt, "form", str(path))
            assert (code, out) == (2, ""), (n, fmt)
            assert err.startswith("error: ") and err.count("\n") == 1


def test_form_rejects_mspek(tmp_path, capsys):
    path = tmp_path / "m.spekd"
    path.write_text("theory mspek\nbox b: bot\nout b.1\n")
    code, _, err = run(capsys, "form", str(path))
    assert code == 3


def test_compare_rejects_non_spek_files_as_form_does(tmp_path, capsys):
    for theory, source in (("mspek", "theory mspek\nbox a: bot\nout a.1\n"),
                           ("halfspek",
                            "theory halfspek\nbox a: eps+\nout a.1\n")):
        path = tmp_path / (theory + ".spekd")
        path.write_text(source)
        _, _, form_err = run(capsys, "form", str(path))
        code, out, err = run(capsys, "compare", str(path))
        assert code == 3 and out == ""
        assert err == form_err and err.count("\n") == 1
    code, _, _ = run(capsys, "compare", "--theory", "spek")
    assert code == 7


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
    real = sg.state_form

    def corrupted(d):
        form, zd = real(d)
        return form._replace(shift=form.shift ^ 1), zd

    monkeypatch.setattr(cli.sg, "state_form", corrupted)
    code, out, _ = run(capsys, "compare", golden("triangle.spekd"))
    assert code == 4
    assert "MISMATCH" in out


def test_compare_refuses_a_wide_state_before_contracting(tmp_path, capsys,
                                                         monkeypatch):
    # 16 cells: arity 2, so expand refuses more than 4 legs
    monkeypatch.setenv("SPEK_MAX_CELLS", "16")
    paths = []
    for n in (3, 5):
        paths.append(tmp_path / ("chain%d.spekd" % n))
        paths[-1].write_text(chain(n))
    assert run(capsys, "compare", str(paths[0])) == (0, "OK\n", "")

    def refuse(d):
        raise AssertionError("a contraction started")

    monkeypatch.setattr(cli.dg, "evaluate", refuse)
    for fmt in ("text", "jsonl"):
        code, out, err = run(capsys, "--format", fmt, "compare",
                             str(paths[1]))
        assert (code, out) == (cli.EXIT_CAPACITY, ""), fmt
        assert err == "error: expanding 5 legs exceeds the ceiling of 4\n"


def test_text_lines_pair_with_jsonl_records(tmp_path, capsys):
    # each text line and the jsonl record in the same place say the same
    def render(record):
        if "signature" in record:
            return "(%s) x%d" % ("; ".join(
                "%s,%s" % (sg.PARITY_NAMES[p], sg.TYPE_NAMES[t])
                for p, t in record["signature"]), record["count"])
        if "legs" in record:
            return "legs=%d states=%d" % (record["legs"], record["states"])
        if "state" in record:
            return "  {%s}" % ",".join(map(str, record["state"]))
        if "closure_report" in record:
            return "closure report written to %s" % record["closure_report"]
        return "constraint %s" % record["constraint"]

    report = str(tmp_path / "report")
    for argv in (["enumerate", "--theory", "mspek", "--arity", "2"],
                 ["enumerate", "--theory", "mspek", "--arity", "2",
                  "--out", report],
                 ["form", golden("triangle_internalized.spekd")]):
        code, text, _ = run(capsys, *argv)
        assert code == 0
        code, out, _ = run(capsys, "--format", "jsonl", *argv)
        assert code == 0
        records = list(map(json.loads, out.splitlines()))
        assert text.splitlines() == list(map(render, records)), argv
        assert len(records) > 1, argv


def test_jsonl_output_is_one_record_per_line(tmp_path, capsys, monkeypatch):
    def records(*argv):
        code, out, _ = run(capsys, "--format", "jsonl", *argv)
        return code, [json.loads(line) for line in out.splitlines()]

    report = str(tmp_path / "report")
    code, got = records("enumerate", "--out", report)
    assert code == 0 and got[-1] == {"closure_report": report}
    paths = [golden("triangle.spekd"), golden("eta.spekd")]
    assert records("compare", *paths) == (0, [{"result": "OK"}])

    real = sg.state_form

    def corrupted(d):
        form, zd = real(d)
        return form._replace(shift=form.shift ^ 1), zd

    monkeypatch.setattr(cli.sg, "state_form", corrupted)
    code, got = records("compare", *paths)
    assert code == 4
    assert [r["mismatch"] for r in got] == paths
    for r, path in zip(got, paths):
        d = cli.dg.parse(read(os.path.basename(path)))
        assert r["evaluated"] == cli.dg.evaluate(cli.dg.as_state(d)).to_text()
        assert r["closed_form"] == corrupted(d)[0].to_text()


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
    for theory in ("spek", "mspek", "halfspek"):
        out_dir = tmp_path / theory
        code, _, _ = run(capsys, "enumerate", "--theory", theory,
                         "--arity", "1", "--out", str(out_dir))
        assert code == 0
        report = vf.enumerate_closure(theory)
        for (m, n) in ((0, 0), (0, 1), (1, 0), (1, 1)):
            text = (out_dir / ("hom_%d_%d.rel" % (m, n))).read_text()
            chunks = ["REL " + c for c in text.split("REL ")[1:]]
            assert text == "".join(chunks)
            got = [Relation.from_text(c) for c in chunks]
            assert got == report.hom[(m, n)], (theory, m, n)


def test_enumerate_out_onto_a_bad_path_is_refused_first(tmp_path, capsys,
                                                       monkeypatch):
    calls = []
    monkeypatch.setattr(vf, "enumerate_states",
                        lambda *args: calls.append(args))
    a_file = tmp_path / "file"
    a_file.write_text("")
    for out_dir in (a_file, a_file / "sub"):
        code, out, err = run(capsys, "enumerate", "--out", str(out_dir))
        assert code == 6 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    assert calls == []


def test_out_of_memory_exits_with_the_capacity_code(capsys, monkeypatch):
    def exhaust(args):
        raise MemoryError()
    monkeypatch.setattr(cli, "cmd_verify", exhaust)
    code, out, err = run(capsys, "verify")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_eval_above_the_ceiling_exits_with_the_capacity_code(capsys,
                                                             monkeypatch):
    # eta's one join holds three distinct variables, more than 4 cells allow
    monkeypatch.setenv("SPEK_MAX_CELLS", "4")
    for fmt in ("text", "jsonl"):
        code, out, err = run(capsys, "--format", fmt, "eval",
                             golden("eta.spekd"))
        assert (code, out) == (cli.EXIT_CAPACITY, ""), fmt
        assert err.startswith("error: ") and err.count("\n") == 1, fmt


def test_verify_at_arity_5_is_refused_at_once(capsys, monkeypatch):
    def walk(*args):
        raise AssertionError("a walk started before the refusal")

    monkeypatch.setattr(vf, "_isotropic", walk)
    for suite in ("kbp", "cardinality", "all"):
        code, out, err = run(capsys, "verify", "--suite", suite,
                             "--arity", "5")
        assert (code, out) == (2, ""), suite
        assert err == "error: spek states on up to 5 legs hold 78149052 " \
            "rows, more than %d\n" % vf.MAX_ROWS, suite


def test_enumerate_writes_the_one_system_closure_at_any_arity(tmp_path,
                                                             capsys):
    trees = []
    for arity in ("1", "2"):
        out_dir = tmp_path / arity
        code, _, _ = run(capsys, "enumerate", "--theory", "mspek",
                         "--arity", arity, "--out", str(out_dir))
        assert code == 0
        trees.append({name: (out_dir / name).read_bytes()
                      for name in os.listdir(out_dir)})
    assert trees[0] == trees[1]
    assert sorted(trees[0]) == ["hom_0_0.rel", "hom_0_1.rel", "hom_1_0.rel",
                                "hom_1_1.rel"]


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
    assert out.splitlines() == [
        "PASS duality.spek.bijective 60 states, 60 maps",
        "PASS duality.spek.identity-diagonal",
        "PASS duality.mspek.bijective 91 states, 91 maps",
        "PASS duality.mspek.identity-diagonal",
        "PASS duality.halfspek.bijective 6 states, 6 maps",
        "PASS duality.halfspek.identity-diagonal"]


def test_verify_compares_counts_with_closed_forms(capsys, monkeypatch):
    code, out, _ = run(capsys, "verify", "--suite", "cardinality",
                       "--arity", "3")
    assert code == 0
    lines = out.splitlines()
    for line in ("PASS cardinality.spek-count {1: 6, 2: 60, 3: 1080}",
                 "PASS cardinality.mspek-count {1: 7, 2: 91, 3: 2467}",
                 "PASS cardinality.halfspek-count {1: 2, 2: 6, 3: 22}"):
        assert line in lines
    real = vf.row_spaces

    def drop_one(theory, max_legs):
        # MSpek's first space on 3 legs has no rows: one state
        spaces = list(real(theory, max_legs))
        if theory == "mspek":
            first = spaces.index((3, []))
            spaces = spaces[:first] + spaces[first + 1:]
        return iter(spaces)

    monkeypatch.setattr(vf, "row_spaces", drop_one)
    code, out, _ = run(capsys, "verify", "--suite", "cardinality",
                       "--arity", "3")
    assert code == 5
    assert ("FAIL cardinality.mspek-count {1: 7, 2: 91, 3: 2466}, "
            "closed form {1: 7, 2: 91, 3: 2467}") in out.splitlines()


def test_verify_finds_an_unbalanced_space(capsys, monkeypatch):
    real = vf.row_spaces

    def add_one(theory, max_legs):
        # p and q of leg 0 on two legs: not isotropic, and its marginal on
        # leg 0 is known outright, one of 4 values
        yield from real(theory, max_legs)
        if theory == "mspek":
            yield 2, [0b1000, 0b0100]

    monkeypatch.setattr(vf, "row_spaces", add_one)
    code, out, _ = run(capsys, "verify", "--suite", "kbp", "--arity", "2")
    assert code == 5
    assert out.splitlines() == ["PASS kbp.spek 66/66 states balanced",
                                "FAIL kbp.mspek 98/102 states balanced"]


def test_verify_reads_row_spaces_not_states(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a state was built or checked as a relation")

    for name in ("_split", "check_kbp", "enumerate_states"):
        monkeypatch.setattr(vf, name, refuse)
    code, out, _ = run(capsys, "verify", "--suite", "all", "--arity", "3")
    assert code == 0 and out == VERIFY_ALL_3


def test_enumerate_counts_without_building_states(capsys, monkeypatch):
    calls = []
    real = vf.enumerate_states

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(vf, "enumerate_states", record)
    for theory, arity, want in (
            ("mspek", "4", {"legs=3 states=2467", "legs=4 states=150451"}),
            ("halfspek", "5", {"legs=5 states=454"})):
        code, out, err = run(capsys, "enumerate", "--theory", theory,
                             "--arity", arity)
        assert code == 0 and err == "", theory
        assert want <= set(out.splitlines()), theory
    assert calls == [("mspek", 1), ("halfspek", 1)]


def test_enumerate_refuses_what_it_cannot_count(capsys, monkeypatch):
    def one_leg(real):
        def walk(n, *args):
            if n > 1:
                raise AssertionError("a walk beyond one leg started")
            return real(n, *args)
        return walk

    monkeypatch.setattr(vf, "_isotropic", one_leg(vf._isotropic))
    monkeypatch.setattr(vf, "_partitions", one_leg(vf._partitions))
    for theory, want in (
            ("spek", ["legs=5 states=2423520", "legs=6 states=315057600"]),
            ("mspek", ["legs=5 states=21555667", "legs=6 states=7454080531"])):
        code, out, err = run(capsys, "enumerate", "--theory", theory,
                             "--arity", "6")
        assert (code, err) == (0, ""), theory
        assert out.splitlines()[-2:] == want, theory
    # above the arity ceiling: no walk, no listing, and no formula, which
    # would not finish at a million legs
    monkeypatch.setattr(vf, "_isotropic", None)
    monkeypatch.setattr(vf, "_partitions", None)
    monkeypatch.setattr(vf, "enumerate_states", None)
    for theory in ("spek", "mspek", "halfspek"):
        for arity in ("11", "1000000"):
            code, out, err = run(capsys, "enumerate", "--theory", theory,
                                 "--arity", arity)
            assert (code, out) == (2, ""), (theory, arity)
            assert err == "error: %s legs exceed the arity ceiling\n" % arity


def test_enumerate_refused_leaves_no_new_directory(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setattr(vf, "_isotropic", None)     # no walk may start
    old = tmp_path / "old"
    old.mkdir()
    for out_dir in (tmp_path / "new" / "sub", old / "sub", old):
        code, out, _ = run(capsys, "enumerate", "--theory", "mspek",
                           "--arity", "11", "--out", str(out_dir))
        assert code == 2 and out == "", out_dir
    assert os.listdir(tmp_path) == ["old"] and os.listdir(old) == []


VERIFY_ALL_3 = """\
PASS laws.spek.coassociativity
PASS laws.spek.cocommutativity
PASS laws.spek.counit-left
PASS laws.spek.counit-right
PASS laws.spek.isometry
PASS laws.spek.frobenius
PASS laws.spek.snake-left
PASS laws.spek.snake-right
PASS laws.halfspek.coassociativity
PASS laws.halfspek.cocommutativity
PASS laws.halfspek.counit-left
PASS laws.halfspek.counit-right
PASS laws.halfspek.isometry
PASS laws.halfspek.frobenius
PASS laws.halfspek.snake-left
PASS laws.halfspek.snake-right
PASS laws.bottom-not-counit
PASS laws.ghz-delta
PASS kbp.spek 1146/1146 states balanced
PASS kbp.mspek 2565/2565 states balanced
PASS cardinality.spek-exact {1: [2], 2: [4], 3: [8]}
PASS cardinality.mspek-range {1: [2, 4], 2: [4, 8, 16], 3: [8, 16, 32, 64]}
PASS cardinality.spek-count {1: 6, 2: 60, 3: 1080}
PASS cardinality.mspek-count {1: 7, 2: 91, 3: 2467}
PASS cardinality.halfspek-count {1: 2, 2: 6, 3: 22}
PASS duality.spek.bijective 60 states, 60 maps
PASS duality.spek.identity-diagonal
PASS duality.mspek.bijective 91 states, 91 maps
PASS duality.mspek.identity-diagonal
PASS duality.halfspek.bijective 6 states, 6 maps
PASS duality.halfspek.identity-diagonal
"""


def test_verify_all_transcript(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--arity", "3")
    assert code == 0 and out == VERIFY_ALL_3
    code, out, _ = run(capsys, "--format", "jsonl", "verify",
                       "--suite", "all", "--arity", "3")
    got = [(r["check"], r["status"], r["detail"])
           for r in map(json.loads, out.splitlines())]
    want = []
    for line in VERIFY_ALL_3.splitlines():
        status, name, detail = (line.split(" ", 2) + [""])[:3]
        want.append((name, status, detail))
    assert code == 0 and got == want


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


def test_negative_max_cells_is_an_environment_error(capsys, monkeypatch):
    # refused like a non-integer, not read as an arity-0 ceiling that
    # blames the diagram with the capacity code
    monkeypatch.setenv("SPEK_MAX_CELLS", "-1")
    code, out, err = run(capsys, "eval", golden("eta.spekd"))
    assert code == 6 and out == ""
    assert err == "error: SPEK_MAX_CELLS must not be negative, got '-1'\n"
    for cells in ("0", "-0", "3"):
        monkeypatch.setenv("SPEK_MAX_CELLS", cells)
        assert max_arity() == 0


def test_usage_errors_have_their_own_code(capsys):
    for argv in ([], ["nosuch"], ["enumerate", "--arity", "x"],
                 ["enumerate", "--arity", "0"],
                 ["verify", "--suite", "kbp", "--arity", "0"],
                 ["verify", "--suite", "nosuch"], ["--format", "xml", "eval"],
                 ["compare", "--random", "-3"], ["compare"]):
        code, out, err = run(capsys, *argv)
        assert code == cli.EXIT_USAGE == 7, argv
        assert out == "" and "error:" in err
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "usage:" in out
    code, out, _ = run(capsys, "enumerate", "--help")
    assert code == 0 and "--arity" in out


def cli_env(**extra):
    """The environment for running the command line program from src/."""
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)), **extra)


def test_closed_output_pipe_exits_quietly():
    env = cli_env()
    proc = subprocess.Popen(
        [sys.executable, "-m", "spekcat.cli", "--format", "jsonl", "eval",
         golden("eta.spekd")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()          # the reader goes before anything is written
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def test_report_files_are_utf8_whatever_the_locale(tmp_path):
    # hom_0_0.rel holds the empty scalar, written as the REL text's ∅
    env = cli_env(LC_ALL="C", PYTHONUTF8="0")
    env.pop("PYTHONIOENCODING", None)
    out_dir = tmp_path / "report"
    proc = subprocess.run(
        [sys.executable, "-m", "spekcat.cli", "enumerate", "--out",
         str(out_dir)], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == b""
    text = (out_dir / "hom_0_0.rel").read_bytes().decode("utf-8")
    assert text == "REL 1^0 -> 1^0\n*\nREL 1^0 -> 1^0\n∅\n"


def test_unencodable_output_is_an_environment_error():
    proc = subprocess.run(
        [sys.executable, "-m", "spekcat.cli", "eval",
         golden("empty_state.spekd")],
        capture_output=True, env=cli_env(PYTHONIOENCODING="ascii"),
        timeout=60)
    assert proc.returncode == cli.EXIT_ENV
    assert proc.stdout == b""
    lines = proc.stderr.decode("ascii").splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
