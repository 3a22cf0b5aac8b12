"""The command-line contract: one row per command, run in a fresh process.

A row holds the command, the exit code, the text of the file ``<net>``
names, the stdout (``out`` exactly; ``lines``, patterns each matching a line
in full; ``count``, a prefix and how many lines start with it), the entries
of the directory ``<out>`` names, the environment, and the bounds on time
(``secs``) and peak RSS (``mb``).  A refusal (exit 2) prints nothing but
one ``error: `` line, to stderr; any other run prints nothing to stderr.
"""

import glob
import os
import re
import subprocess
import sys
from collections import namedtuple

import pytest

import nets
import spekcat

SRC = os.path.dirname(os.path.dirname(os.path.abspath(spekcat.__file__)))

# A small interpreter that runs the command as its own child, kills it at
# the time bound and reads the child's peak RSS: a child's ru_maxrss starts
# at its parent's peak, so the parent must not be the grown test runner.
PROBE = """
import resource, subprocess, sys
secs, out, err, *argv = sys.argv[1:]
try:
    code = subprocess.run(argv, stdout=open(out, "wb"), stderr=open(err, "wb"),
                          timeout=float(secs)).returncode
except subprocess.TimeoutExpired:
    code = None
print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024)
"""

Row = namedtuple("Row", "name cmd code net out lines count files env secs mb",
                 defaults=(0, "", None, (), None, None, {}, 60, None))

ROWS = [
    Row("verify-arity-3", "verify --suite all --arity 3", lines=[
        "PASS kbp.spek 1146/1146 states balanced",
        "PASS kbp.mspek 2565/2565 states balanced",
        "PASS duality.spek.bijective 60 states, 60 maps",
        "PASS duality.spek.identity-diagonal",
        "PASS duality.mspek.bijective 91 states, 91 maps",
        "PASS duality.mspek.identity-diagonal",
        "PASS duality.halfspek.bijective 6 states, 6 maps",
        "PASS duality.halfspek.identity-diagonal"]),
    Row("verify-arity-4", "verify --suite all --arity 4", lines=[
        "PASS kbp.spek 37866/37866 states balanced",
        "PASS kbp.mspek 153016/153016 states balanced",
        "PASS cardinality.spek-count {.*4: 36720}",
        "PASS cardinality.mspek-count {.*4: 150451}",
        "PASS cardinality.halfspek-count {.*4: 94}"], secs=20, mb=60),
    Row("compare-random-1000", "compare --random 1000 --seed 7 <goldens>",
        out="OK\n"),
    *[Row("enumerate-%s-out" % t, "enumerate --theory %s --arity 2 --out <out>"
          % t, files="hom_0_0.rel hom_0_1.rel hom_1_0.rel hom_1_1.rel",
          env={"LC_ALL": "C", "PYTHONUTF8": "0"})
      for t in ("spek", "mspek", "halfspek")],
    Row("enumerate-spek-arity-4", "enumerate --theory spek --arity 4",
        lines=["legs=4 states=36720"], secs=10),
    Row("enumerate-mspek-arity-4", "enumerate --theory mspek --arity 4",
        lines=["legs=3 states=2467", "legs=4 states=150451"], secs=10),
    Row("enumerate-spek-arity-6", "enumerate --theory spek --arity 6",
        lines=["legs=6 states=315057600"], secs=10),
    Row("enumerate-mspek-arity-6", "enumerate --theory mspek --arity 6",
        lines=["legs=6 states=7454080531"], secs=10),
    Row("enumerate-arity-11", "enumerate --arity 11", 2, secs=10),
    *[Row("verify-%s-arity-5" % s, "verify --suite %s --arity 5" % s, 2,
          secs=10) for s in ("kbp", "all")],
    Row("form-chain-21", "form <net>", 2, nets.chain(21), secs=20),
    Row("form-chain-200", "form <net>", 2, nets.chain(200), secs=10),
    Row("form-chain-8000", "form <net>", 2, nets.chain(8000), secs=10),
    Row("form-chain-18", "form <net>", net=nets.chain(18),
        count=("(", 2 ** 18), mb=100),
    Row("compare-chain-int-1280", "compare <net>", net=nets.chain_int(1280),
        out="OK\n"),
    Row("eval-grid-11", "eval <net>", net=nets.grid(11),
        out="REL 1^0 -> 4^1\n1\n3\n", secs=10),
    Row("eval-grid-12", "eval <net>", 2, nets.grid(12), secs=10),
    Row("eval-grid-40", "eval <net>", 2, nets.grid(40), secs=10, mb=60),
    Row("compare-chain-200", "compare <net>", 2, nets.chain(200), secs=10,
        mb=60),
    Row("eval-chain-200", "eval <net>", 2, nets.chain(200), secs=10, mb=60),
]


@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_command(row, tmp_path):
    net, out = tmp_path / "net.spekd", tmp_path / "out"
    if row.net:
        net.write_text(row.net)
    words = {"<net>": [str(net)], "<out>": [str(out)], "<goldens>": sorted(
        glob.glob(os.path.join(nets.GOLDEN, "*.spekd")))}
    argv = [a for word in row.cmd.split() for a in words.get(word, [word])]
    streams = tmp_path / "stdout", tmp_path / "stderr"
    probe = subprocess.run(
        [sys.executable, "-I", "-S", "-c", PROBE, str(row.secs),
         *map(str, streams), sys.executable, "-m", "spekcat.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC, **row.env),
        capture_output=True, text=True, check=True)
    code, rss_mb = probe.stdout.split()
    stdout, stderr = (path.read_text() for path in streams)
    assert code != "None", "no exit within %s s" % row.secs
    assert int(code) == row.code, stderr
    if row.mb is not None:
        assert float(rss_mb) < row.mb
    if row.code == 2:
        assert stdout == "" and len(stderr.splitlines()) == 1
        assert stderr.startswith("error: ")
    else:
        assert stderr == ""
    if row.out is not None:
        assert stdout == row.out
    lines = stdout.splitlines()
    for pattern in row.lines:
        assert any(re.fullmatch(pattern, line) for line in lines), pattern
    if row.count:
        prefix, n = row.count
        assert sum(line.startswith(prefix) for line in lines) == n
    if row.files is not None:
        assert " ".join(sorted(os.listdir(out))) == row.files
