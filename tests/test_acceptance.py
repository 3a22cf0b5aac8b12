"""End-to-end acceptance checks.

Each test exercises one headline guarantee of the package, from single-system
state enumeration through the closed-form signature calculus to the full
verification suites.  Run with ``pytest -v tests/test_acceptance.py`` to get
one pass/fail line per criterion.
"""

import os

from nets import golden_diagram
from spekcat import cli
from spekcat import diagrams as dg
from spekcat import signatures as sg
from spekcat import verification as vf
from spekcat.generators import MSPEK, SPEK, GeneratorId, resolve

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden")


def run_cli(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().out


def test_criterion_01_single_system_states(spek_states_3, mspek_states_3):
    spek1 = {frozenset(t[0] for _, t in s.pairs) for s in spek_states_3[1]}
    assert spek1 == {
        frozenset({1, 2}), frozenset({3, 4}),
        frozenset({1, 3}), frozenset({2, 4}),
        frozenset({1, 4}), frozenset({2, 3}),
    }
    mspek1 = {frozenset(t[0] for _, t in s.pairs) for s in mspek_states_3[1]}
    assert mspek1 == spek1 | {frozenset({1, 2, 3, 4})}


def test_criterion_02_three_zone_state_form(capsys):
    form, _ = sg.state_form(golden_diagram("triangle"))
    assert len(form.signatures) == 8
    assert all(count == 1 for _, count in form.signatures)
    state = form.expand()
    assert len(state.pairs) == 32
    blocks = {}
    for _, t in state.pairs:
        key = tuple(0 if v in (1, 2) else 1 for v in t)
        blocks.setdefault(key, []).append(t)
    assert len(blocks) == 8
    assert all(len(b) == 4 for b in blocks.values())
    code, out = run_cli(capsys, "compare",
                        os.path.join(GOLDEN, "triangle.spekd"))
    assert code == 0 and "OK" in out


def test_criterion_03_internalized_constraint(capsys):
    d = golden_diagram("triangle_internalized")
    form, _ = sg.state_form(d)
    assert len(form.signatures) == 4
    assert len(form.expand().pairs) == 16
    assert "T1 + T2 + T3 = 0" in form.system.to_text()
    code, out = run_cli(
        capsys, "form",
        os.path.join(GOLDEN, "triangle_internalized.spekd"))
    assert code == 0
    assert "constraint T1 + T2 + T3 = 0" in out


def test_criterion_04_random_closed_form_agreement(capsys):
    code, out = run_cli(capsys, "compare", "--random", "1000", "--seed", "7")
    assert code == 0
    assert out.strip() == "OK"


def test_criterion_05_basis_structure_laws():
    for theory in (SPEK, "halfspek"):
        delta = resolve(GeneratorId("delta", theory))
        eps = resolve(GeneratorId("epsilon", theory))
        laws = vf.check_basis_structure(delta, eps)
        assert laws == {name: True for name in laws}, (theory, laws)


def test_criterion_06_kbp_and_cardinalities(spek_states_3, mspek_states_3):
    for states in (spek_states_3, mspek_states_3):
        for n in states:
            for s in states[n]:
                assert vf.check_kbp(s).ok, s.to_text()
    spek_card = vf.check_mspek_cardinalities(spek_states_3, SPEK)
    assert spek_card.ok and spek_card.spek_exact
    assert spek_card.counts == {1: [2], 2: [4], 3: [8]}
    mspek_card = vf.check_mspek_cardinalities(mspek_states_3, MSPEK)
    assert mspek_card.ok
    assert {len(s.pairs) for s in mspek_states_3[1]} == {2, 4}


def test_criterion_07_halfspek_parity_model():
    checked, failures = vf.halfspek_parity_sweep(max_boxes=5)
    assert checked > 400
    assert failures == []


def test_criterion_08_map_state_duality():
    report = vf.check_map_state_duality(SPEK)
    assert report.n_states == 60
    assert report.n_maps == 60
    assert report.bijective
    assert report.identity_matches_diagonal


def test_criterion_09_ghz_copies():
    assert vf.ghz_delta_identity()
    ghz = dg.evaluate(golden_diagram("ghz"))
    assert len(ghz.pairs) == 8
    assert vf.check_kbp(ghz).ok


def test_criterion_10_accessible_cancelling_sets():
    report = sg.duplication_analysis(golden_diagram("chain"))
    assert report.acs == ((4, 5, 6),)
    assert all(4 in s or 5 in s or 6 in s for s in report.acs)
    assert report.internal_zones == (3, 4, 5, 6)
    assert 3 not in {z for s in report.acs for z in s}
    p = len(report.system.rows)
    assert report.duplication_factor == 2 ** (p - report.system.rank)
    assert report.distinct_signatures == 8
