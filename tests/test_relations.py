import re

import pytest
from hypothesis import given, strategies as st

from spekcat import relations as rel
from spekcat.relations import I, Relation, Space
from spekcat.generators import GeneratorId, resolve

IV = Space(4, 1)

EPS = resolve(GeneratorId("epsilon", "spek"))
DELTA = resolve(GeneratorId("delta", "spek"))
BOT = resolve(GeneratorId("bottom", "mspek"))


def small_relations(dom=IV, cod=IV):
    pool = [(a, b) for a in dom.tuples() for b in cod.tuples()]
    return st.frozensets(st.sampled_from(pool), max_size=8).map(
        lambda pairs: Relation(dom, cod, pairs))


def test_space_counts():
    assert len(list(IV.tuples())) == 4
    assert len(list(Space(4, 2).tuples())) == 16
    assert list(I.tuples()) == [()]


def test_compose_identity():
    assert rel.identity(IV).then(EPS) == EPS


def test_compose_effect_then_state_is_full_scalar():
    assert EPS.converse().then(EPS) == rel.scalar(True)


def test_compose_state_after_effect_is_rectangle():
    got = EPS.then(EPS.converse())
    want = {((x,), (y,)) for x in (1, 3) for y in (1, 3)}
    assert got.pairs == frozenset(want)


def test_tensor_identities():
    i = rel.identity(IV)
    assert i.tensor(i) == rel.identity(Space(4, 2))


def test_tensor_states():
    s = EPS.converse()
    prod = s.tensor(s)
    assert prod.pairs == frozenset(
        ((), (x, y)) for x in (1, 3) for y in (1, 3))


def test_tensor_epsilon_bottom():
    got = EPS.tensor(BOT)
    want = {((x,), (k,)) for x in (1, 3) for k in (1, 2, 3, 4)}
    assert got.pairs == frozenset(want)


def test_converse_epsilon():
    c = EPS.converse()
    assert c.dom == I and c.cod == IV
    assert c.pairs == frozenset({((), (1,)), ((), (3,))})


def test_converse_delta_table():
    pairs = DELTA.converse().pairs
    assert ((1, 1), (1,)) in pairs and ((2, 2), (1,)) in pairs


def test_identity_unit():
    assert rel.identity(I).pairs == frozenset({((), ())})


def test_swap_involution():
    s = rel.swap(IV, IV)
    assert s.then(s) == rel.identity(Space(4, 2))


def test_swap_with_unit_is_identity():
    assert rel.swap(I, IV) == rel.identity(IV)


def test_marginal_of_diagonal():
    psi = Relation(I, Space(4, 2),
                   frozenset(((), (x, x)) for x in (1, 2, 3, 4)))
    m = psi.marginal((1,))
    assert m.pairs == frozenset(((), (x,)) for x in (1, 2, 3, 4))
    assert psi.marginal((1, 2)) == psi


def test_marginal_collapses_duplicates():
    s = Relation(I, Space(4, 2),
                 frozenset(((), (1, k)) for k in (1, 2, 3, 4)))
    assert s.marginal((1,)).pairs == frozenset({((), (1,))})


def test_compose_type_mismatch():
    with pytest.raises(rel.CompositionError):
        EPS.then(EPS)


def test_text_round_trip():
    for r in (EPS, DELTA, BOT, rel.scalar(True), rel.scalar(False),
              Relation(IV, IV, frozenset())):
        assert Relation.from_text(r.to_text()) == r


def test_from_text_rejects_wrong_arity():
    with pytest.raises(ValueError, match="'12 ~ 3'"):
        Relation.from_text("REL 4^1 -> 4^1\n1 ~ 2\n12 ~ 3\n")
    with pytest.raises(ValueError, match="'13'"):
        Relation.from_text("REL 1^0 -> 4^1\n13\n")


def test_from_text_rejects_digits_outside_carrier():
    with pytest.raises(ValueError, match="'7 ~ 9'"):
        Relation.from_text("REL 4^1 -> 4^1\n7 ~ 9\n")
    with pytest.raises(ValueError, match="'2'"):
        Relation.from_text("REL 1^0 -> 2^1\n2\n")


@pytest.mark.parametrize("text, header", [
    ("", ""),
    ("REL 4^1\n1\n", "REL 4^1"),
    ("REL 4^x -> 4^1\n1 ~ 1\n", "REL 4^x -> 4^1"),
    ("REL 4^1 -> 4^1 extra\n1 ~ 1\n", "REL 4^1 -> 4^1 extra"),
    ("REL 3^1 -> 4^1\n1 ~ 1\n", "REL 3^1 -> 4^1"),
], ids=["empty", "no-codomain", "arity-not-a-number", "extra-token",
        "base-3"])
def test_from_text_rejects_bad_header(text, header):
    with pytest.raises(ValueError,
                       match=re.escape("bad relation header: %r" % header)):
        Relation.from_text(text)


def test_empty_relation_prints_marker():
    assert "∅" in Relation(IV, IV, frozenset()).to_text()


@given(small_relations())
def test_converse_involutive(r):
    assert r.converse().converse() == r


@given(small_relations(), small_relations(), small_relations())
def test_compose_associative(r, s, t):
    assert r.then(s).then(t) == r.then(s.then(t))


@given(small_relations(), small_relations())
def test_dagger_antihomomorphism(r, s):
    assert r.then(s).converse() == s.converse().then(r.converse())


@given(small_relations(), small_relations(), small_relations(),
       small_relations())
def test_tensor_bifunctorial(r, s, t, u):
    lhs = r.then(s).tensor(t.then(u))
    rhs = r.tensor(t).then(s.tensor(u))
    assert lhs == rhs


@given(small_relations(dom=I), small_relations(dom=I))
def test_swap_naturality_on_states(r, s):
    sw = rel.swap(IV, IV)
    assert r.tensor(s).then(sw) == s.tensor(r)


def test_swap_naturality_explicit():
    a = Relation(I, IV, frozenset({((), (1,)), ((), (2,))}))
    b = Relation(I, IV, frozenset({((), (3,))}))
    sw = rel.swap(IV, IV)
    assert a.tensor(b).then(sw) == b.tensor(a)


def test_marginal_order_independent():
    psi = Relation(I, Space(4, 3),
                   frozenset(((), (x, x, y)) for x in (1, 2) for y in (3, 4)))
    assert psi.marginal((1, 3)).marginal((2,)) == psi.marginal((3,))
