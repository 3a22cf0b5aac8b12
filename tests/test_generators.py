import itertools

import pytest

from spekcat import relations as rel
from spekcat.generators import (GeneratorId, TheoryError, arity,
                                generator_set, parse_generator_name, resolve)
from spekcat.permutations import perm_from_cycles, phased_permutations, s4


def test_epsilon_table():
    r = resolve(GeneratorId("epsilon", "spek"))
    assert r.pairs == frozenset({((1,), ()), ((3,), ())})


def test_delta_table():
    r = resolve(GeneratorId("delta", "spek"))
    assert r.pairs == frozenset({
        ((1,), (1, 1)), ((1,), (2, 2)),
        ((2,), (1, 2)), ((2,), (2, 1)),
        ((3,), (3, 3)), ((3,), (4, 4)),
        ((4,), (3, 4)), ((4,), (4, 3)),
    })


def test_halfspek_delta_table():
    r = resolve(GeneratorId("delta", "halfspek"))
    assert r.pairs == frozenset({
        ((0,), (0, 0)), ((0,), (1, 1)),
        ((1,), (0, 1)), ((1,), (1, 0)),
    })


def test_bottom_table():
    r = resolve(GeneratorId("bottom", "mspek"))
    assert r.pairs == frozenset(((), (k,)) for k in (1, 2, 3, 4))


def test_bottom_needs_mspek():
    with pytest.raises(TheoryError):
        GeneratorId("bottom", "spek")


def test_dagger_is_converse():
    d = GeneratorId("delta", "spek")
    assert resolve(d.dagger()) == resolve(d).converse()


def test_arities():
    assert arity(GeneratorId("delta", "spek")) == (1, 2)
    assert arity(GeneratorId("epsilon_dagger", "spek")) == (0, 1)
    assert arity(GeneratorId("swap", "spek")) == (2, 2)


def test_permutation_relations_distinct_and_closed():
    rels = {p: p.relation() for p in s4()}
    assert len(set(rels.values())) == 24
    values = set(rels.values())
    for a, b in itertools.product(rels, repeat=2):
        assert rels[a].then(rels[b]) in values
    for a in rels:
        assert rels[a].converse() in values


def half_generator(g, side):
    """The HalfSpek generator a phased Spek generator restricts to on the
    values of one side ("12" reads 1, 2 as 0, 1; "34" reads 3, 4 so)."""
    if g.tag == "perm":
        return GeneratorId("perm", "halfspek", g.perm.half_restriction(side))
    return GeneratorId(g.tag, "halfspek")


def test_parallel_decomposition_of_phased_generators():
    # a phased generator is the disjoint union of its two-level components
    gens = [GeneratorId(tag, "spek") for tag in
            ("delta", "epsilon", "delta_dagger", "epsilon_dagger")]
    gens += [GeneratorId("perm", "spek", p) for p in phased_permutations()]
    for g in gens:
        whole = resolve(g)
        relabeled = set()
        for side, shift in (("12", 1), ("34", 3)):
            part = resolve(half_generator(g, side))
            for a, b in part.pairs:
                relabeled.add((tuple(x + shift for x in a),
                               tuple(x + shift for x in b)))
        assert whole.pairs == frozenset(relabeled), g.name


def test_half_component_of_phased_perm():
    g = GeneratorId("perm", "spek", perm_from_cycles("(12)"))
    assert resolve(half_generator(g, "12")).pairs == frozenset(
        {((0,), (1,)), ((1,), (0,))})
    assert resolve(half_generator(g, "34")) == rel.identity(rel.II)


def test_half_component_rejects_unphased():
    g = GeneratorId("perm", "spek", perm_from_cycles("(24)"))
    with pytest.raises(ValueError):
        half_generator(g, "12")


def test_generator_sets():
    spek = {g.tag for g in generator_set("spek")}
    assert "bottom" not in spek
    mspek = {g.tag for g in generator_set("mspek")}
    assert "bottom" in mspek


def test_parse_generator_names():
    assert parse_generator_name("eps+", "spek").tag == "epsilon_dagger"
    assert parse_generator_name("delta", "spek").tag == "delta"
    assert parse_generator_name("bot", "mspek").tag == "bottom"
    g = parse_generator_name("perm((12)(34))", "spek")
    assert g.perm == perm_from_cycles("(12)(34)")
    with pytest.raises(ValueError):
        parse_generator_name("bot", "spek")
    with pytest.raises(ValueError):
        parse_generator_name("mystery", "spek")


def test_basis_structure_smoke():
    from spekcat.verification import check_basis_structure
    d = resolve(GeneratorId("delta", "spek"))
    e = resolve(GeneratorId("epsilon", "spek"))
    assert all(check_basis_structure(d, e).values())
