import itertools

import pytest

from spekcat.diagrams import DiagramError, parse
from spekcat.permutations import (IDENTITY_2, IDENTITY_4, SIGMA, Z2_SWAP,
                                  Permutation, perm_from_cycles,
                                  phased_permutations, s4, sigma_decompose,
                                  z2)


def compose_all(perms):
    out = IDENTITY_4
    for p in perms:
        out = out.then(p)
    return out


def test_group_sizes():
    assert len(s4()) == 24
    assert len(z2()) == 2
    assert len(phased_permutations()) == 4


def test_phased_classification():
    assert IDENTITY_4.is_phased
    assert not SIGMA.is_phased
    assert perm_from_cycles("(12)(34)").is_phased
    assert not perm_from_cycles("(1234)").is_phased


def test_sigma_is_24():
    assert SIGMA(2) == 4 and SIGMA(4) == 2
    assert SIGMA(1) == 1 and SIGMA(3) == 3


def test_cycle_parser_accepts_omitted_fixed_points():
    assert perm_from_cycles("(12)") == perm_from_cycles("(12)(3)(4)")


def test_canonical_name_includes_fixed_points():
    assert perm_from_cycles("(24)").name == "(1)(24)(3)"
    assert IDENTITY_4.name == "(1)(2)(3)(4)"


def test_sigma_decompose_identity_is_empty():
    assert sigma_decompose(IDENTITY_4) == ()


def test_sigma_decompose_sigma_is_itself():
    assert sigma_decompose(SIGMA) == (SIGMA,)


def test_sigma_decompose_recomposes_everywhere():
    for p in s4():
        assert compose_all(sigma_decompose(p)) == p


def test_sigma_decompose_phased_needs_no_sigma():
    for p in phased_permutations():
        assert SIGMA not in sigma_decompose(p)


def test_sigma_decompose_unphased_uses_sigma():
    for p in s4():
        if not p.is_phased:
            assert SIGMA in sigma_decompose(p)


def test_four_cycle_decomposition():
    p = perm_from_cycles("(1234)")
    factors = sigma_decompose(p)
    assert compose_all(factors) == p
    for f in factors:
        assert f == SIGMA or f.is_phased


def test_inverse():
    for p in s4():
        assert p.then(p.inverse()) == IDENTITY_4


def test_half_restriction():
    p = perm_from_cycles("(12)")
    assert p.half_restriction("12") == Z2_SWAP
    assert p.half_restriction("34") == IDENTITY_2


def test_kept_properties_raise_and_keep_equality():
    for _ in range(2):          # the second round reads the kept values
        with pytest.raises(ValueError):
            Z2_SWAP.is_phased
        for p in s4():
            if p.is_phased:
                assert p.half_restriction("12") is p.half_restriction("12")
                assert p.half_restriction("34").base == 2
            else:
                with pytest.raises(ValueError):
                    p.half_restriction("12")
            assert p == Permutation(p.base, p.images)
            assert hash(p) == hash(Permutation(p.base, p.images))
    assert perm_from_cycles("(12)").half_restriction("12") == Z2_SWAP


def test_relation_matches_images():
    p = perm_from_cycles("(1234)")
    assert ((1,), (2,)) in p.relation().pairs


def test_bad_cycles_rejected():
    with pytest.raises(ValueError):
        perm_from_cycles("(15)")
    with pytest.raises(ValueError):
        perm_from_cycles("(11)")
    # only the carrier's own digits: no foreign digits, spaces or letters
    for cycles in ("(\u0661\u0662)", "(1 2)", "(a)"):
        with pytest.raises(ValueError, match="bad element"):
            perm_from_cycles(cycles)
        with pytest.raises(DiagramError, match="line 2: bad element"):
            parse("\nbox p: perm(%s)\nin p.in\nout p.1\n" % cycles)


def test_sigma_table_matches_word_search():
    # reference: rank every word of length <= 5 over the phased
    # permutations and Sigma by (Sigma count, length, factor names)
    alphabet = sorted(phased_permutations(), key=lambda p: p.name) + [SIGMA]
    best = {}
    for length in range(6):
        for word in itertools.product(alphabet, repeat=length):
            key = (word.count(SIGMA), length, tuple(f.name for f in word))
            p = compose_all(word)
            if p not in best or key < best[p][0]:
                best[p] = (key, word)
    assert len(best) == 24
    for p, (_, word) in best.items():
        assert sigma_decompose(p) == word
