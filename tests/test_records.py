"""Value semantics of the record types: immutable, compared and hashed by
their fields, printed as ``Name(field=value, ...)``."""

import pytest

from nets import chain, golden_diagram
from spekcat import diagrams as dg
from spekcat import signatures as sg
from spekcat import verification as vf
from spekcat.generators import GeneratorId, TheoryError, resolve
from spekcat.permutations import SIGMA, Permutation
from spekcat.relations import Space

# the records whose cached properties live in an instance dictionary
CACHING = (dg.Diagram, Permutation, sg.StateForm)


def records():
    triangle = golden_diagram("triangle")
    form, zd = sg.state_form(triangle)
    states = vf.enumerate_states("halfspek", 1)
    return [Space(4, 1), resolve(GeneratorId("delta")), SIGMA,
            GeneratorId("perm", "spek", SIGMA), triangle, zd.zones[0], zd,
            form.system, form, sg.duplication_analysis(dg.parse(chain(3))),
            vf.enumerate_closure("halfspek"), vf.check_kbp(states[1][0]),
            vf.check_map_state_duality("halfspek"),
            vf.check_mspek_cardinalities(states, "halfspek")]


@pytest.mark.parametrize("record", records(),
                         ids=lambda r: type(r).__name__)
def test_record_is_a_value(record):
    cls = type(record)
    for field in cls._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    twin = cls(**{f: getattr(record, f) for f in cls._fields})
    assert twin == record and twin is not record
    assert repr(record) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % (f, getattr(record, f)) for f in cls._fields))
    assert hasattr(record, "__dict__") == (cls in CACHING)
    try:
        assert hash(twin) == hash(record)
    except TypeError:           # a dict field: unhashable, as before
        pass


def test_equality_and_hash_follow_the_fields():
    assert Space(4, 2) == Space(4, 2) and Space(4, 2) != Space(2, 2)
    assert hash(Space(4, 2)) == hash(Space(4, 2))
    assert len({GeneratorId("delta"), GeneratorId("delta"),
                GeneratorId("epsilon")}) == 2
    # a record is a tuple: it equals the plain tuple of its fields
    assert Space(4, 1) == (4, 1)


def test_defaults_and_keywords():
    assert Space() == Space(4, 0) == Space(1, 3) == Space(base=1, arity=0)
    assert Space(arity=2, base=4) == Space(4, 2)
    assert GeneratorId("delta").theory == "spek"
    assert GeneratorId("delta").perm is None
    assert dg.Diagram() == dg.Diagram("spek", (), (), ())
    assert dg.Diagram(theory="halfspek").boxes == ()


def test_construction_checks_still_raise():
    for base, arity in ((3, 1), (4, -1)):
        with pytest.raises(ValueError):
            Space(base, arity)
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation(4, (1, 1, 2, 3))
    with pytest.raises(TheoryError, match="unknown theory"):
        GeneratorId("delta", "nope")
    with pytest.raises(TheoryError, match="only a generator of MSpek"):
        GeneratorId("bottom")
    with pytest.raises(ValueError, match="needs a permutation"):
        GeneratorId("perm")
    with pytest.raises(TheoryError, match="does not fit"):
        GeneratorId("perm", "halfspek", SIGMA)
    with pytest.raises(ValueError, match="only perm generators"):
        GeneratorId("delta", perm=SIGMA)


def test_cached_properties_are_computed_once(monkeypatch):
    d = golden_diagram("triangle")
    assert d.ports is d.ports
    p = Permutation(4, (2, 1, 3, 4))
    assert "is_phased" not in p.__dict__
    assert p.is_phased and p.__dict__["is_phased"] is True
    form, _ = sg.state_form(d)
    walks = []
    walk = sg.StateForm.walk
    monkeypatch.setattr(sg.StateForm, "walk",
                        lambda self: walks.append(self) or walk(self))
    assert form.signatures is form.signatures and len(walks) == 1
    # the cache is no field: equality stays that of the fields
    assert form == form._replace()

