"""Reference diagrams with known closed forms, used as fixtures and demos."""

from __future__ import annotations

from .diagrams import Diagram, parse


def _tree(lines, prefix, n_ports, profile_cycles=None):
    """Emit DSL lines for one phased zone with ``n_ports`` open ports.

    The zone is a counit-rooted comb of copy boxes, optionally with one
    permutation box spliced onto the first port to set the zone profile.
    Returns the list of port tokens.
    """
    lines.append("box %sr: eps+" % prefix)
    ports = []
    cur = "%sr.1" % prefix
    for k in range(1, n_ports):
        name = "%sd%d" % (prefix, k)
        lines.append("box %s: delta" % name)
        lines.append("wire %s %s.in" % (cur, name))
        ports.append("%s.1" % name)
        cur = "%s.2" % name
    ports.append(cur)
    if profile_cycles:
        pname = "%sp" % prefix
        lines.append("box %s: perm(%s)" % (pname, profile_cycles))
        lines.append("wire %s %s.in" % (ports[0], pname))
        ports[0] = "%s.1" % pname
    return ports


def _link(lines, name, port_a, port_b):
    lines.append("box %s: perm((24))" % name)
    lines.append("wire %s %s.in" % (port_a, name))
    lines.append("wire %s.1 %s" % (name, port_b))


def triangle_diagram() -> Diagram:
    """Three mutually linked zones with profiles (0,0), (0,1) and (1,0).

    Five open legs: two on the first zone, one on the second, two on the
    third.  Its state has 32 tuples in 8 blocks.
    """
    lines = []
    z1 = _tree(lines, "a", 4, "(12)(34)")
    z2 = _tree(lines, "b", 3, "(12)")
    z3 = _tree(lines, "c", 4, "(34)")
    _link(lines, "s12", z1[2], z2[1])
    _link(lines, "s13", z1[3], z3[2])
    _link(lines, "s23", z2[2], z3[3])
    lines.append("out %s %s %s %s %s" % (z1[0], z1[1], z2[0], z3[0], z3[1]))
    return parse("\n".join(lines) + "\n")


def triangle_internalized_diagram() -> Diagram:
    """The triangle with its middle zone closed off.

    The middle zone's open leg is routed through the permutation (12)(34)
    into a counit, which absorbs the permutation into the zone and flips
    its profile to (1,0).  Four open legs remain; the state has 16 tuples
    in 4 blocks and the internal zone contributes the type constraint
    T1 + T2 + T3 = 0.
    """
    lines = []
    z1 = _tree(lines, "a", 4, "(12)(34)")
    z2 = _tree(lines, "b", 3, "(12)")
    z3 = _tree(lines, "c", 4, "(34)")
    _link(lines, "s12", z1[2], z2[1])
    _link(lines, "s13", z1[3], z3[2])
    _link(lines, "s23", z2[2], z3[3])
    lines.append("box capp: perm((12)(34))")
    lines.append("box cape: eps")
    lines.append("wire %s capp.in" % z2[0])
    lines.append("wire capp.1 cape.in")
    lines.append("out %s %s %s %s" % (z1[0], z1[1], z3[0], z3[1]))
    return parse("\n".join(lines) + "\n")


def chain_diagram() -> Diagram:
    """Seven zones in two linked chains, four of them internal.

    Canonical zone order puts the three external zones first; the internal
    zones 4, 5, 6 and 7 (1-based) have external neighbourhoods {1}, {2,3},
    {2} and {3}.  Zones 5, 6 and 7 together cover each external neighbour
    exactly twice, which is the unique minimal evenly-covering set; one of
    the four internal constraints is dependent on the others, so every
    block signature is tallied twice.
    """
    lines = []
    # external zones first so they take canonical indices 1..3 via legs
    z2 = _tree(lines, "e2", 2)                 # external, linked to zone 1
    z4 = _tree(lines, "e4", 3)                 # external, linked to 3 and 6
    z5 = _tree(lines, "e5", 3)                 # external, linked to 3 and 7
    z1 = _tree(lines, "i1", 1, "(34)")         # internal, profile (1, 0)
    z3 = _tree(lines, "i3", 2)                 # internal, profile (1, 1)
    z6 = _tree(lines, "i6", 1, "(12)")         # internal, profile (0, 1)
    z7 = _tree(lines, "i7", 1, "(12)")         # internal, profile (0, 1)
    _link(lines, "sa", z1[0], z2[1])
    _link(lines, "sb", z3[0], z4[1])
    _link(lines, "sc", z3[1], z5[1])
    _link(lines, "sd", z6[0], z4[2])
    _link(lines, "se", z7[0], z5[2])
    lines.append("out %s %s %s" % (z2[0], z4[0], z5[0]))
    return parse("\n".join(lines) + "\n")


def empty_scalar_diagram() -> Diagram:
    """A closed zone whose survival constraint is unsatisfiable.

    The unit state {1,3} pushed through (12)(3)(4) then (1)(2)(34) meets the
    counit's {1,3} selection in nothing, so the diagram denotes the empty
    scalar; its zone profile (0,0) makes the type constraint read 0 = 1.
    """
    return parse("box r: eps+\n"
                 "box p: perm((12))\n"
                 "box q: perm((34))\n"
                 "box c: eps\n"
                 "wire r.1 p.in\n"
                 "wire p.1 q.in\n"
                 "wire q.1 c.in\n")


def empty_state_diagram() -> Diagram:
    """The empty scalar tensored with a two-leg state: the empty state."""
    base = empty_scalar_diagram().to_source()
    extra = ("box u: eps+\n"
             "box d: delta\n"
             "wire u.1 d.in\n"
             "out d.1 d.2\n")
    return parse(base + extra)


def ghz_diagram() -> Diagram:
    """One copy box bent into a three-legged state."""
    return parse("box u: eps+\n"
                 "box d1: delta\n"
                 "box d2: delta\n"
                 "wire u.1 d1.in\n"
                 "wire d1.1 d2.in\n"
                 "out d2.1 d2.2 d1.2\n")


def eta_diagram() -> Diagram:
    """The induced cup: copy box fed by the unit, denoting the diagonal."""
    return parse("box u: eps+\n"
                 "box d: delta\n"
                 "wire u.1 d.in\n"
                 "out d.1 d.2\n")
