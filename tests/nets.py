"""Diagrams for the tests: the goldens, and Sigma-linked networks of
phased zones as `.spekd` text; and a reference for the zones' parity maps.

Tests use the networks to build diagram families of a given size: each
zone is a unit (eps+) followed by a comb of copies, so it is one phased
zone with as many open ports as asked for, and each link is one Sigma box.
"""

import os

from spekcat import diagrams as dg
from spekcat.permutations import Z2_SWAP, Permutation

GOLDEN = os.path.join(os.path.dirname(__file__), "..", "golden")

# A closed zone whose survival constraint is unsatisfiable: the unit state
# {1,3} pushed through (12) then (34) meets the counit's {1,3} selection in
# nothing, so the diagram denotes the empty scalar; its zone profile (0,0)
# makes the type constraint read 0 = 1.
EMPTY_SCALAR = ("box r: eps+\n"
                "box p: perm((12))\n"
                "box q: perm((34))\n"
                "box c: eps\n"
                "wire r.1 p.in\n"
                "wire p.1 q.in\n"
                "wire q.1 c.in\n")


def golden_diagram(name):
    """The diagram in ``golden/<name>.spekd``."""
    with open(os.path.join(GOLDEN, name + ".spekd")) as fh:
        return dg.parse(fh.read())


class Net:
    def __init__(self):
        self.lines = []
        self.n_boxes = 0

    def _box(self, gen):
        name = "b%d" % self.n_boxes
        self.n_boxes += 1
        self.lines.append("box %s: %s" % (name, gen))
        return name

    def zone(self, n_ports):
        """A new zone; returns its open ports."""
        ports, cur = [], "%s.1" % self._box("eps+")
        for _ in range(1, n_ports):
            d = self._box("delta")
            self.lines.append("wire %s %s.in" % (cur, d))
            ports.append("%s.1" % d)
            cur = "%s.2" % d
        return ports + [cur]

    def link(self, a, b):
        s = self._box("perm((24))")
        self.lines += ["wire %s %s.in" % (a, s), "wire %s.1 %s" % (s, b)]

    def text(self, legs):
        return "\n".join(self.lines + ["out " + " ".join(legs)]) + "\n"


def chain_int(n):
    """n zones in a Sigma-linked path; only the first zone has a leg."""
    net = Net()
    zones = [net.zone((i > 0) + (i < n - 1) + (i == 0)) for i in range(n)]
    for i in range(n - 1):
        net.link(zones[i][-1], zones[i + 1][0])
    return net.text([zones[0][0]])


def fan(m):
    """m internal zones, each Sigma-linked to the same two external zones."""
    net = Net()
    a, b = net.zone(m + 1), net.zone(m + 1)
    for i in range(m):
        left, right = net.zone(2)
        net.link(left, a[i + 1])
        net.link(right, b[i + 1])
    return net.text([a[0], b[0]])


def chain(n):
    """n zones in a Sigma-linked path, one leg on each."""
    net = Net()
    zones = [net.zone(1 + (i > 0) + (i < n - 1)) for i in range(n)]
    for i in range(n - 1):
        net.link(zones[i][-1], zones[i + 1][1])
    return net.text([z[0] for z in zones])


def grid(w):
    """w x w zones, each Sigma-linked to its right and lower neighbours;
    the corner zone has one extra port, the only leg."""
    net = Net()
    ports = [[net.zone((r > 0) + (r < w - 1) + (c > 0) + (c < w - 1)
                       + (r == c == 0)) for c in range(w)] for r in range(w)]
    for r in range(w):
        for c in range(w):
            if c < w - 1:
                net.link(ports[r][c].pop(), ports[r][c + 1].pop())
            if r < w - 1:
                net.link(ports[r][c].pop(), ports[r + 1][c].pop())
    return net.text(ports[0][0])


def half_restriction(perm, side):
    """The {1,2}- or {3,4}-component of a phased permutation, as a base-2
    permutation: side "12" reads 1, 2 as 0, 1; side "34" reads 3, 4 so."""
    if not perm.is_phased:
        raise ValueError("%s is not phased" % perm.name)
    lo = 1 if side == "12" else 3
    return Permutation(2, (perm(lo) - lo, perm(lo + 1) - lo))


def zone_profile(diagram, boxes):
    """(psi(0), psi(1)) of a zone, by counting swap shadows: 1 plus the
    number of its perm boxes that restrict to the two-level swap on the
    {1,2} plane (type 0) or the {3,4} plane (type 1), mod 2."""
    box_map = dict(diagram.boxes)
    psi = []
    for side in ("12", "34"):
        swaps = 0
        for name in boxes:
            gen = box_map[name]
            if gen.tag == "perm" and \
                    half_restriction(gen.perm, side) == Z2_SWAP:
                swaps += 1
        psi.append((1 + swaps) % 2)
    return tuple(psi)


def odd_adjacency(zd):
    """Per zone, the zones linked to it an odd number of times, read off
    ``zd.links`` (self-links drop out)."""
    odd = [set() for _ in zd.zones]
    for a, b in zd.links:
        if a != b:
            odd[a] ^= {b}
            odd[b] ^= {a}
    return odd


def reference_parity(zd):
    """Zone i's ``(mask, offset)``, from its boxes and the link list alone:
    the profile psi_i(T_i) = a + (a + a1) T_i, flipped by T_i + T_j for each
    zone j linked to it oddly often."""
    maps = []
    for i, (z, adj) in enumerate(zip(zd.zones, odd_adjacency(zd))):
        a, a1 = zone_profile(zd.diagram, z.boxes)
        mask = (((a ^ a1) + len(adj)) % 2) << i
        for j in adj:
            mask ^= 1 << j
        maps.append((mask, a))
    return tuple(maps)
