"""Sigma-linked networks of phased zones, as `.spekd` text.

Tests use them to build diagram families of a given size: each zone is a
unit (eps+) followed by a comb of copies, so it is one phased zone with as
many open ports as asked for, and each link is one Sigma box.
"""


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
