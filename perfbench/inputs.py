"""Seeded `.spekd` inputs for the benchmark, built without importing spekcat.

The benchmark owns its inputs so that an edit to ``spekcat.generate`` or
``spekcat.worked`` cannot change a workload.  Every builder returns DSL
text, drawn from the ``random.Random`` it is given, so one seed gives one
text, byte for byte.
"""

import itertools

SIGMA = "perm((24))"
TAGS = ("delta", "delta_dagger", "epsilon", "epsilon_dagger", "perm")
DSL_NAME = {"delta": "delta", "delta_dagger": "delta+",
            "epsilon": "eps", "epsilon_dagger": "eps+"}
SLOTS = {"delta": ("in", "1", "2"), "delta_dagger": ("in", "in2", "1"),
         "epsilon": ("in",), "epsilon_dagger": ("1",), "perm": ("in", "1")}


def _cycle_name(images):
    """Cycle notation with fixed points written, e.g. '(1)(24)(3)'."""
    seen, out = set(), []
    for x in (1, 2, 3, 4):
        if x in seen:
            continue
        cyc, y = [], x
        while y not in seen:
            seen.add(y)
            cyc.append(str(y))
            y = images[y - 1]
        out.append("(%s)" % "".join(cyc))
    return "".join(out)


# all 24 permutations of {1..4}, in the order of their names
S4_NAMES = sorted(_cycle_name(p) for p in itertools.permutations((1, 2, 3, 4)))


def random_spekd(rng, n_boxes, n_open):
    """One small random Spek diagram, drawn as ``spekcat compare --random``
    draws one once it has drawn ``n_boxes`` and ``n_open``: boxes over the
    five generator tags and all 24 permutations, ports paired into wires at
    random and ``n_open`` ports left open (one fewer or more where needed to
    pair the rest)."""
    boxes = []
    for k in range(n_boxes):
        tag = rng.choice(TAGS)
        gen = "perm(%s)" % rng.choice(S4_NAMES) if tag == "perm" \
            else DSL_NAME[tag]
        boxes.append(("b%d" % k, tag, gen))
    ports = [(name, s) for name, tag, _ in boxes for s in SLOTS[tag]]
    rng.shuffle(ports)
    n_legs = min(n_open, len(ports))
    if (len(ports) - n_legs) % 2:
        n_legs += 1 if n_legs < len(ports) else -1
    legs, rest = sorted(ports[:n_legs]), ports[n_legs:]
    lines = ["box %s: %s" % (name, gen) for name, _, gen in boxes]
    lines += ["wire %s.%s %s.%s" % (rest[i] + rest[i + 1])
              for i in range(0, len(rest), 2)]
    ins = ["%s.%s" % p for p in legs if p[1].startswith("in")]
    outs = ["%s.%s" % p for p in legs if not p[1].startswith("in")]
    if ins:
        lines.append("in " + " ".join(ins))
    if outs:
        lines.append("out " + " ".join(outs))
    return "\n".join(lines) + "\n"


class _Net:
    """Phased zones joined by Sigma boxes, before names are shuffled.

    Each zone is a unit (eps+) followed by a comb of copy boxes, so it is
    one phased zone with as many open ports as asked for.
    """

    def __init__(self):
        self.boxes = []          # (name, generator)
        self.wires = []          # (port, port)

    def zone(self, n_ports):
        k = len(self.boxes)
        root = "z%dr" % k
        self.boxes.append((root, "eps+"))
        ports, cur = [], (root, "1")
        for j in range(1, n_ports):
            name = "z%dd%d" % (k, j)
            self.boxes.append((name, "delta"))
            self.wires.append((cur, (name, "in")))
            ports.append((name, "1"))
            cur = (name, "2")
        return ports + [cur]

    def link(self, a, b):
        name = "s%d" % len(self.boxes)
        self.boxes.append((name, SIGMA))
        self.wires += [(a, (name, "in")), ((name, "1"), b)]

    def text(self, legs, rng):
        """DSL text with box names, declaration order and wire ends
        shuffled by ``rng``; the leg order, and so the relation, is fixed."""
        names = ["b%d" % k for k in range(len(self.boxes))]
        rng.shuffle(names)
        rename = {old: new for (old, _), new in zip(self.boxes, names)}

        def port(p):
            return "%s.%s" % (rename[p[0]], p[1])

        boxes = ["box %s: %s" % (rename[b], g) for b, g in self.boxes]
        wires = []
        for a, b in self.wires:
            if rng.random() < 0.5:
                a, b = b, a
            wires.append("wire %s %s" % (port(a), port(b)))
        rng.shuffle(boxes)
        rng.shuffle(wires)
        out = "out " + " ".join(port(p) for p in legs)
        return "\n".join(boxes + wires + [out]) + "\n"


def chain_int(n, rng):
    """n zones in a Sigma-linked path; only the first zone has a leg."""
    net = _Net()
    zones = [net.zone((i > 0) + (i < n - 1) + (i == 0)) for i in range(n)]
    for i in range(n - 1):
        net.link(zones[i][-1], zones[i + 1][0])
    return net.text([zones[0][0]], rng)


def fan(m, rng):
    """m internal zones, each Sigma-linked to the same two external zones."""
    net = _Net()
    a, b = net.zone(m + 1), net.zone(m + 1)
    for i in range(m):
        left, right = net.zone(2)
        net.link(left, a[i + 1])
        net.link(right, b[i + 1])
    return net.text([a[0], b[0]], rng)


def chain(n, rng):
    """n zones in a Sigma-linked path, one leg on each."""
    net = _Net()
    zones = [net.zone(1 + (i > 0) + (i < n - 1)) for i in range(n)]
    for i in range(n - 1):
        net.link(zones[i][-1], zones[i + 1][1])
    return net.text([z[0] for z in zones], rng)


FAMILIES = {"chain-int": chain_int, "fan": fan, "chain": chain}
