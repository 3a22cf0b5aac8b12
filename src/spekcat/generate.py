"""Seeded random diagram generation, used for cross-checking the calculi."""

from __future__ import annotations

import random

from .diagrams import Diagram, slots
from .generators import HALFSPEK, SPEK, GeneratorId
from .permutations import s4, z2


def random_diagram(seed, theory=SPEK, max_boxes=8, max_legs=5) -> Diagram:
    """A small random diagram; the same seed always gives the same diagram.

    Boxes are drawn from the theory's generators, ports are paired into
    wires at random, and a bounded number of ports are left open as legs.
    """
    rng = random.Random(seed)
    perms = sorted(s4() if theory != HALFSPEK else z2(), key=lambda p: p.name)
    tags = ["delta", "delta_dagger", "epsilon", "epsilon_dagger", "perm"]
    if theory == "mspek":
        tags += ["bottom", "bottom_dagger"]

    n_boxes = rng.randint(1, max_boxes)
    boxes = []
    for k in range(n_boxes):
        tag = rng.choice(tags)
        perm = rng.choice(perms) if tag == "perm" else None
        boxes.append(("b%d" % k, GeneratorId(tag, theory, perm)))

    ports = [(name, s) for name, gen in boxes for s in slots(gen)]
    rng.shuffle(ports)
    n_legs = min(rng.randint(0, max_legs), len(ports))
    if (len(ports) - n_legs) % 2:
        n_legs += 1 if n_legs < len(ports) else -1
    leg_ports, rest = ports[:n_legs], ports[n_legs:]
    wires = tuple((rest[i], rest[i + 1]) for i in range(0, len(rest), 2))

    legs = []
    for port in sorted(leg_ports):
        direction = "in" if port[1].startswith("in") else "out"
        legs.append((port, direction))
    return Diagram(theory, tuple(boxes), tuple(wires), tuple(legs)).validate()
