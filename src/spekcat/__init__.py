"""Exact relational models of the toy theories Spek, MSpek and HalfSpek."""

from .relations import (CapacityError, CompositionError, Relation, Space,
                        identity)
from .generators import GeneratorId, TheoryError, generator_set, resolve
from .diagrams import Diagram, DiagramError, bend_leg, evaluate, parse

__all__ = [
    "CapacityError", "CompositionError", "Relation", "Space",
    "identity",
    "GeneratorId", "TheoryError", "generator_set", "resolve",
    "Diagram", "DiagramError", "bend_leg", "evaluate", "parse",
]
