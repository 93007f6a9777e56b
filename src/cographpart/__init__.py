"""Decide and certify (p, q, r)-partitions of cographs.

A (p, q, r)-partition splits a graph's vertices into at most p classes
inducing forests, at most q independent classes, and at most r deleted
vertices. On cographs feasibility is decided exactly by a dynamic program
over the cotree; this package provides the recognizer, the solver with
partition certificates, derived parameters (vertex arboricity, chromatic
number, feedback-style deletions), minimal-obstruction catalogs and
search, and a budgeted brute-force oracle for cross-checking.
"""
from . import cotree, obstructions, oracle, solver, strength
from .cotree import *
from .graph import Graph
from .obstructions import *
from .oracle import *
from .solver import *
from .strength import *

__version__ = "0.1.0"

__all__ = ["Graph", *cotree.__all__, *solver.__all__, *strength.__all__,
           *oracle.__all__, *obstructions.__all__]
