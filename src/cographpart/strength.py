"""Clique-like density measure driving the one-forest-class case.

The strength of a cograph is the larger of its clique number and one plus
the largest s for which 2s vertices induce a complete graph minus a
perfect matching (the cocktail party graph on s pairs). Both quantities
fold over the cotree, so the profile comes out of one bottom-up pass:

* a clique lives inside one side of every union and splits over a join,
* an induced cocktail on s >= 2 pairs is connected, hence inside one union
  part, while a union of two or more vertices always holds a single
  non-adjacent pair (s = 1); joins add the pair counts.
"""
from __future__ import annotations

from typing import NamedTuple

from .cotree import Leaf, Union, _coerce_tree, _fold

__all__ = ["StrengthProfile", "strength_profile", "q_from_strength"]


class StrengthProfile(NamedTuple):
    """omega is the clique number; tau the most pairs in an induced
    complete-minus-perfect-matching subgraph; strength = max(omega, tau+1)."""

    omega: int
    tau: int
    strength: int


def strength_profile(graph_or_tree) -> StrengthProfile:
    """Clique number, maximum induced cocktail pairs, and strength."""
    tree = _coerce_tree(graph_or_tree)
    if tree is None:
        return StrengthProfile(0, 0, 0)
    profile = getattr(tree, "_profile", None)
    if profile is None:
        omega, pairs = _fold(tree, _leaf_profile, _node_profile)
        profile = StrengthProfile(omega, pairs, max(omega, pairs + 1))
        if not isinstance(tree, Leaf):
            object.__setattr__(tree, "_profile", profile)
    return profile


def _leaf_profile(_) -> tuple[int, int]:
    return 1, 0


def _node_profile(n, kids: list[tuple[int, int]]) -> tuple[int, int]:
    omegas, pairs = zip(*kids)
    if isinstance(n, Union):
        return max(omegas), max(*pairs, 1 if len(kids) > 1 else 0)
    return sum(omegas), sum(pairs)


def q_from_strength(strength: int) -> int:
    """Independent classes forced next to a single forest class.

    A cograph of strength s needs exactly max(0, s - 2) independent classes
    when one forest class and no deletions are allowed.
    """
    if strength < 0:
        raise ValueError("strength must be nonnegative")
    return max(0, strength - 2)
