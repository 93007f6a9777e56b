"""Clique-like density measure driving the one-forest-class case.

The strength of a cograph is the larger of its clique number and one plus
the largest s for which 2s vertices induce a complete graph minus a
perfect matching (the cocktail party graph on s pairs). Both quantities
fold over the cotree:

* a clique lives inside one side of every union and splits over a join,
* an induced cocktail on s >= 2 pairs is connected, hence inside one union
  part, while a union of two or more vertices always holds a single
  non-adjacent pair (s = 1); joins add the pair counts.

The clique number is chromatic_number's, which the solver exports and a
cotree root keeps once computed; the profile adds one fold for the pairs.
"""
from __future__ import annotations

from typing import NamedTuple

from .cotree import Join, Leaf, Union, _coerce_tree, _fold

__all__ = ["StrengthProfile", "strength_profile", "q_from_strength"]


class StrengthProfile(NamedTuple):
    """omega is the clique number; tau the most pairs in an induced
    complete-minus-perfect-matching subgraph; strength = max(omega, tau+1)."""

    omega: int
    tau: int
    strength: int


def chromatic_number(graph_or_tree) -> int:
    """Least q such that (0, q, 0) is feasible.

    Cographs are perfect (Seinsche 1974), so this is the clique number: a
    union takes the largest part's, a join adds its children's.
    """
    tree = _coerce_tree(graph_or_tree)
    if tree is None:
        return 0
    omega = getattr(tree, "_omega", None)
    if omega is None:
        omega = _fold(tree, _one, _node_omega)
        if not isinstance(tree, Leaf):
            object.__setattr__(tree, "_omega", omega)
    return omega


def _one(_) -> int:
    return 1


def _node_omega(node, omegas: list[int]) -> int:
    return sum(omegas) if isinstance(node, Join) else max(omegas)


def strength_profile(graph_or_tree) -> StrengthProfile:
    """Clique number, maximum induced cocktail pairs, and strength."""
    tree = _coerce_tree(graph_or_tree)
    if tree is None:
        return StrengthProfile(0, 0, 0)
    profile = getattr(tree, "_profile", None)
    if profile is None:
        omega = chromatic_number(tree)
        pairs = _fold(tree, lambda _: 0, _node_pairs)
        profile = StrengthProfile(omega, pairs, max(omega, pairs + 1))
        if not isinstance(tree, Leaf):
            object.__setattr__(tree, "_profile", profile)
    return profile


def _node_pairs(n, pairs: list[int]) -> int:
    if isinstance(n, Union):
        return max(*pairs, 1 if len(pairs) > 1 else 0)
    return sum(pairs)


def q_from_strength(strength: int) -> int:
    """Independent classes forced next to a single forest class.

    A cograph of strength s needs exactly max(0, s - 2) independent classes
    when one forest class and no deletions are allowed.
    """
    if strength < 0:
        raise ValueError("strength must be nonnegative")
    return max(0, strength - 2)
