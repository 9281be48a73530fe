"""Finite reflection groups, each given by its simple reflections.

A group is its root system and the indices of the simple roots whose
reflections generate it (all of them, or a subset for a parabolic
subgroup); no element is ever listed.  Everything runs on the vector of
simple pairings p_j = <alpha_j, y>_G, kept as integers (a point with its
denominators cleared, against ``rs.integer_covectors``): reflecting in
alpha_i sends p_j to p_j - p_i * cartan[i][j] and moves the point's
numerators by -p_i rows[i] / d, (d, rows) = ``rs.simple_steps``, the step
that ``rootsys.reflection_permutation`` takes on a list of points.  The
part of a point orthogonal to the roots is fixed by the group, so within
one orbit the pairings determine the point.  ``orbit`` walks them
breadth-first from x, moving each point once from its parent; the order
of a group is the orbit size of a regular point (W acts simply
transitively on the chambers); ``to_dominant`` descends along negative
pairings.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .linalg import Vec, cleared
from .rootsys import RootSystem, simple_pairings

DEFAULT_ORDER_CAP = 51840


@dataclass(frozen=True)
class WeylGroup:
    """The reflection group generated by the simple reflections in
    ``generator_indices`` (sorted simple-root indices)."""

    root_system: RootSystem
    generator_indices: tuple

    @functools.cached_property
    def order(self) -> int:
        """The number of elements: the orbit size of the point whose simple
        pairings are all 1, which no reflection of the group fixes."""
        return len(_walk(self, (1,) * self.root_system.rank))


def generate(rs: RootSystem, *, order_cap: int = DEFAULT_ORDER_CAP) -> WeylGroup:
    """The full Weyl group of rs; ValueError if its order passes order_cap,
    checked while the order is walked."""
    group = WeylGroup(rs, tuple(range(rs.rank)))
    # seed the cached order from the one walk that enforces the cap
    group.__dict__["order"] = len(_walk(group, (1,) * rs.rank, order_cap))
    return group


def _reflect(p: tuple, i: int, cartan) -> tuple:
    """The simple pairings after reflecting in alpha_i."""
    pi = p[i]
    return tuple([a - pi * c for a, c in zip(p, cartan[i])])


def _walk(group: WeylGroup, p: tuple, cap: int | None = None) -> dict:
    """The pairing vectors of the orbit of p, breadth-first from p under the
    generators in index order, each mapped to the step that found it: its
    parent's pairings, the simple root reflected in and the parent's
    pairing with it ((None, 0, 0) for p itself)."""
    cartan = group.root_system.cartan_matrix
    found = {p: (None, 0, 0)}
    frontier = [p]
    while frontier:
        fresh = []
        for q in frontier:
            for i in group.generator_indices:
                if not q[i]:
                    continue
                image = _reflect(q, i, cartan)
                if image in found:
                    continue
                if cap is not None and len(found) >= cap:
                    raise ValueError(
                        f"group order exceeds the cap of {cap}; "
                        "this rank is not supported for exact enumeration"
                    )
                found[image] = (q, i, q[i])
                fresh.append(image)
        frontier = fresh
    return found


def orbit(group: WeylGroup, x) -> tuple:
    """The exact orbit of x, breadth-first from x under the generators
    (x first, each point once).  Each point is its parent's cleared
    numerators moved once, in integers."""
    rs = group.root_system
    d, steps = rs.simple_steps
    den, xs = cleared(x)
    ints = {None: [d * t for t in xs]}
    for q, (parent, i, m) in _walk(group, tuple(simple_pairings(rs, x))).items():
        ints[q] = [t - m * s for t, s in zip(ints[parent], steps[i])]
    del ints[None]
    return tuple(tuple([Fraction(t, d * den) for t in y]) for y in ints.values())


class DominantResult(NamedTuple):
    vector: Vec
    word: tuple


def to_dominant(group: WeylGroup, x) -> DominantResult:
    """The dominant representative of x's orbit and a witness word.

    Returns (x_plus, word): the element w spelled by word maps x to x_plus,
    whose simple pairings are all nonnegative.  w is the shortest such
    element (it is unique) and word its shortlex-least reduced word.
    Reflecting x in generators that pair negatively with it reaches x_plus
    along w, x's cleared numerators moved along in integers.  The same
    steps take the point rho with all pairings 1 to w rho, and
    <alpha_i, w rho> < 0 exactly when w^-1 alpha_i is negative, i.e. when
    s_i is a left descent of w.  So the word is read by walking w rho back
    to rho, each letter the least generator pairing negatively.
    """
    rs = group.root_system
    p = simple_pairings(rs, x)
    rho = (1,) * rs.rank
    cartan = rs.cartan_matrix
    gens = group.generator_indices
    d, steps = rs.simple_steps
    den, y = cleared(x)
    y = [d * t for t in y]
    while (i := next((i for i in gens if p[i] < 0), None)) is not None:
        y = [t - p[i] * s for t, s in zip(y, steps[i])]
        p = _reflect(p, i, cartan)
        rho = _reflect(rho, i, cartan)
    if any(pj < 0 for pj in p):
        raise ValueError(
            "no dominant representative found; the group does not contain the "
            "full Weyl group of the root system"
        )
    word = []
    while (i := next((i for i in gens if rho[i] < 0), None)) is not None:
        word.append(i)
        rho = _reflect(rho, i, cartan)
    return DominantResult(tuple([Fraction(t, d * den) for t in y]), tuple(word))
