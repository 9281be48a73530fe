"""Finite reflection groups, each element stored as a permutation of the roots.

The simple reflections s_a(v) = v - 2 <a, v>_G / <a, a>_G * a permute
``rs.roots`` (root data is closed under them, see ``rootsys``), and the
roots span everything the group moves, so ``perm[k]`` = index of the image
of the k-th root determines an element.  ``generate`` enumerates the group
breadth-first, composing permutations by tuple indexing.  BFS order (word
length first, then lexicographic on generator indices) makes ``words[i]``
the shortlex-least reduced word of element i and fixes every canonical
choice downstream: ``to_dominant`` returns the BFS-first witness and
orbits are listed in first-discovery order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .linalg import Vec, cleared, int_dot, primitive, vec
from .rootsys import RootSystem

DEFAULT_ORDER_CAP = 51840


@dataclass(frozen=True)
class WeylGroup:
    """A reflection group with its elements as root permutations.

    ``generator_indices`` names the simple roots whose reflections generate
    the group (all of them, or a subset for a parabolic subgroup).
    ``perms[i]`` is element i acting on the indices of ``root_system.roots``
    and ``words[i]`` spells it in simple-root indices: ``s_{w_1} ... s_{w_k}``.
    """

    root_system: RootSystem
    generator_indices: tuple
    perms: tuple
    words: tuple

    @property
    def order(self) -> int:
        return len(self.perms)


def point_permutation(rs: RootSystem, index: int, points) -> tuple:
    """How the index-th simple reflection permutes a list of integer points
    (rational points cleared over one common denominator), or ValueError.

    With c the root's row of ``rs.integer_covectors`` and a the primitive
    integer multiple of the root, s(y) = y - 2 <c, y> / <c, a> * a.  As a is
    primitive, the image is integral exactly when <c, a> divides 2 <c, y>;
    otherwise it is no point of the list.
    """
    cov = rs.integer_covectors[rs.simple_positions[index]]
    alpha = primitive(rs.simple_roots[index])
    norm = int_dot(cov, alpha)
    where = {p: k for k, p in enumerate(points)}
    image = []
    for p in points:
        t, r = divmod(2 * int_dot(cov, p), norm)
        image.append(
            None if r else where.get(tuple(x - t * a for x, a in zip(p, alpha)))
        )
    if None in image:
        raise ValueError("the group does not preserve the point set")
    return tuple(image)


def generate(rs: RootSystem, *, order_cap: int = DEFAULT_ORDER_CAP) -> WeylGroup:
    """The full Weyl group of rs by breadth-first closure."""
    return generate_subgroup(rs, range(rs.rank), order_cap=order_cap)


def generate_subgroup(
    rs: RootSystem, generator_indices, *, order_cap: int = DEFAULT_ORDER_CAP
) -> WeylGroup:
    """The subgroup generated by the reflections in the given simple roots."""
    gen_idx = tuple(sorted(set(int(i) for i in generator_indices)))
    if any(i < 0 or i >= rs.rank for i in gen_idx):
        raise ValueError("generator index out of range")
    gens = [rs.simple_reflection_perms[i] for i in gen_idx]
    perms = [tuple(range(len(rs.roots)))]
    words = [()]
    seen = {perms[0]}
    frontier = [0]
    while frontier:
        next_frontier = []
        for ei in frontier:
            base = perms[ei]
            for gi, g in zip(gen_idx, gens):
                # (base . s_g)(root_k) = base(s_g(root_k))
                prod = tuple([base[j] for j in g])
                if prod in seen:
                    continue
                if len(perms) >= order_cap:
                    raise ValueError(
                        f"group order exceeds the cap of {order_cap}; "
                        "this rank is not supported for exact enumeration"
                    )
                seen.add(prod)
                perms.append(prod)
                words.append(words[ei] + (gi,))
                next_frontier.append(len(perms) - 1)
        frontier = next_frontier
    return WeylGroup(
        root_system=rs,
        generator_indices=gen_idx,
        perms=tuple(perms),
        words=tuple(words),
    )


def orbit(group: WeylGroup, x) -> tuple:
    """The exact orbit of x, in first-discovery (BFS element) order.

    x is sum_i c_i alpha_i plus a part orthogonal to the roots that the
    group fixes, so w x = x + sum_i c_i (w(alpha_i) - alpha_i), with
    w(alpha_i) read off w's permutation.  The c_i come from x's cleared
    numerators and ``rs.coefficient_covectors``, and the sums run over
    ``rs.integer_roots``, all scaled to integers; only the returned points
    are Fractions.
    """
    rs = group.root_system
    den, xs = cleared(x)
    d, rows = rs.coefficient_covectors
    r, roots = rs.integer_roots
    # with scale = d * den * r: c is scale / r * c_i, and base is scale times
    # x - sum_i c_i alpha_i
    coeffs = [int_dot(v, xs) for v in rows]
    parts = [(k, c) for k, c in zip(rs.simple_positions, coeffs) if c]
    base = tuple(d * r * t for t in xs)
    for k, c in parts:
        base = tuple(t - c * a for t, a in zip(base, roots[k]))
    # scaled c * root, filled in for the roots the group reaches
    tables = [(k, c, {}) for k, c in parts]
    images = {}
    for perm in group.perms:
        y = base
        for k, c, table in tables:
            j = perm[k]
            if j not in table:
                table[j] = tuple(c * t for t in roots[j])
            y = tuple(map(int.__add__, y, table[j]))
        images.setdefault(y, None)
    scale = d * den * r
    return tuple(tuple(Fraction(t, scale) for t in y) for y in images)


class DominantResult(NamedTuple):
    vector: Vec
    word: tuple


def to_dominant(group: WeylGroup, x) -> DominantResult:
    """The dominant representative of x's orbit and a witness word.

    Returns (x_plus, word): the element w spelled by word maps x to x_plus,
    whose simple pairings are all nonnegative.  w is the shortest such
    element (it is unique) and word its shortlex-least reduced word, i.e.
    the BFS-first witness.  Reflecting x in simple roots that pair
    negatively with it reaches x_plus along w.  The walk runs on the simple
    pairings p_j = <alpha_j, y>_G alone, kept as integers (x with its
    denominators cleared, against ``rs.integer_covectors``): reflecting in
    alpha_i sends p_j to p_j - p_i * cartan[i][j] and moves y by
    -p_i alpha_i^v, so the moves are summed per simple root and x_plus is
    assembled once at the end.  The word is then read greedily from the
    left, each letter the least i with w^-1(alpha_i) negative, where
    ``inv[k]`` indexes w^-1(root_k).
    """
    rs = group.root_system
    xv = vec(x)
    if len(xv) != rs.ambient_dim:
        raise ValueError(
            f"dimension mismatch: expected vectors of length {rs.ambient_dim}"
        )
    den, xs = cleared(xv)
    covectors = rs.integer_covectors
    p = [int_dot(covectors[k], xs) for k in rs.simple_positions]
    cartan = rs.cartan_matrix
    # BFS lists the generators right after the identity, in index order.
    gens = dict(zip(group.generator_indices, group.perms[1:]))
    inv = group.perms[0]
    moves = [0] * rs.rank
    while (i := next((i for i in gens if p[i] < 0), None)) is not None:
        pi = p[i]
        moves[i] += pi
        p = [pj - pi * a for pj, a in zip(p, cartan[i])]
        inv = tuple([inv[j] for j in gens[i]])
    if any(pj < 0 for pj in p):
        raise ValueError(
            "no dominant representative found; the group does not contain the "
            "full Weyl group of the root system"
        )
    y = xv
    scale = den * rs.covector_scale
    for i, move in enumerate(moves):
        if move:
            c = Fraction(2 * move, scale) / rs.simple_gram[i][i]
            y = tuple(t - c * a for t, a in zip(y, rs.simple_roots[i]))
    positives = len(rs.positive_roots)
    simple_ids = {i: rs.simple_positions[i] for i in gens}
    word = []
    while descents := [i for i, k in simple_ids.items() if inv[k] >= positives]:
        word.append(descents[0])
        inv = tuple([inv[j] for j in gens[descents[0]]])
    return DominantResult(y, tuple(word))
