"""Classification of orbit polytope faces from root data alone.

For a dominant point x, every face of conv(W x) is a group translate of a
face read off combinatorially: pick a subset I of the simple roots that is
x-connected (every connected component of I in the non-orthogonality graph
contains a root not vanishing on x), saturate it to J by adjoining the
simple roots orthogonal to both x and I, and take the orbit of x under the
parabolic subgroup W_J.  The assignment I -> face induces a bijection onto
the group orbits of proper faces, and ``verify_bijection`` checks that
claim against the brute-force polytope side.

Each descriptor also carries a canonical witness normal beta (a sum of
fundamental coweights vanishing exactly on J) and dimension counts that
the matrix-model experiments test numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import polytope as poly
from . import weyl
from .linalg import Vec, cleared, cleared_rows, echelon, int_dot, vec, vec_add, zeros
from .rootsys import (
    RootSystem,
    is_dominant,
    metric_covector,
    simple_pairings,
)


@dataclass(frozen=True)
class FaceDescriptor:
    """One face orbit of conv(W x), described by root data.

    I is the chosen x-connected subset of simple-root indices and J its
    x-saturation.  beta is the canonical normal exposing the face, and
    sigma_vertices the orbit of x under the parabolic subgroup of J, i.e.
    the vertex set of the exposed face.  dim_sigma is that face's affine
    dimension, dim_extF the predicted dimension of the face's extreme-point
    locus in the matrix model, and dim_q_J / dim_n_J the dimensions of the
    parabolic and complementary root-space sums.
    """

    I: frozenset
    J: frozenset
    beta: Vec
    sigma_vertices: tuple
    dim_sigma: int
    dim_extF: int
    dim_q_J: int
    dim_n_J: int


@dataclass(frozen=True)
class BijectionReport:
    """Outcome of checking descriptors against brute-force face orbits."""

    passed: bool
    descriptor_count: int
    face_orbit_count: int
    records: tuple
    counterexamples: tuple


def _check_subset(rs: RootSystem, indices) -> frozenset:
    subset = frozenset(int(i) for i in indices)
    if any(i < 0 or i >= rs.rank for i in subset):
        raise ValueError("subset contains an index outside the simple roots")
    return subset


def _components(rs: RootSystem, indices):
    """Connected components of a simple-root subset.

    Two simple roots are adjacent when they are not orthogonal under the
    root system's inner product.
    """
    todo = set(indices)
    comps = []
    while todo:
        seed = min(todo)
        comp = {seed}
        frontier = [seed]
        todo.discard(seed)
        while frontier:
            i = frontier.pop()
            linked = [j for j in todo if rs.simple_gram[i][j] != 0]
            for j in linked:
                todo.discard(j)
                comp.add(j)
                frontier.append(j)
        comps.append(frozenset(comp))
    return comps


def is_x_connected(rs: RootSystem, indices, x) -> bool:
    """Whether every component of the subset sees a root not vanishing on x.

    The empty subset is x-connected vacuously.
    """
    subset = _check_subset(rs, indices)
    pairings = simple_pairings(rs, x)
    return all(any(pairings[i] for i in comp) for comp in _components(rs, subset))


def saturation(rs: RootSystem, indices, x) -> frozenset:
    """Extend an x-connected subset by the walls of x orthogonal to it.

    Adds every simple root that vanishes on x and is orthogonal to all of
    the given subset.  Raises ValueError when the subset is not
    x-connected, since the construction is only meaningful there.
    """
    base = _check_subset(rs, indices)
    if not is_x_connected(rs, base, x):
        raise ValueError("subset is not x-connected")
    pairings = simple_pairings(rs, x)
    extra = set()
    for j in range(rs.rank):
        if j in base or pairings[j]:
            continue
        if all(rs.simple_gram[j][i] == 0 for i in base):
            extra.add(j)
    return base | extra


def largest_x_connected_subset(rs: RootSystem, indices, x) -> frozenset:
    """The union of those components of the subset that x does not kill.

    Applied to a saturation this recovers the original x-connected subset,
    which is what makes the face classification injective.
    """
    subset = _check_subset(rs, indices)
    pairings = simple_pairings(rs, x)
    keep = set()
    for comp in _components(rs, subset):
        if any(pairings[i] for i in comp):
            keep |= comp
    return frozenset(keep)


def canonical_beta(rs: RootSystem, subset_j) -> Vec:
    """Sum of the fundamental coweights off J: vanishes on J, positive off it.

    For J equal to the full simple set the sum is empty and the zero vector
    is returned (the normal of the improper face).
    """
    walls = _check_subset(rs, subset_j)
    coweights = rs.fundamental_coweights
    beta = zeros(rs.ambient_dim)
    for i in range(rs.rank):
        if i not in walls:
            beta = vec_add(beta, coweights[i])
    for i, value in enumerate(simple_pairings(rs, beta)):
        if i in walls and value != 0:
            raise ValueError("coweight sum fails to vanish on J")
        if i not in walls and value <= 0:
            raise ValueError("coweight sum fails to be positive off J")
    return beta


def parabolic_subgroup(group: weyl.WeylGroup, subset_j) -> weyl.WeylGroup:
    """The subgroup W_J generated by the group's reflections in J."""
    walls = _check_subset(group.root_system, subset_j)
    if not walls.issubset(group.generator_indices):
        raise ValueError("subset contains an index outside the group's generators")
    return weyl.WeylGroup(group.root_system, tuple(sorted(walls)))


def classify_faces(rs: RootSystem, group: weyl.WeylGroup, x) -> tuple:
    """All face-orbit descriptors of conv(W x) for a dominant nonzero x.

    Descriptors are enumerated over the proper x-connected subsets I of the
    simple roots whose saturation J is also proper, ordered by (|I|, I).
    """
    xv = vec(x)
    if all(c == 0 for c in xv):
        raise ValueError("x must be nonzero; the orbit polytope of 0 is a point")
    if not is_dominant(rs, xv):
        raise ValueError("x is not dominant; apply weyl.to_dominant first")

    xs = cleared(xv)[1]
    moved = [int_dot(c, xs) != 0 for c in rs.integer_covectors]
    mults = rs.positive_multiplicities
    supports = [
        frozenset(i for i, c in enumerate(coeffs) if c)
        for coeffs in rs.positive_coefficients
    ]
    total_mult = sum(mults)
    out = []
    for size in range(rs.rank):
        for subset in combinations(range(rs.rank), size):
            chosen = frozenset(subset)
            if not is_x_connected(rs, chosen, xv):
                continue
            sat = saturation(rs, chosen, xv)
            if len(sat) == rs.rank:
                continue
            beta = canonical_beta(rs, sat)
            sigma = tuple(sorted(weyl.orbit(parabolic_subgroup(group, sat), xv)))
            ys = cleared_rows(sigma)[1]
            dim_sigma = len(echelon([[a - b for a, b in zip(y, ys[0])] for y in ys]))
            inside = [i for i, s in enumerate(supports) if s <= sat]
            dim_ext = sum(mults[i] for i in inside if moved[i])
            mult_inside = sum(mults[i] for i in inside)
            out.append(
                FaceDescriptor(
                    I=chosen,
                    J=sat,
                    beta=beta,
                    sigma_vertices=sigma,
                    dim_sigma=dim_sigma,
                    dim_extF=dim_ext,
                    dim_q_J=rs.rank + rs.centralizer_dim + total_mult + mult_inside,
                    dim_n_J=total_mult - mult_inside,
                )
            )
    return tuple(out)


def descriptor_record(descriptor: FaceDescriptor) -> dict:
    """JSON-friendly view of a descriptor; simple roots are 1-based."""
    return {
        "I": [i + 1 for i in sorted(descriptor.I)],
        "J": [j + 1 for j in sorted(descriptor.J)],
        "beta": list(descriptor.beta),
        "sigma_vertex_count": len(descriptor.sigma_vertices),
        "dim_sigma": descriptor.dim_sigma,
        "dim_extF": descriptor.dim_extF,
        "dim_q_J": descriptor.dim_q_J,
        "dim_n_J": descriptor.dim_n_J,
    }


def verify_bijection(rs: RootSystem, orbit_polytope, descriptors) -> BijectionReport:
    """Check the descriptors against the brute-force face lattice.

    ``orbit_polytope`` is the hull of the orbit of a dominant x, built with
    the simple reflections' letters so that it knows its face orbits, and
    ``descriptors`` are meant to be ``classify_faces`` of that x.  Three
    things must hold: the descriptor count equals the number of group
    orbits of proper faces, the witness normal of each descriptor exposes
    exactly the predicted vertex set, and the induced map from descriptors
    to face orbits hits every orbit exactly once.  Counterexamples carry
    enough data to identify the failing descriptor or the missed orbit.
    """
    orbits = poly.faces_up_to_group(orbit_polytope)
    rep_sizes = {face.vertex_indices: size for face, size in orbits}

    counterexamples = []
    records = []
    hits = {}
    for descriptor in descriptors:
        record = descriptor_record(descriptor)
        exposed = poly.exposed_face(
            orbit_polytope, metric_covector(rs, descriptor.beta)
        )
        exposed_points = frozenset(
            orbit_polytope.vertices[i] for i in exposed.vertex_indices
        )
        predicted = frozenset(descriptor.sigma_vertices)
        record["witness_matches"] = exposed_points == predicted
        if not record["witness_matches"]:
            counterexamples.append(
                {
                    "kind": "witness-mismatch",
                    "descriptor": descriptor_record(descriptor),
                    "exposed_vertices": sorted(
                        list(v) for v in exposed_points
                    ),
                    "predicted_vertices": sorted(
                        list(v) for v in predicted
                    ),
                }
            )
        rep = exposed.representative
        record["orbit_representative"] = list(rep)
        record["orbit_size"] = rep_sizes.get(rep)
        hits.setdefault(rep, []).append(record["I"])
        records.append(record)

    for rep, subsets in sorted(hits.items()):
        if rep not in rep_sizes:
            counterexamples.append(
                {
                    "kind": "improper-face-hit",
                    "orbit_representative": list(rep),
                    "descriptors": subsets,
                }
            )
        elif len(subsets) > 1:
            counterexamples.append(
                {
                    "kind": "orbit-hit-twice",
                    "orbit_representative": list(rep),
                    "descriptors": subsets,
                }
            )
    for face, size in orbits:
        if face.vertex_indices not in hits:
            counterexamples.append(
                {
                    "kind": "orbit-missed",
                    "orbit_representative": list(face.vertex_indices),
                    "orbit_size": size,
                    "dim": face.dim,
                }
            )
    if len(descriptors) != len(orbits):
        counterexamples.append(
            {
                "kind": "count-mismatch",
                "descriptor_count": len(descriptors),
                "face_orbit_count": len(orbits),
            }
        )

    return BijectionReport(
        passed=not counterexamples,
        descriptor_count=len(descriptors),
        face_orbit_count=len(orbits),
        records=tuple(records),
        counterexamples=tuple(counterexamples),
    )
