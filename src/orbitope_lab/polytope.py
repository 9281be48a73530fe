"""Exact convex polytopes over the rationals.

Hulls and faces are deliberately brute force so they can serve as an
oracle: a hull is found by testing every hyperplane spanned by d of the
input points, faces come from intersecting facet vertex sets, and no
floating point enters at any stage.  Points are reduced to integer coordinates on
their affine hull first, which keeps the inner loops in machine integers.

Facet inequalities are stored in ambient coordinates as pairs
``(normal, offset)`` meaning ``<normal, x> <= offset``, jointly scaled to
coprime integers.  Vertices are sorted lexicographically, and all face
objects refer to vertices by index into that sorted tuple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import weyl
from .linalg import (
    Vec,
    dot,
    independent_rows,
    inverse,
    mat,
    matmul,
    matvec,
    primitive,
    rank,
    solve,
    transpose,
    vec,
    vec_sub,
)

DEFAULT_FACE_BUDGET = 100000


@dataclass(frozen=True)
class RationalPolytope:
    """A bounded rational polytope given by vertices and facet inequalities.

    ``dim`` is the dimension of the affine hull; ``origin`` and ``basis``
    describe that hull (every polytope point is ``origin + sum c_i b_i``).
    For a 0-dimensional polytope ``facets`` and ``basis`` are empty.
    """

    ambient_dim: int
    dim: int
    vertices: tuple
    facets: tuple
    origin: Vec
    basis: tuple


@dataclass(frozen=True)
class PolytopeFace:
    """A face identified by the sorted indices of the vertices it contains."""

    vertex_indices: tuple
    dim: int


def _cross(rows) -> tuple:
    """Generalized cross product of d - 1 integer vectors in d-space.

    Entry j is (-1)^j times the minor with column j deleted: orthogonal to
    every row, and zero exactly when the rows are dependent.  Above d = 3
    each minor expands along its first row, whose cofactors are the cross
    product of the remaining rows.
    """
    d = len(rows) + 1
    if d == 2:
        (dx, dy) = rows[0]
        return (dy, -dx)
    if d == 3:
        u, v = rows
        return (
            u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0],
        )
    out = []
    for j in range(d):
        sub = [r[:j] + r[j + 1 :] for r in rows]
        minor = sum(a * b for a, b in zip(sub[0], _cross(sub[1:])))
        out.append(-minor if j % 2 else minor)
    return tuple(out)


def hull(points) -> RationalPolytope:
    """Exact convex hull of a finite rational point set.

    Complexity is roughly O(m^(d+1)) in the number m of distinct points and
    the affine dimension d, which is fine for orbit polytopes of the small
    reflection groups this library targets.
    """
    pts = []
    seen = set()
    for p in points:
        v = vec(p)
        if v not in seen:
            seen.add(v)
            pts.append(v)
    if not pts:
        raise ValueError("cannot take the hull of an empty point set")
    ambient = len(pts[0])
    if any(len(p) != ambient for p in pts):
        raise ValueError("points have mixed ambient dimensions")

    p0 = pts[0]
    diffs = [vec_sub(p, p0) for p in pts[1:]]
    basis = tuple(diffs[i] for i in independent_rows(diffs)) if diffs else ()
    d = len(basis)
    if d == 0:
        return RationalPolytope(
            ambient_dim=ambient,
            dim=0,
            vertices=(p0,),
            facets=(),
            origin=p0,
            basis=(),
        )

    bbt_inv = inverse(matmul(basis, transpose(basis)))
    proj = matmul(bbt_inv, basis)
    reduced = [matvec(proj, vec_sub(p, p0)) for p in pts]
    scale = math.lcm(*(c.denominator for r in reduced for c in r))
    coords = [tuple(int(c * scale) for c in r) for r in reduced]

    red_facets = []
    if d == 1:
        vals = [c[0] for c in coords]
        red_facets = [((1,), max(vals)), ((-1,), -min(vals))]
    else:
        m = len(coords)
        checked = set()
        for subset in combinations(range(m), d):
            base = coords[subset[0]]
            # the hyperplane's normal; zero when the points are dependent
            n = _cross([tuple(map(int.__sub__, coords[i], base)) for i in subset[1:]])
            if not any(n):
                continue
            b = sum(a * c for a, c in zip(n, base))
            g = math.gcd(*n, b)
            if next(v for v in n if v != 0) < 0:
                g = -g
            key = tuple(v // g for v in n) + (b // g,)
            if key in checked:
                continue
            checked.add(key)
            below = True
            above = True
            for c in coords:
                s = sum(a * v for a, v in zip(n, c))
                if s > b:
                    below = False
                elif s < b:
                    above = False
                if not below and not above:
                    break
            if below:
                red_facets.append((n, b))
            elif above:
                red_facets.append((tuple(-a for a in n), -b))

    tight_normals = [[] for _ in coords]
    for n, b in red_facets:
        for i, c in enumerate(coords):
            if sum(a * v for a, v in zip(n, c)) == b:
                tight_normals[i].append(n)
    vertex_ids = [
        i for i in range(len(coords)) if rank(mat(tight_normals[i])) == d
    ]
    vertices = tuple(sorted(pts[i] for i in vertex_ids))

    lift = transpose(proj)
    facets = []
    for n, b in red_facets:
        nu = matvec(lift, vec(n))
        offset = Fraction(b, scale) + dot(nu, p0)
        joint = primitive(tuple(nu) + (offset,))
        facets.append((vec(joint[:-1]), Fraction(joint[-1])))
    facets.sort()

    return RationalPolytope(
        ambient_dim=ambient,
        dim=d,
        vertices=vertices,
        facets=tuple(facets),
        origin=p0,
        basis=basis,
    )


def support(polytope: RationalPolytope, beta):
    """Maximum of <beta, x> over the polytope, with the argmax vertex indices.

    Returns (value, indices) where indices is the sorted tuple of vertex
    indices attaining the maximum.
    """
    b = vec(beta)
    if len(b) != polytope.ambient_dim:
        raise ValueError("direction has the wrong ambient dimension")
    values = [dot(b, v) for v in polytope.vertices]
    top = max(values)
    return top, tuple(i for i, val in enumerate(values) if val == top)


def exposed_face(polytope: RationalPolytope, beta) -> PolytopeFace:
    """The face where <beta, .> is maximal.

    A direction that is constant on the polytope (beta = 0, or beta
    orthogonal to the affine hull) exposes the improper face, i.e. the
    whole polytope.
    """
    _, ids = support(polytope, beta)
    return PolytopeFace(vertex_indices=ids, dim=_affine_dim(polytope, ids))


def _affine_dim(polytope: RationalPolytope, ids) -> int:
    if len(ids) <= 1:
        return 0
    base = polytope.vertices[ids[0]]
    return rank(mat([vec_sub(polytope.vertices[i], base) for i in ids[1:]]))


def face_lattice(
    polytope: RationalPolytope, *, budget: int = DEFAULT_FACE_BUDGET
) -> tuple:
    """All nonempty faces, the whole polytope included, the empty face not.

    Faces are generated by closing the facet vertex sets under pairwise
    intersection, which yields exactly the proper nonempty faces; the
    improper face is appended.  Raises ValueError when more than ``budget``
    faces appear.
    """
    everything = frozenset(range(len(polytope.vertices)))
    sets = set()
    for nu, c in polytope.facets:
        tight = frozenset(
            i for i, v in enumerate(polytope.vertices) if dot(nu, v) == c
        )
        if tight:
            sets.add(tight)
    frontier = set(sets)
    while frontier:
        fresh = set()
        for new in frontier:
            for old in sets:
                cut = new & old
                if cut and cut not in sets and cut not in fresh:
                    fresh.add(cut)
        sets |= fresh
        if len(sets) + 1 > budget:
            raise ValueError(f"face budget of {budget} exceeded")
        frontier = fresh
    sets.add(everything)
    faces = [
        PolytopeFace(
            vertex_indices=tuple(sorted(s)),
            dim=_affine_dim(polytope, tuple(sorted(s))),
        )
        for s in sets
    ]
    faces.sort(key=lambda f: (f.dim, f.vertex_indices))
    return tuple(faces)


def vertex_permutations(polytope: RationalPolytope, group) -> tuple:
    """How each element of a Weyl group permutes the vertex indices.

    ``perms[i][k]`` is the index of the image of vertex k under the i-th
    element of ``group``.  Each simple reflection's permutation is found
    once; element i is its BFS parent (its word less the last letter)
    times that letter, so its permutation is the parent's composed with
    the letter's by tuple indexing.  Raises ValueError when the group
    does not map the vertex set onto itself.
    """
    rs = group.root_system
    if rs.ambient_dim != polytope.ambient_dim:
        raise ValueError("the group and the polytope have different dimensions")
    letters = {
        i: weyl.point_permutation(rs, i, polytope.vertices)
        for i in group.generator_indices
    }
    index_of_word = {w: i for i, w in enumerate(group.words)}
    perms = []
    for word in group.words:
        if not word:
            perms.append(tuple(range(len(polytope.vertices))))
            continue
        parent = perms[index_of_word[word[:-1]]]
        perms.append(tuple([parent[j] for j in letters[word[-1]]]))
    return tuple(perms)


def faces_up_to_group(
    polytope: RationalPolytope, perms, *, budget: int = DEFAULT_FACE_BUDGET
) -> tuple:
    """Orbit representatives of the proper faces under a group.

    ``perms`` is the group's action on the vertex indices, as returned by
    :func:`vertex_permutations`.  Returns (face, orbit_size) pairs, the
    representative being the face whose sorted vertex-index tuple is
    lexicographically least in its orbit, sorted by (dim, indices).
    """
    faces = face_lattice(polytope, budget=budget)
    proper = [f for f in faces if len(f.vertex_indices) < len(polytope.vertices)]
    by_ids = {f.vertex_indices: f for f in faces}
    done = set()
    out = []
    for f in proper:
        if f.vertex_indices in done:
            continue
        images = {
            tuple(sorted(p[i] for i in f.vertex_indices)) for p in perms
        }
        done |= images
        rep = min(images)
        out.append((by_ids[rep], len(images)))
    out.sort(key=lambda pair: (pair[0].dim, pair[0].vertex_indices))
    return tuple(out)


def contains(polytope: RationalPolytope, point) -> bool:
    """Exact membership test."""
    p = vec(point)
    if len(p) != polytope.ambient_dim:
        raise ValueError("point has the wrong ambient dimension")
    if polytope.dim == 0:
        return p == polytope.origin
    rel = vec_sub(p, polytope.origin)
    if solve(transpose(polytope.basis), rel) is None:
        return False
    return all(dot(nu, p) <= c for nu, c in polytope.facets)
