"""Exact convex polytopes over the rationals.

Hulls are found by gift-wrapping (Chand and Kapur, J. ACM 17, 1970) in
integer coordinates on the points' affine hull: from a first facet, pivot
across each ridge of each facet found, a facet's ridges being the facets
of its own points one dimension down.  That recursion meets every face
of every dimension, so the hull keeps them: the face lattice is a by-product,
not a second pass.  No floating point enters, and the hull reads nothing but
the points and the symmetries it checks, so it stays an independent check
on the root-data classification.

Given letters, affine symmetries of the points such as the simple
reflections on an orbit, the top level wraps one facet per orbit and
closes the faces met under the letters (the adjacency decomposition of
Bremner, Dutour Sikirić and Schürmann, arXiv:math/0702239).  A letter no
affine map induces is refused, not trusted.

The integer coordinates come from clearing every denominator once.  A
fraction-free echelon of the differences picks the affine basis, and the
points are projected onto the echelon's leading coordinates, a bijection on
the affine hull.  Each facet normal found there is lifted back into the
direction space once, by one integer matrix per hull.  The polytope keeps
its vertices over one common denominator too, so supports are evaluated in
integers.

Facet inequalities are stored in ambient coordinates as pairs
``(normal, offset)`` meaning ``<normal, x> <= offset``, jointly scaled to
coprime integers.  Vertices are sorted lexicographically, and all face
objects refer to vertices by index into that sorted tuple.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import weyl
from .linalg import (
    Vec,
    cleared,
    cleared_rows,
    echelon,
    int_dot,
    scaled_inverse,
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
    ``faces`` holds every nonempty face, the polytope itself included, as
    :class:`PolytopeFace` sorted by (dim, vertex indices).
    """

    ambient_dim: int
    dim: int
    vertices: tuple
    facets: tuple
    origin: Vec
    basis: tuple
    faces: tuple

    @functools.cached_property
    def cleared_vertices(self) -> tuple:
        """(D, D * vertices as integer tuples), D their least common denominator."""
        return cleared_rows(self.vertices)

    @functools.cached_property
    def face_by_vertices(self) -> dict:
        """Each face keyed by its sorted vertex-index tuple."""
        return {f.vertex_indices: f for f in self.faces}


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


def _rotate(below, n, b, w, c):
    """Turn the supporting plane <n, x> = b towards w about its points on
    <w, x> = c until it meets another point: the one of ``below``, pairs of
    a point and its gap h = b - <n, p> > 0, that maximizes g / h with
    g = <w, p> - c.  The new plane is g (<n, x> - b) + h (<w, x> - c) = 0.
    """
    bg, bh = None, 1
    for p, h in below:
        g = int_dot(w, p) - c
        if bg is None or g * bh > bg * h:
            bg, bh = g, h
    normal = [bg * x + bh * y for x, y in zip(n, w)]
    k = math.gcd(*normal)
    return tuple(x // k for x in normal), (bg * b + bh * c) // k


def _first_facet(coords):
    """The plane of least x_0, rotated about its points until they span a facet."""
    d = len(coords[0])
    n, b = (-1,) + (0,) * (d - 1), -min(p[0] for p in coords)
    while True:
        below = [(p, b - int_dot(n, p)) for p in coords]
        t0, *tight = [p for p, h in below if not h]
        diffs = [[x - y for x, y in zip(p, t0)] for p in tight]
        rows = list(echelon(diffs + [n]).values())
        if len(rows) == d:
            return n, b
        # w is orthogonal to the points and to n: pad the rows with unit
        # vectors off their leading entries, then take the cross product
        leads = {next(j for j, x in enumerate(r) if x) for r in rows}
        units = [[int(i == j) for i in range(d)] for j in range(d) if j not in leads]
        w = _cross(rows + units[1:])
        n, b = _rotate([(p, h) for p, h in below if h], n, b, w, int_dot(w, t0))


def _ridges(coords, n, tight, budget):
    """A facet's ridges as (w, c, point indices), where <w, x> <= c holds on
    the facet with equality on the ridge; and the facet's faces, itself
    included, as {point indices: dim}."""
    d = len(n)
    if len(tight) == d:  # a simplex: each ridge leaves out one point
        out = []
        for q in tight:
            ridge = tuple(i for i in tight if i != q)
            r0 = coords[ridge[0]]
            edges = [[x - y for x, y in zip(coords[i], r0)] for i in ridge[1:]]
            w = _cross(edges + [n])
            if int_dot(w, coords[q]) > int_dot(w, r0):
                w = tuple(-x for x in w)
            out.append((w, int_dot(w, r0), ridge))
        # and its faces are its nonempty point subsets
        faces = {s: k - 1 for k in range(1, d + 1) for s in combinations(tight, k)}
        return out, faces
    # dropping a coordinate where n != 0 maps the facet's plane onto
    # Q^(d-1) bijectively, so it maps the facet onto the hull of the images
    k = next(j for j, x in enumerate(n) if x)
    sub, sub_faces = _wrap([coords[i][:k] + coords[i][k + 1 :] for i in tight], budget)
    out = [(w[:k] + (0,) + w[k:], c, tuple(tight[j] for j in on)) for w, c, on in sub]
    faces = {tuple(tight[j] for j in on): dim for on, dim in sub_faces.items()}
    faces[tight] = d - 1
    return out, faces


def _normal(coords, tight):
    """The facet inequality (n, b) whose plane holds the points ``tight``."""
    t0 = coords[tight[0]]
    n = _cross(list(echelon([vec_sub(coords[i], t0) for i in tight[1:]]).values()))
    b = int_dot(n, t0)
    # the points off a facet's plane all lie on one side of it
    off = next(v for v in (int_dot(n, p) for p in coords) if v != b)
    k = math.gcd(*n) if off < b else -math.gcd(*n)
    return tuple(x // k for x in n), b // k


def _wrap(coords, budget, letters=()):
    """Facets (normal, offset, point indices) of a full-dimensional set of
    distinct integer points, and its proper faces as {point indices: dim}.
    A face's key lists every point on it, sorted, so the facets that share
    a face give it the same key; the vertices are the faces of dim 0.

    Gift-wrapping: from a first facet, pivot across each ridge of each
    facet found, skipping a facet in the orbit of one wrapped before under
    the ``letters``; the faces met are then closed under them.  Raises
    ValueError once more than ``budget`` faces, the hull itself included,
    have turned up.
    """
    if len(coords[0]) == 1:
        vals = [p[0] for p in coords]
        hi, lo = vals.index(max(vals)), vals.index(min(vals))
        faces = {(hi,): 0, (lo,): 0}
        return [((1,), vals[hi], (hi,)), ((-1,), -vals[lo], (lo,))], faces
    found = {_first_facet(coords): ()}
    queue = list(found)
    done = set()
    known = {}  # the point sets of the facets in the orbits wrapped
    faces = {}
    for wrapped, (n, b) in enumerate(queue, 1):
        below = [(p, b - int_dot(n, p)) for p in coords]
        found[n, b] = tight = tuple(i for i, (_, h) in enumerate(below) if not h)
        if tight in known:
            continue
        known.update(dict.fromkeys(face_orbit(tight, letters)))
        ridges, facet_faces = _ridges(coords, n, tight, budget)
        faces.update(facet_faces)
        below = [pair for pair in below if pair[1]]
        for w, c, ridge in ridges:
            if ridge not in done:
                done.add(ridge)
                facet = _rotate(below, n, b, w, c)
                if facet not in found:
                    found[facet] = ()
                    queue.append(facet)
        # the hull, the faces of the facets wrapped, the facets still queued
        if 1 + len(faces) + len(queue) - wrapped > budget:
            raise ValueError(f"face budget of {budget} exceeded")
    if letters:
        closed = {}
        for on, dim in faces.items():
            if on not in closed:
                closed.update(dict.fromkeys(face_orbit(on, letters), dim))
                if 1 + len(closed) > budget:
                    raise ValueError(f"face budget of {budget} exceeded")
        faces = closed
    normals = {tight: nb for nb, tight in found.items()}
    return [(normals.get(t) or _normal(coords, t)) + (t,) for t in known], faces


def _lift(rows, leads):
    """The integer matrix L taking a normal n on the leading coordinates of
    the echelon ``rows`` to the normal in their span: for v in the span,
    <L n, v> is one positive multiple of <n, v restricted to the leads>.

    With E the rows, E_P their leading columns and c G^-1 an integer
    multiple of the inverse of G = E E^T, L = E^T (c G^-1) E_P.  G is
    positive definite, so its elimination swaps no rows and c = det G > 0.
    """
    _, inv = scaled_inverse([[int_dot(a, b) for b in rows] for a in rows])
    at_leads = [[r[j] for j in leads] for r in rows]
    middle = [[int_dot(row, col) for col in zip(*at_leads)] for row in inv]
    return [[int_dot(e, m) for m in zip(*middle)] for e in zip(*rows)]


def _check_letters(zs, basis, letters):
    """Refuse a letter that is no permutation of the integer points ``zs``
    or that no affine map induces.  With B the differences of the affine
    basis points ``basis`` from zs[0] and B_s those of their images from
    zs[s(0)], a letter s is affine when every (z_i - z_0) B^-1 B_s equals
    z_s(i) - z_s(0); both sides are taken times c, c B^-1 in integers."""
    z0 = zs[0]
    c, inv = scaled_inverse([[x - y for x, y in zip(zs[k], z0)] for k in basis])
    for letter in letters:
        if sorted(letter) != list(range(len(zs))):
            raise ValueError("a letter is not a permutation of the distinct points")
        s0 = zs[letter[0]]
        images = [[x - y for x, y in zip(zs[letter[k]], s0)] for k in basis]
        cols = list(zip(*[[int_dot(r, col) for col in zip(*images)] for r in inv]))
        for z, i in zip(zs, letter):
            u = [x - y for x, y in zip(z, z0)]
            if any(c * (x - y) != int_dot(u, m) for x, y, m in zip(zs[i], s0, cols)):
                raise ValueError("a letter is induced by no affine map of the points")


def hull(points, *, letters=(), budget: int = DEFAULT_FACE_BUDGET) -> RationalPolytope:
    """Exact convex hull of a finite rational point set.

    The points are cleared to integers over one common denominator and
    wrapped on the leading coordinates of the echelon of their differences;
    each facet normal is lifted back to ambient coordinates once.  Each
    facet costs a pass over the m distinct points and the hull of its
    own points one dimension down; each ridge costs one more pass.  So the
    work grows with m times the number of faces, not with the C(m, d)
    point subsets of the affine dimension d.  The faces met on the way
    down are kept as the polytope's ``faces``.  Raises ValueError when more
    than ``budget`` faces, the polytope itself included, turn up.

    ``letters``, affine symmetries of the distinct points as permutations
    of their indices, let the top level wrap one facet per orbit; the
    polytope is the same.  A letter no affine map induces raises ValueError.
    """
    pts = list(dict.fromkeys(vec(p) for p in points))
    if not pts:
        raise ValueError("cannot take the hull of an empty point set")
    ambient = len(pts[0])
    if any(len(p) != ambient for p in pts):
        raise ValueError("points have mixed ambient dimensions")

    p0 = pts[0]
    den, ys = cleared_rows(pts)
    rows = echelon([[x - y for x, y in zip(p, ys[0])] for p in ys[1:]])
    basis = tuple(vec_sub(pts[k + 1], p0) for k in rows)
    d = len(basis)
    leads = [next(j for j, x in enumerate(r) if x) for r in rows.values()]
    zs = [tuple(p[j] for j in leads) for p in ys]
    _check_letters(zs, [k + 1 for k in rows], letters)
    if d == 0:
        vertices, facets, faces = (p0,), [], [PolytopeFace((0,), 0)]
    else:
        red_facets, red_faces = _wrap(zs, budget, letters)
        # one positive denominator: the integer points sort as the rationals
        order = sorted(
            (on[0] for on, dim in red_faces.items() if not dim), key=ys.__getitem__
        )
        vertices = tuple(pts[i] for i in order)
        index = {i: k for k, i in enumerate(order)}
        faces = [
            PolytopeFace(tuple(sorted(index[i] for i in on if i in index)), dim)
            for on, dim in red_faces.items()
        ]
        faces.append(PolytopeFace(tuple(range(len(vertices))), d))
        faces.sort(key=lambda f: (f.dim, f.vertex_indices))

        lift = _lift(list(rows.values()), leads)
        joints = []
        for n, _, on in red_facets:
            nu = [int_dot(row, n) for row in lift]
            joint = [den * x for x in nu] + [int_dot(nu, ys[on[0]])]
            g = math.gcd(*joint)
            joints.append((tuple(x // g for x in joint[:-1]), joint[-1] // g))
        facets = [(vec(nu), Fraction(c)) for nu, c in sorted(joints)]
    # _wrap stops as soon as its count passes the budget; this count also
    # covers the point and the segment, which do not wrap
    if len(faces) > budget:
        raise ValueError(f"face budget of {budget} exceeded")

    return RationalPolytope(
        ambient_dim=ambient,
        dim=d,
        vertices=vertices,
        facets=tuple(facets),
        origin=p0,
        basis=basis,
        faces=tuple(faces),
    )


def support(polytope: RationalPolytope, beta):
    """Maximum of <beta, x> over the polytope, with the argmax vertex indices.

    Returns (value, indices) where indices is the sorted tuple of vertex
    indices attaining the maximum.  The pairings are integer dot products of
    beta's cleared numerators with the cleared vertices; only the maximum is
    turned back into a Fraction.
    """
    den, b = cleared(beta)
    if len(b) != polytope.ambient_dim:
        raise ValueError("direction has the wrong ambient dimension")
    scale, ints = polytope.cleared_vertices
    values = [int_dot(b, v) for v in ints]
    top = max(values)
    ids = tuple(i for i, v in enumerate(values) if v == top)
    return Fraction(top, den * scale), ids


def exposed_face(polytope: RationalPolytope, beta) -> PolytopeFace:
    """The face where <beta, .> is maximal.

    A direction that is constant on the polytope (beta = 0, or beta
    orthogonal to the affine hull) exposes the improper face, i.e. the
    whole polytope.
    """
    _, ids = support(polytope, beta)
    return polytope.face_by_vertices[ids]


def face_lattice(polytope: RationalPolytope) -> tuple:
    """All nonempty faces, the whole polytope included, the empty face not,
    sorted by (dim, vertex indices).

    :func:`hull` collects them from its recursion into each facet's own
    hull, closed under its letters, and checks their number against its
    budget there.
    """
    return polytope.faces


def vertex_permutations(points, group) -> tuple:
    """How the group's generators, the simple reflections, permute a list
    of distinct rational points, by index.

    ``perms[i][k]`` is the index of the image of point k under the
    reflection in simple root ``group.generator_indices[i]``, in integers.
    The letters generate the group's action, so :func:`hull` and
    :func:`faces_up_to_group` need no other element.  Raises ValueError
    when the group does not map the points onto themselves.
    """
    rs = group.root_system
    if any(len(p) != rs.ambient_dim for p in points):
        raise ValueError("the group and the points have different dimensions")
    ints = cleared_rows(points)[1]
    return tuple(weyl.point_permutation(rs, i, ints) for i in group.generator_indices)


def face_orbit(vertex_indices, perms) -> list:
    """The orbit of a face, given by its sorted vertex indices, under the
    group that the letters ``perms`` generate: its images as sorted index
    tuples, in breadth-first order from the face itself.
    """
    orbit = [vertex_indices]
    seen = set(orbit)
    for ids in orbit:
        for perm in perms:
            image = tuple(sorted([perm[i] for i in ids]))
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return orbit


def faces_up_to_group(polytope: RationalPolytope, perms) -> tuple:
    """Orbit representatives of the proper faces under a group.

    ``perms`` are the group's generators acting on the vertex indices, as
    returned by :func:`vertex_permutations`.  Each orbit is searched
    breadth-first under them from the first face of it met in (dim,
    indices) order, which is its representative: the face whose sorted
    vertex-index tuple is lexicographically least in its orbit.  Returns
    (face, orbit_size) pairs in that order.
    """
    done = set()
    out = []
    for f in face_lattice(polytope):
        if f.vertex_indices in done or len(f.vertex_indices) == len(polytope.vertices):
            continue
        orbit = face_orbit(f.vertex_indices, perms)
        done.update(orbit)
        out.append((f, len(orbit)))
    return tuple(out)
