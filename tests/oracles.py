"""Independent reference implementations for cross-checking test values.

Nothing here reuses the library's decision procedures: convex hulls
are found by testing every hyperplane through d of the points, face
lattices by closing the facets' vertex sets under intersection, convex-hull
membership goes through a phase-one simplex over exact rationals, the
reflection group is enumerated as exact matrices built from the simple
roots and the Gram matrix alone (orbits, dominant representatives,
vertex actions, face orbits and chamber sharing are read off those
matrices), the symmetric matrix model through the majorization
characterization of diagonals, the Haar mass near the model's
vertices through a second-order expansion of the orbit map, and the
model's root spaces through kernels of one dense ``Fraction`` operator, and
the streamed Haar sampler through the sampler that keeps every conjugate.
Agreement between these and the package is what the tests freeze.

Some helpers build test data and are not oracles: ``simple_reflection``
and ``reflect`` give exact reflections from the simple roots and the Gram
matrix, ``mat`` and ``matmul`` build and multiply exact matrices,
``contains`` tests a point against a polytope's own facet inequalities
(for comparison with ``in_convex_hull``), ``simple_coefficients``
solves for a root's simple-root coefficients, and ``dominant_with_walls``
picks a dominant point with a given wall set from the package's coweights.
``pairing``, ``solve``, ``inverse`` and ``primitive`` are the plain
``Fraction`` references for what the package does in integers (its
``integer_covectors``, one shared reduced row echelon form, the
fraction-free ``scaled_inverse``, and ``simple_steps``).
"""

import math
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import NamedTuple

import numpy as np

from orbitope_lab import matmodel
from orbitope_lab.linalg import cleared, nullspace, rref, transpose, vec, vec_sub
from orbitope_lab.polytope import PolytopeFace, RationalPolytope


def _dot(u, v):
    return sum(Fraction(a) * Fraction(b) for a, b in zip(u, v))


def pairing(rs, lam, v):
    """Exact value of the root (or any covector) lam on v: <lam, v>_G."""
    if len(lam) != rs.ambient_dim or len(v) != rs.ambient_dim:
        raise ValueError(
            f"dimension mismatch: expected vectors of length {rs.ambient_dim}"
        )
    return _dot(lam, _matvec(rs.inner_product, v))


def _matvec(m, v):
    return tuple(_dot(row, v) for row in m)


def _integers(values):
    """Positive rational multiple of a vector with integer entries."""
    scale = math.lcm(*(Fraction(v).denominator for v in values))
    return tuple(int(Fraction(v) * scale) for v in values)


def _int_matvec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat(rows):
    """An exact matrix as a tuple of Fraction row tuples."""
    return tuple(vec(r) for r in rows)


def matmul(a, b):
    """Product of exact matrices given as row tuples."""
    return tuple(tuple(_dot(row, col) for col in zip(*b)) for row in a)


def solve(a, b):
    """One exact solution of ``a @ x = b`` (free variables set to 0), or None.

    ``a`` has one row per equation.  Returns None when the system is
    inconsistent.
    """
    n = len(a[0]) if a else 0
    rows, pivots = rref([list(row) + [rhs] for row, rhs in zip(a, b, strict=True)])
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        x[c] = rows[i][n]
    return tuple(x)


def inverse(a):
    """The exact inverse of a square matrix, by Gauss-Jordan over Fraction."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse requires a square matrix")
    rows, pivots = rref(
        [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    )
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def primitive(values) -> tuple:
    """Scale a rational vector by a positive rational to coprime integers.

    The direction (overall sign) is preserved; the zero vector maps to
    integer zeros.
    """
    ints = cleared(values)[1]
    g = math.gcd(*ints)
    return ints if g == 0 else tuple(x // g for x in ints)


def simple_coefficients(rs, root) -> tuple:
    """Coefficients of a root in the simple-root basis (exact)."""
    r = vec(root)
    a = tuple(
        tuple(alpha[i] for alpha in rs.simple_roots) for i in range(rs.ambient_dim)
    )
    c = solve(a, r)
    if c is None:
        raise ValueError(f"{root!r} is not in the span of the simple roots")
    return c


def simple_reflection(rs, index):
    """Exact matrix of the reflection in the index-th simple root."""
    alpha = rs.simple_roots[index]
    galpha = _matvec(rs.inner_product, alpha)
    scale = 2 / _dot(alpha, galpha)
    n = len(alpha)
    return tuple(
        tuple(int(a == b) - scale * alpha[a] * galpha[b] for b in range(n))
        for a in range(n)
    )


def reflect(rs, index, v):
    """Reflection in the index-th simple root a: v - 2 a(v) / <a, a>_G * a."""
    alpha = rs.simple_roots[index]
    c = 2 * pairing(rs, alpha, v) / pairing(rs, alpha, alpha)
    return tuple(x - c * a for x, a in zip(v, alpha, strict=True))


def dominant_with_walls(rs, wall_indices):
    """A dominant integer vector whose wall set is exactly the given one.

    For a proper subset S of the simple roots this is the primitive multiple
    of the sum of the coweights off S.  For S equal to the full simple set a
    nonzero vector orthogonal to every root is returned when the ambient
    space is larger than the root span, and None otherwise (no such nonzero
    vector exists).
    """
    walls = frozenset(int(i) for i in wall_indices)
    if any(i < 0 or i >= rs.rank for i in walls):
        raise ValueError("wall index out of range")
    if len(walls) == rs.rank:
        kernel = nullspace([_matvec(rs.inner_product, a) for a in rs.simple_roots])
        if not kernel:
            return None
        return vec(primitive(kernel[0]))
    coweights = rs.fundamental_coweights
    x = [Fraction(0)] * rs.ambient_dim
    for i in range(rs.rank):
        if i not in walls:
            x = [a + b for a, b in zip(x, coweights[i])]
    return vec(primitive(x))


def dominant_by_pairings(rs, v) -> bool:
    return all(pairing(rs, alpha, v) >= 0 for alpha in rs.simple_roots)


class MatrixGroup(NamedTuple):
    """A reflection group enumerated as exact matrices, in BFS order.

    Element i is the rational matrix ``matrices[i] / denominators[i]``,
    an integer matrix over a positive integer in lowest terms.
    ``covectors[i][j]`` is w_i^T G alpha_j scaled to integers, so that
    w_i x is dominant exactly when every covector has a nonnegative dot
    product with x (or any positive multiple of x).
    """

    rs: object
    matrices: tuple
    denominators: tuple
    words: tuple
    covectors: tuple


def _lowest_terms(m, d):
    g = math.gcd(d, *(c for row in m for c in row))
    return tuple(tuple(c // g for c in row) for row in m), d // g


def matrix_group(rs) -> MatrixGroup:
    """Enumerate W from the simple roots and the Gram matrix alone.

    Breadth-first closure under right multiplication by the simple
    reflections I - 2 alpha (G alpha)^T / <alpha, alpha>_G, deduplicating
    by exact matrix equality; words record the letters in order.
    """
    n = len(rs.inner_product)
    gens = []
    for alpha in rs.simple_roots:
        galpha = _matvec(rs.inner_product, alpha)
        scale = 2 / _dot(alpha, galpha)
        entries = [
            [int(a == b) - scale * alpha[a] * galpha[b] for b in range(n)]
            for a in range(n)
        ]
        d = math.lcm(*(c.denominator for row in entries for c in row))
        gens.append(_lowest_terms([[int(c * d) for c in row] for row in entries], d))
    ident = (tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)
    elements = [ident]
    words = [()]
    seen = {ident}
    frontier = [0]
    while frontier:
        fresh = []
        for i in frontier:
            m, d = elements[i]
            for letter, (g, e) in enumerate(gens):
                cols = list(zip(*g))
                prod = _lowest_terms([_int_matvec(cols, row) for row in m], d * e)
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
                    words.append(words[i] + (letter,))
                    fresh.append(len(elements) - 1)
        frontier = fresh
    galphas = [_integers(_matvec(rs.inner_product, a)) for a in rs.simple_roots]
    covectors = tuple(
        tuple(_int_matvec(list(zip(*m)), ga) for ga in galphas) for m, _ in elements
    )
    return MatrixGroup(
        rs,
        tuple(m for m, _ in elements),
        tuple(d for _, d in elements),
        tuple(words),
        covectors,
    )


def parabolic_elements(group, walls) -> list:
    """Indices of the elements of W_J, J the given simple-root indices: those
    whose reduced word uses only letters of J (every reduced word of an
    element of W_J does)."""
    return [i for i, word in enumerate(group.words) if set(word) <= set(walls)]


def image(group, i, x):
    """w_i x as exact rationals."""
    scale = math.lcm(*(Fraction(c).denominator for c in x))
    xi = tuple(int(Fraction(c) * scale) for c in x)
    den = group.denominators[i] * scale
    return tuple(Fraction(c, den) for c in _int_matvec(group.matrices[i], xi))


def _dominating(group, xi):
    """Indices of the elements w with w x dominant, x given as integers."""
    for i, covs in enumerate(group.covectors):
        if all(sum(a * b for a, b in zip(c, xi)) >= 0 for c in covs):
            yield i


def _scaled_images(group, points):
    """w_i p for every element i and point p, as integers; and the scale.

    Every image is multiplied by one common positive integer c, so that
    equal images give equal integer tuples.  Returns (table, c) with
    ``table[i][k]`` the scaled image of ``points[k]`` under element i.
    """
    scale = math.lcm(*(Fraction(v).denominator for p in points for v in p))
    ints = [tuple(int(Fraction(v) * scale) for v in p) for p in points]
    top = math.lcm(*group.denominators)
    table = [
        [tuple(v * (top // d) for v in _int_matvec(m, p)) for p in ints]
        for m, d in zip(group.matrices, group.denominators)
    ]
    return table, top * scale


def orbit_by_matrices(group, x) -> tuple:
    """The orbit of x in first-discovery order over the BFS element list."""
    table, c = _scaled_images(group, [x])
    firsts = dict.fromkeys(row[0] for row in table)
    return tuple(tuple(Fraction(v, c) for v in y) for y in firsts)


def dominant_by_scan(group, x):
    """(w x, word of w) for the BFS-first element w with w x dominant."""
    i = next(_dominating(group, _integers(x)))
    return image(group, i, x), group.words[i]


def vertex_permutations_by_matrices(group, vertices) -> tuple:
    """How each element permutes a vertex list, by matrix products."""
    table, c = _scaled_images(group, vertices)
    where = {tuple(int(Fraction(v) * c) for v in p): k for k, p in enumerate(vertices)}
    return tuple(tuple(where[y] for y in row) for row in table)


def face_orbits_by_matrices(group, polytope) -> tuple:
    """(face, orbit size) for each orbit of proper faces under every element.

    Each element's vertex permutation comes from its matrix; a face's orbit
    is the set of its sorted images, represented by the least of them.
    Sorted by (dim, vertex indices).
    """
    perms = vertex_permutations_by_matrices(group, polytope.vertices)
    by_ids = {f.vertex_indices: f for f in polytope.faces}
    sizes = {}
    done = set()
    for f in polytope.faces:
        if f.vertex_indices in done or len(f.vertex_indices) == len(polytope.vertices):
            continue
        images = {tuple(sorted(p[i] for i in f.vertex_indices)) for p in perms}
        done |= images
        sizes[min(images)] = len(images)
    reps = sorted(
        (by_ids[ids] for ids in sizes), key=lambda f: (f.dim, f.vertex_indices)
    )
    return tuple((f, sizes[f.vertex_indices]) for f in reps)


def face_orbits_by_walk(polytope, perms) -> tuple:
    """(face, orbit size) for each orbit of proper faces under the group
    that the vertex permutations ``perms`` generate.

    Each orbit is walked breadth-first under the perms from the first face
    of it met in (dim, indices) order, which is its representative: the
    least sorted vertex-index tuple in the orbit.
    """
    done = set()
    out = []
    for f in polytope.faces:
        if f.vertex_indices in done or len(f.vertex_indices) == len(polytope.vertices):
            continue
        orbit = {f.vertex_indices}
        queue = [f.vertex_indices]
        for ids in queue:
            for perm in perms:
                image = tuple(sorted(perm[i] for i in ids))
                if image not in orbit:
                    orbit.add(image)
                    queue.append(image)
        done |= orbit
        out.append((f, len(orbit)))
    return tuple(out)


def share_chamber_by_enumeration(group, x, y) -> bool:
    """Some group element makes both vectors dominant at once."""
    yi = _integers(y)
    return any(
        all(sum(a * b for a, b in zip(c, yi)) >= 0 for c in group.covectors[i])
        for i in _dominating(group, _integers(x))
    )


def share_chamber_by_pairings(rs, x, y) -> bool:
    """lam(x) * lam(y) >= 0 for every positive root lam, in Fractions."""
    return all(pairing(rs, lam, x) * pairing(rs, lam, y) >= 0 for lam in rs.positive_roots)


def contains(polytope, point) -> bool:
    """Exact membership in a polytope: on its affine hull and within its facets."""
    p = vec(point)
    if len(p) != polytope.ambient_dim:
        raise ValueError("point has the wrong ambient dimension")
    if polytope.dim == 0:
        return p == polytope.origin
    rel = vec_sub(p, polytope.origin)
    if solve(transpose(polytope.basis), rel) is None:
        return False
    return all(_dot(nu, p) <= c for nu, c in polytope.facets)


def in_convex_hull(points, target) -> bool:
    """Exact membership of target in conv(points), by phase-one simplex.

    Solves for lambda >= 0 with sum(lambda) = 1 and sum(lambda_i p_i) =
    target, minimizing the sum of artificial variables with Bland's rule
    (smallest eligible index), which cannot cycle.  Feasible iff the
    optimum is zero.
    """
    points = [tuple(Fraction(c) for c in p) for p in points]
    target = tuple(Fraction(c) for c in target)
    if not points:
        return False
    m = len(points)
    d = len(target)
    rows = d + 1
    # Equality system A lam = b, with the convex-combination row last.
    a = [[points[j][i] for j in range(m)] for i in range(d)]
    a.append([Fraction(1)] * m)
    b = list(target) + [Fraction(1)]
    for i in range(rows):
        if b[i] < 0:
            a[i] = [-c for c in a[i]]
            b[i] = -b[i]
    # Tableau columns: m real variables then one artificial per row.
    width = m + rows
    tab = [a[i] + [Fraction(1) if k == i else Fraction(0) for k in range(rows)] + [b[i]] for i in range(rows)]
    basis = [m + i for i in range(rows)]
    # Objective: sum of artificials, expressed over the current basis.
    cost = [Fraction(0)] * width
    for k in range(m, width):
        cost[k] = Fraction(1)
    reduced = [
        cost[j] - sum(cost[basis[i]] * tab[i][j] for i in range(rows))
        for j in range(width)
    ]
    value = -sum(cost[basis[i]] * tab[i][-1] for i in range(rows))
    while True:
        enter = next((j for j in range(width) if reduced[j] < 0), None)
        if enter is None:
            break
        ratios = [
            (tab[i][-1] / tab[i][enter], basis[i], i)
            for i in range(rows)
            if tab[i][enter] > 0
        ]
        if not ratios:
            break
        _, _, leave = min(ratios)
        pivot = tab[leave][enter]
        tab[leave] = [c / pivot for c in tab[leave]]
        for i in range(rows):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [c - f * p for c, p in zip(tab[i], tab[leave])]
        factor = reduced[enter]
        reduced = [c - factor * p for c, p in zip(reduced, tab[leave][:-1])]
        value -= factor * tab[leave][-1]
        basis[leave] = enter
    optimum = sum(
        tab[i][-1] for i in range(rows) if basis[i] >= m
    )
    return optimum == 0


def _det(m):
    """Determinant by expansion along the first row; 1 for the empty matrix."""
    if len(m) < 2:
        return m[0][0] if m else 1
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum(
        (-1) ** j * m[0][j] * _det([r[:j] + r[j + 1 :] for r in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def _cross(rows):
    """Entry j is (-1)^j times the minor of the d - 1 rows without column j."""
    return tuple(
        (-1) ** j * _det([r[:j] + r[j + 1 :] for r in rows])
        for j in range(len(rows) + 1)
    )


def rank(rows):
    """Rank of rational rows, by Gaussian elimination over Fraction; 0 for
    no rows."""
    rows = [[Fraction(c) for c in r] for r in rows]
    r = 0
    for j in range(len(rows[0]) if rows else 0):
        p = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][j] / rows[r][j]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def face_lattice_by_intersections(vertices, facets) -> tuple:
    """All nonempty faces of conv(vertices), the whole polytope included.

    The facets' tight vertex sets, closed under pairwise intersection, are
    the proper nonempty faces; the vertex set itself is the improper one.
    A face's dim is the rank of its vertices' differences.  Faces are
    sorted by (dim, vertex indices).
    """
    sets = {
        frozenset(i for i, v in enumerate(vertices) if _dot(nu, v) == c)
        for nu, c in facets
    }
    frontier = set(sets)
    while frontier:
        frontier = {a & b for a in frontier for b in sets} - sets - {frozenset()}
        sets |= frontier
    sets.add(frozenset(range(len(vertices))))
    faces = []
    for s in sets:
        ids = tuple(sorted(s))
        base = vertices[ids[0]]
        rows = [[a - b for a, b in zip(vertices[i], base)] for i in ids[1:]]
        faces.append(PolytopeFace(ids, rank(rows), ids))
    return tuple(sorted(faces, key=lambda f: (f.dim, f.vertex_indices)))


def hull_by_subsets(points) -> RationalPolytope:
    """The convex hull, by testing every hyperplane through d of the points.

    The affine hull's basis is the first independent run of differences
    p - p0 (independence by a nonzero Gram determinant).  Each point gets
    integer coordinates y_i = s <b_i, p - p0>, and a hyperplane through d
    of them is a facet when every point lies on one side of it.  A facet
    <a, y> <= c is <sum a_i b_i, x> <= c / s + <sum a_i b_i, p0>, scaled
    to coprime integers.  A point is a vertex when the facets through it
    meet in it alone.  The faces come from
    :func:`face_lattice_by_intersections`.
    """
    pts = list(dict.fromkeys(tuple(Fraction(c) for c in p) for p in points))
    p0 = pts[0]
    basis = []
    for p in pts[1:]:
        trial = basis + [tuple(a - b for a, b in zip(p, p0))]
        if _det([[_dot(u, v) for v in trial] for u in trial]):
            basis = trial
    d = len(basis)
    if d == 0:
        faces = face_lattice_by_intersections((p0,), ())
        return RationalPolytope(len(p0), 0, (p0,), (), p0, (), faces)
    rows = [[_dot(b, [a - c for a, c in zip(p, p0)]) for b in basis] for p in pts]
    s = math.lcm(*(v.denominator for r in rows for v in r))
    ys = [tuple(int(v * s) for v in r) for r in rows]

    planes = set()
    red_facets = {}
    for subset in combinations(range(len(ys)), d):
        base = ys[subset[0]]
        a = _cross([tuple(u - v for u, v in zip(ys[i], base)) for i in subset[1:]])
        if not any(a):
            continue
        c = sum(map(mul, a, base))
        g = math.gcd(*a) * (1 if next(u for u in a if u) > 0 else -1)
        a, c = tuple(u // g for u in a), c // g
        if (a, c) in planes:
            continue
        planes.add((a, c))
        over = under = False
        for y in ys:
            value = sum(map(mul, a, y))
            over = over or value > c
            under = under or value < c
            if over and under:
                break
        else:
            red_facets[(tuple(-u for u in a), -c) if over else (a, c)] = None

    tight = [
        {k for k, y in enumerate(ys) if sum(u * v for u, v in zip(a, y)) == c}
        for a, c in red_facets
    ]
    vertices = []
    for k, p in enumerate(pts):
        meet = set(range(len(pts)))
        for t in tight:
            if k in t:
                meet &= t
        if meet == {k}:
            vertices.append(p)

    facets = []
    for a, c in red_facets:
        nu = [sum(ai * b[j] for ai, b in zip(a, basis)) for j in range(len(p0))]
        joint = nu + [Fraction(c, s) + _dot(nu, p0)]
        scale = math.lcm(*(v.denominator for v in joint))
        ints = [int(v * scale) for v in joint]
        g = math.gcd(*ints)
        ints = [Fraction(v // g) for v in ints]
        facets.append((tuple(ints[:-1]), ints[-1]))
    vertices, facets = tuple(sorted(vertices)), tuple(sorted(facets))
    faces = face_lattice_by_intersections(vertices, facets)
    return RationalPolytope(len(p0), d, vertices, facets, p0, tuple(basis), faces)


class DenseRootSpaces(NamedTuple):
    pairs: list
    basis_mats: np.ndarray
    block_slices: list
    zero_slice: slice
    from_coords: np.ndarray


def _skew_from_coords(pairs, coords, n):
    out = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), c in zip(pairs, coords):
        out[i][j] = Fraction(c)
        out[j][i] = -Fraction(c)
    return out


def _bracket(a, b, n):
    """Exact [a, b] = ab - ba, summing only over the nonzero entries of a."""
    rows = [[k for k in range(n) if a[i][k]] for i in range(n)]
    cols = [[k for k in range(n) if a[k][j]] for j in range(n)]
    return [
        [
            sum((a[i][k] * b[k][j] for k in rows[i]), Fraction(0))
            - sum((b[i][k] * a[k][j] for k in cols[j]), Fraction(0))
            for j in range(n)
        ]
        for i in range(n)
    ]


def root_spaces_by_dense_kernels(model) -> DenseRootSpaces:
    """The root-space layout of ``matmodel._root_spaces`` from dense matrices.

    The same separating Cartan element h (alpha_j(h) = b^j), from the Gram
    pairing and ``inverse``.  T = sign * ad(h)^2 is one dense Fraction
    matrix, from one exact double bracket per basis element E_ij - E_ji of
    so(n); each root space is the kernel of the whole T - lambda(h)^2 and
    the centralizer that of T, by one reduced row echelon form each, and the
    change of basis is inverted by Gauss-Jordan over Fraction.
    """
    rs = model.root_system
    n = model.n
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sign = 1 if model.kind == "sym" else -1
    b = 1 + max(c for coeffs in rs.positive_coefficients for c in coeffs)
    simples = rs.simple_roots
    gram = [[pairing(rs, u, v) for v in simples] for u in simples]
    y = _matvec(inverse(gram), tuple(b**j for j in range(rs.rank)))
    h = tuple(_dot(y, col) for col in zip(*simples))
    hm = [[Fraction(0)] * n for _ in range(n)]
    for i, c in enumerate(h):
        if model.kind == "sym":
            hm[i][i] = c
        else:
            hm[2 * i][2 * i + 1], hm[2 * i + 1][2 * i] = c, -c
    columns = []
    for a in range(len(pairs)):
        unit = _skew_from_coords(pairs, [int(t == a) for t in range(len(pairs))], n)
        image = _bracket(hm, _bracket(hm, unit, n), n)
        columns.append([sign * image[i][j] for (i, j) in pairs])
    op = transpose(columns)
    order, block_slices = [], []
    for lam, mult in zip(rs.positive_roots, rs.positive_multiplicities):
        value = pairing(rs, lam, h) ** 2
        space = nullspace(
            [[c - value if a == k else c for a, c in enumerate(row)]
             for k, row in enumerate(op)]
        )
        assert len(space) == mult
        block_slices.append(slice(len(order), len(order) + mult))
        order.extend(space)
    center = nullspace(op)
    zero_slice = slice(len(order), len(order) + len(center))
    order.extend(center)
    basis_mats = np.array(
        [
            [[float(c) for c in row] for row in _skew_from_coords(pairs, v, n)]
            for v in order
        ]
    )
    from_coords = np.array(
        [[float(c) for c in row] for row in inverse(transpose(order))]
    )
    return DenseRootSpaces(pairs, basis_mats, block_slices, zero_slice, from_coords)


class MaterializedSample(NamedTuple):
    points: np.ndarray
    projections: np.ndarray
    spectrum_deviation: float


def sample_orbit_materialized(
    model, x_cartan, n_samples, seed, *, forced_cartan_points=()
):
    """The Haar sampler that keeps all N conjugates in one N x n x n stack.

    The reference for the streamed ``matmodel.sample_orbit``: chunk c is one
    stacked Gaussian fill of the stream (seed, _HAAR, c), one stacked QR
    with Mezzadri's sign fix and a determinant flip of the first column,
    and one stacked conjugation; the forced points' exact embeddings follow
    the draws.  Projections and the invariant deviation (sorted eigenvalues
    for sym, sorted singular values for skew) are read off the whole stack.
    """
    chunk, n = matmodel._CHUNK, model.n
    base = matmodel.embed(model, x_cartan)
    points = np.empty((n_samples + len(forced_cartan_points), n, n))
    for c, start in enumerate(range(0, n_samples, chunk)):
        k = min(chunk, n_samples - start)
        z = np.random.default_rng((seed, matmodel._HAAR, c)).standard_normal((k, n, n))
        q, r = np.linalg.qr(z)
        signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
        signs[signs == 0] = 1.0
        q *= signs[:, None, :]
        q[np.linalg.det(q) < 0, :, 0] *= -1.0
        points[start : start + k] = q @ base @ np.swapaxes(q, -1, -2)
    for k, v in enumerate(forced_cartan_points):
        points[n_samples + k] = matmodel.embed(model, v)
    if model.kind == "sym":
        base_vals = np.linalg.eigvalsh(base)
        vals = np.linalg.eigvalsh(points)
    else:
        base_vals = np.sort(np.linalg.svd(base, compute_uv=False))
        vals = np.sort(np.linalg.svd(points, compute_uv=False), axis=-1)
    deviation = float(np.max(np.abs(vals - base_vals)))
    return MaterializedSample(points, matmodel.project(model, points), deviation)


def majorized_by(values, bound, tol=1e-9):
    """Hardy-Littlewood-Polya: partial sums of the sorted sequences.

    True when the descending partial sums of ``values`` stay below those
    of ``bound`` (within tol) and the totals agree.
    """
    a = sorted((float(v) for v in values), reverse=True)
    c = sorted((float(v) for v in bound), reverse=True)
    if len(a) != len(c):
        return False
    run_a = 0.0
    run_c = 0.0
    for va, vc in zip(a, c):
        run_a += va
        run_c += vc
        if run_a > run_c + tol:
            return False
    return abs(run_a - run_c) <= tol


def so_volume(n) -> float:
    """Volume of SO(n) when the generators E_ij - E_ji (i < j) are orthonormal.

    SO(m) / SO(m-1) is the unit sphere S^(m-1), so the volume is the
    product of the sphere areas 2 pi^(m/2) / Gamma(m/2) for m = 2..n.
    """
    return math.prod(
        2 * math.pi ** (m / 2) / math.gamma(m / 2) for m in range(2, n + 1)
    )


def vertex_deficit(x, a):
    """Second-order term of diag(e^A diag(x) e^-A) - x for antisymmetric A.

    delta_i = sum_j a_ij^2 (x_j - x_i); the first-order term [A, diag(x)]
    has a zero diagonal.  Leading axes of ``a`` broadcast.
    """
    x = np.asarray(x, dtype=float)
    b = np.asarray(a, dtype=float) ** 2
    return b @ x - b.sum(axis=-1) * x


class VertexMass(NamedTuple):
    c: float
    k: int
    rel_err: float


def sym_vertex_mass(x, *, n_dirs=200_000, seed=20120625) -> VertexMass:
    """Haar mass near one vertex of the symmetric model's orbitope.

    For a regular x (distinct entries), a Haar-random g in SO(n) has
    diag(g diag(x) g^T) within distance d of a given vertex of
    conv(S_n x) with probability c d^(k/2) (1 + o(1)) as d -> 0, where
    k = n(n-1)/2.  Near each of the 2^(n-1) rotations w over the vertex,
    w e^A projects to the vertex plus the permuted vertex_deficit(x, A),
    which is quadratic in A's k coordinates, so

        c = 2^(n-1) V_k / so_volume(n),   V_k = vol{a : |delta(a)| <= 1}.

    delta vanishes only at a = 0 when x is regular, so in polar
    coordinates V_k = (1/k) |S^(k-1)| E_u[|delta(u)|^(-k/2)] with u
    uniform on the unit sphere, a bounded integrand.  The expectation is
    a Monte Carlo mean over ``n_dirs`` directions from a generator with
    a fixed seed; ``rel_err`` is its relative standard error (about 1e-3
    for x = (2, 0, -2) and 3e-3 for x = (3, 1, -1, -3) at the default
    size).
    """
    x = np.asarray([float(c) for c in x])
    n = len(x)
    if len(set(x)) != n:
        raise ValueError("the vertex mass needs a regular point")
    k = n * (n - 1) // 2
    rows, cols = np.triu_indices(n, 1)
    u = np.random.default_rng(seed).standard_normal((n_dirs, k))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    a = np.zeros((n_dirs, n, n))
    a[:, rows, cols] = u
    a[:, cols, rows] = -u
    f = np.linalg.norm(vertex_deficit(x, a), axis=-1) ** (-k / 2)
    sphere = 2 * math.pi ** (k / 2) / math.gamma(k / 2)
    volume = sphere / k * f.mean()
    return VertexMass(
        c=float(2 ** (n - 1) * volume / so_volume(n)),
        k=k,
        rel_err=float(f.std(ddof=1) / math.sqrt(n_dirs) / f.mean()),
    )
