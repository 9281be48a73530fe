"""Exact convex hulls, faces, and group actions on orbit polytopes."""

import importlib.util
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    contains,
    face_lattice_by_intersections,
    hull_by_subsets,
    in_convex_hull,
    mat,
    rank,
)
from orbitope_lab import polytope as poly
from orbitope_lab.facelab import parabolic_subgroup
from orbitope_lab.linalg import nullspace, primitive
from orbitope_lab.rootsys import (
    build_root_system,
    metric_covector,
)
from orbitope_lab.weyl import generate, orbit


def orbit_hull(label, x):
    rs = build_root_system(label)
    group = generate(rs)
    return rs, group, poly.hull(orbit(group, x))


def test_single_point_hull():
    p = poly.hull([(1, 2, 3)])
    assert p.dim == 0
    assert p.vertices == ((Fraction(1), Fraction(2), Fraction(3)),)
    assert p.facets == ()
    assert [f.dim for f in poly.face_lattice(p)] == [0]


def test_segment_hull():
    p = poly.hull([(0, 0), (2, 2), (1, 1)])
    assert p.dim == 1
    assert p.vertices == ((Fraction(0), Fraction(0)), (Fraction(2), Fraction(2)))
    assert len(p.facets) == 2
    faces = poly.face_lattice(p)
    assert sorted(f.dim for f in faces) == [0, 0, 1]


def test_hexagon_counts():
    rs, group, p = orbit_hull("A2", (2, 0, -2))
    assert p.dim == 2
    assert len(p.vertices) == 6
    assert len(p.facets) == 6
    faces = poly.face_lattice(p)
    assert len(faces) == 13
    orbits = poly.faces_up_to_group(p, poly.vertex_permutations(p.vertices, group))
    assert sorted((f.dim, size) for f, size in orbits) == [
        (0, 6),
        (1, 3),
        (1, 3),
    ]


def test_triangle_counts():
    rs, group, p = orbit_hull("A2", (1, 1, -2))
    assert (len(p.vertices), len(p.facets)) == (3, 3)
    assert len(poly.face_lattice(p)) == 7


def test_octagon_counts():
    rs, group, p = orbit_hull("B2", (2, 1))
    assert (p.dim, len(p.vertices), len(p.facets)) == (2, 8, 8)
    assert len(poly.face_lattice(p)) == 17
    orbits = poly.faces_up_to_group(p, poly.vertex_permutations(p.vertices, group))
    assert sorted((f.dim, size) for f, size in orbits) == [
        (0, 8),
        (1, 4),
        (1, 4),
    ]


def test_square_on_wall():
    rs, group, p = orbit_hull("B2", (1, 1))
    assert (len(p.vertices), len(p.facets)) == (4, 4)


def test_permutohedron_counts():
    rs, group, p = orbit_hull("A3", (3, 1, -1, -3))
    assert p.dim == 3
    assert len(p.vertices) == 24
    assert len(p.facets) == 14
    orbits = poly.faces_up_to_group(p, poly.vertex_permutations(p.vertices, group))
    assert len(orbits) == 7
    assert sum(size for _, size in orbits) == len(poly.face_lattice(p)) - 1


def test_regular_b3_counts():
    rs, group, p = orbit_hull("B3", (3, 2, 1))
    assert (len(p.vertices), len(p.facets)) == (48, 26)
    faces = poly.face_lattice(p)
    assert len(faces) == 147
    orbits = poly.faces_up_to_group(p, poly.vertex_permutations(p.vertices, group))
    assert len(orbits) == 7
    assert sum(size for _, size in orbits) == 146


def test_vertices_against_membership_oracle():
    for label, x in (("A2", (2, 0, -2)), ("B2", (2, 1)), ("A2", (1, 1, -2))):
        rs, group, p = orbit_hull(label, x)
        points = orbit(group, x)
        assert set(p.vertices) <= set(points)
        for v in p.vertices:
            others = [q for q in p.vertices if q != v]
            assert not in_convex_hull(others, v)
        for q in points:
            assert in_convex_hull(p.vertices, q)


def test_contains_matches_oracle():
    rs, group, p = orbit_hull("B2", (2, 1))
    rng = random.Random(2)
    for _ in range(40):
        q = tuple(
            Fraction(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(2)
        )
        assert contains(p, q) == in_convex_hull(p.vertices, q)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(2, 3), st.data())
def test_hull_agrees_with_the_membership_oracle(d, data):
    point = st.tuples(*[st.integers(-3, 3)] * d)
    points = data.draw(st.lists(point, min_size=1, max_size=7, unique=True))
    box = [st.integers(min(c), max(c)) for c in zip(*points)]
    probes = data.draw(st.lists(st.tuples(*box), max_size=6))
    p = poly.hull(points)
    for q in points + probes:
        assert contains(p, q) == in_convex_hull(points, q)
    extreme = {
        q for q in points if not in_convex_hull([r for r in points if r != q], q)
    }
    assert set(p.vertices) == extreme


def test_facets_are_valid_and_tight():
    for label, x in (("A2", (2, 0, -2)), ("B3", (2, 1, 0)), ("G2", (-1, -2, 3))):
        rs, group, p = orbit_hull(label, x)
        for nu, c in p.facets:
            values = [
                sum(a * b for a, b in zip(nu, v)) for v in p.vertices
            ]
            assert all(val <= c for val in values)
            tight = sum(1 for val in values if val == c)
            assert tight >= p.dim


def test_rank4_hulls_have_valid_tight_facets():
    cases = (
        ("A4", (1, 1, 0, 0, 0), 10, 10),
        ("B4", (1, 0, 0, 0), 8, 16),
        ("F4", (1, 1, 0, 0), 24, 24),
    )
    for label, x, n_vertices, n_facets in cases:
        rs, group, p = orbit_hull(label, x)
        assert (p.dim, len(p.vertices), len(p.facets)) == (4, n_vertices, n_facets)
        for nu, c in p.facets:
            values = [sum(a * b for a, b in zip(nu, v)) for v in p.vertices]
            assert all(val <= c for val in values)
            assert sum(1 for val in values if val == c) >= p.dim


def test_cross_product_matches_nullspace():
    rng = random.Random(8)
    for d in (2, 3, 4, 5):
        for _ in range(60):
            rows = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(d - 1)]
            kernel = nullspace(mat(rows))
            normal = poly._cross(rows)
            assert all(sum(a * b for a, b in zip(normal, r)) == 0 for r in rows)
            if len(kernel) != 1:
                assert not any(normal)
                continue
            assert primitive(normal) in (
                primitive(kernel[0]),
                primitive(tuple(-c for c in kernel[0])),
            )


def test_support_and_exposed_face():
    rs, group, p = orbit_hull("A2", (2, 0, -2))
    value, indices = poly.support(p, (1, 0, -1))
    assert value == 4
    assert [p.vertices[i] for i in indices] == [
        (Fraction(2), Fraction(0), Fraction(-2))
    ]
    value2, indices2 = poly.support(p, (1, 1, -2))
    assert value2 == 6
    assert len(indices2) == 2
    face = poly.exposed_face(p, (1, 1, -2))
    assert face.dim == 1
    assert face.vertex_indices == indices2


def test_zero_covector_exposes_everything():
    rs, group, p = orbit_hull("A2", (2, 0, -2))
    face = poly.exposed_face(p, (0, 0, 0))
    assert face.vertex_indices == tuple(range(6))
    assert face.dim == p.dim


def test_face_lattice_closed_under_intersection():
    rs, group, p = orbit_hull("B2", (2, 1))
    faces = poly.face_lattice(p)
    index = {f.vertex_indices for f in faces}
    for f in faces:
        for g in faces:
            meet = tuple(sorted(set(f.vertex_indices) & set(g.vertex_indices)))
            if meet:
                assert meet in index


def test_every_face_is_exposed_by_tight_normal_sum():
    for label, x in (("A2", (2, 0, -2)), ("B2", (1, 1)), ("G2", (0, -1, 1))):
        rs, group, p = orbit_hull(label, x)
        for face in poly.face_lattice(p):
            beta = [Fraction(0)] * p.ambient_dim
            for nu, c in p.facets:
                if all(
                    sum(a * b for a, b in zip(nu, p.vertices[i])) == c
                    for i in face.vertex_indices
                ):
                    beta = [bc + nc for bc, nc in zip(beta, nu)]
            exposed = poly.exposed_face(p, beta)
            assert exposed.vertex_indices == face.vertex_indices


def test_vertex_permutations_and_bad_group():
    rs, group, p = orbit_hull("A2", (2, 0, -2))
    perms = poly.vertex_permutations(p.vertices, group)
    assert len(perms) == rs.rank
    for perm in perms:
        assert sorted(perm) == list(range(6))
    other = generate(build_root_system("B3"))
    with pytest.raises(ValueError):
        poly.vertex_permutations(poly.hull([(0, 0, 0), (1, 0, 0)]).vertices, other)


def test_face_budget_enforced():
    # regular B3 has 26 facets and 147 faces, the polytope itself included
    points = orbit(generate(build_root_system("B3")), (3, 2, 1))
    for budget in (10, 26, 146):
        with pytest.raises(ValueError, match=f"^face budget of {budget} exceeded$"):
            poly.hull(points, budget=budget)
    assert len(poly.face_lattice(poly.hull(points, budget=147))) == 147


def test_hull_with_gram_scaled_covectors():
    # exposed faces take covectors, so a scaled metric enters via the caller
    rs = build_root_system("A2")
    group = generate(rs)
    p = poly.hull(orbit(group, (2, 0, -2)))
    beta = (2, 0, -2)
    cov = metric_covector(rs, beta)
    assert poly.support(p, cov)[0] == 8


def benchmark_orbits(workload):
    """The orbit of every case of a benchmark workload, at both of its seeds."""
    path = Path(__file__).resolve().parents[1] / "verifybench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("verifybench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    points = set()
    for seed in (workloads.DEFAULT_SEED, workloads.CONFIRM_SEED):
        for _, argv in workloads.cases(workload, seed):
            label = argv[argv.index("--system") + 1]
            coeffs = argv[argv.index("--x") + 1]
            points.add((label, tuple(int(c) for c in coeffs.split(","))))
    for label, coeffs in sorted(points):
        rs = build_root_system(label)
        weights = rs.fundamental_coweights
        x = [sum(c * w[i] for c, w in zip(coeffs, weights))
             for i in range(rs.ambient_dim)]
        yield label, coeffs, orbit(generate(rs), x)


@pytest.mark.parametrize("workload", ["exact-rank3", "exact-rank4"])
def test_hull_matches_the_subset_oracle_on_benchmark_orbits(workload):
    for label, coeffs, points in benchmark_orbits(workload):
        assert poly.hull(points) == hull_by_subsets(points), (label, coeffs)


@st.composite
def point_sets(draw):
    """Rational points in Q^d, d = 1-4, spanning an affine k-flat, k = 0-d:
    the corners of a k-simplex and other points of Z^k, each divided by a
    positive denominator of its own, mapped into Q^d by an injective integer
    map and an integer shift, with some points repeated."""
    d = draw(st.integers(1, 4))
    k = draw(st.integers(0, d))
    small = st.integers(-3, 3)
    corners = [tuple(int(i == j) for j in range(k)) for i in range(-1, k)]
    base = corners + draw(st.lists(st.tuples(*[small] * k), max_size=6))
    dens = draw(st.lists(st.integers(1, 4), min_size=len(base), max_size=len(base)))
    base = [tuple(Fraction(c, q) for c in p) for p, q in zip(base, dens)]
    embed = draw(st.lists(st.tuples(*[small] * k), min_size=d, max_size=d))
    assume(rank(mat(embed)) == k)
    shift = draw(st.tuples(*[small] * d))
    points = [
        tuple(s + sum(a * b for a, b in zip(row, p)) for row, s in zip(embed, shift))
        for p in base
    ]
    return points + draw(st.lists(st.sampled_from(points), max_size=3))


def test_hull_matches_the_subset_oracle():
    dims = Counter()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(point_sets())
    def check(points):
        p = poly.hull(points)
        assert p == hull_by_subsets(points)
        dims[p.dim] += 1

    check()
    # every affine dimension is reached, full 3- and 4-dimensional sets too
    assert set(dims) == {0, 1, 2, 3, 4}, dims


@settings(derandomize=True, max_examples=60, deadline=None)
@given(point_sets(), st.data())
def test_hull_raises_exactly_past_its_face_budget(points, data):
    n = len(hull_by_subsets(points).faces)
    budgets = {0, 1, 2, 3, n // 3, n // 2, n - 1, n, n + 1}
    budget = data.draw(st.sampled_from(sorted(budgets)))
    if n > budget:
        with pytest.raises(ValueError, match=f"^face budget of {budget} exceeded$"):
            poly.hull(points, budget=budget)
    else:
        assert len(poly.hull(points, budget=budget).faces) == n


@settings(derandomize=True, max_examples=80, deadline=None)
@given(point_sets(), st.data())
def test_support_matches_a_fraction_dot_oracle(points, data):
    """support and exposed_face pair in integers; a Fraction dot product over
    the vertices must find the same maximum and argmax.  A direction
    orthogonal to the affine hull exposes the whole polytope."""
    p = poly.hull(points)
    coefficient = st.fractions(-5, 5, max_denominator=6)
    beta = data.draw(st.tuples(*[coefficient] * p.ambient_dim))
    orthogonal = [Fraction(0)] * p.ambient_dim
    for normal in nullspace(mat(p.basis)) if p.basis else []:
        c = data.draw(coefficient)
        orthogonal = [a + c * b for a, b in zip(orthogonal, normal)]
    for direction in (beta, orthogonal):
        values = [sum(a * b for a, b in zip(direction, v)) for v in p.vertices]
        top = max(values)
        ids = tuple(i for i, value in enumerate(values) if value == top)
        value, indices = poly.support(p, direction)
        assert (type(value), value, indices) == (Fraction, top, ids)
        assert poly.exposed_face(p, direction).vertex_indices == ids
    improper = poly.exposed_face(p, orthogonal)
    assert improper.vertex_indices == tuple(range(len(p.vertices)))
    assert improper.dim == p.dim


def regular_orbit(label):
    rs = build_root_system(label)
    group = generate(rs)
    x = [sum(w[i] for w in rs.fundamental_coweights) for i in range(rs.ambient_dim)]
    return rs, group, orbit(group, x)


def check_hull_certificates(rs, group, points, p):
    """Each facet is tight on an affine (d-1)-flat of the points and bounds
    them all, each ridge lies on exactly two facets, and the facets number
    as the maximal parabolic subgroups predict."""
    d = p.dim
    assert (d, len(p.vertices)) == (rs.rank, group.order)
    scale = math.lcm(*(c.denominator for q in points for c in q))
    ints = [tuple(int(c * scale) for c in q) for q in points]
    tight_sets = []
    for nu, c in p.facets:
        nu = [int(a) for a in nu]
        values = [sum(a * b for a, b in zip(nu, q)) for q in ints]
        assert max(values) == int(c) * scale
        tight = frozenset(i for i, v in enumerate(values) if v == int(c) * scale)
        tight_sets.append(tight)

    def affine_rank(ids):
        first, *rest = sorted(ids)
        base = ints[first]
        return rank([[a - b for a, b in zip(ints[i], base)] for i in rest])

    assert all(affine_rank(t) == d - 1 for t in tight_sets)
    ridges = {
        s & t
        for i, s in enumerate(tight_sets)
        for t in tight_sets[:i]
        if len(s & t) >= d - 1 and affine_rank(s & t) == d - 2
    }
    assert ridges
    for ridge in ridges:
        assert sum(ridge <= t for t in tight_sets) == 2
    # one facet orbit per maximal parabolic subgroup W_(S - i)
    simple = set(range(rs.rank))
    assert len(p.facets) == sum(
        group.order // parabolic_subgroup(group, simple - {i}).order
        for i in simple
    )


@pytest.mark.parametrize("label", ["A4", "D4"])
def test_regular_rank4_hull_certificates(label):
    rs, group, points = regular_orbit(label)
    p = poly.hull(points)
    check_hull_certificates(rs, group, points, p)
    assert p.faces == face_lattice_by_intersections(p.vertices, p.facets)


@pytest.mark.parametrize("label", ["A5", "D5"])
def test_regular_rank5_hull_certificates_with_letters(label):
    rs, group, points = regular_orbit(label)
    letters = poly.vertex_permutations(points, group)
    p = poly.hull(points, letters=letters)
    check_hull_certificates(rs, group, points, p)
    # the faces of dim k are the cosets w W_J with |J| = k, the polytope
    # itself included (the intersection oracle is too slow at this size)
    expected = Counter()
    for k in range(rs.rank + 1):
        for subset in combinations(range(rs.rank), k):
            expected[k] += group.order // parabolic_subgroup(group, set(subset)).order
    assert Counter(f.dim for f in p.faces) == expected


@pytest.mark.parametrize("workload", ["exact-rank3", "exact-rank4"])
def test_letters_hull_matches_the_plain_hull_on_benchmark_orbits(workload):
    for label, coeffs, points in benchmark_orbits(workload):
        group = generate(build_root_system(label))
        letters = poly.vertex_permutations(points, group)
        assert poly.hull(points, letters=letters) == poly.hull(points), (label, coeffs)


@pytest.mark.parametrize("label", ["A4", "B4", "C4", "D4", "F4"])
def test_letters_hull_matches_the_plain_hull_at_regular_points(label):
    rs, group, points = regular_orbit(label)
    letters = poly.vertex_permutations(points, group)
    assert poly.hull(points, letters=letters) == poly.hull(points)


def test_hull_refuses_letters_that_are_no_affine_map():
    rs, group, points = regular_orbit("B2")
    letters = poly.vertex_permutations(points, group)
    assert poly.hull(points, letters=letters) == poly.hull(points)
    # swapping two vertices of the octagon permutes its points, but no
    # affine map does it: the other six would have to stay fixed
    swap = list(range(len(points)))
    swap[0], swap[1] = 1, 0
    with pytest.raises(ValueError, match="no affine map"):
        poly.hull(points, letters=letters + (tuple(swap),))
    with pytest.raises(ValueError, match="not a permutation"):
        poly.hull(points, letters=((0,) * len(points),))


def test_hull_face_budget():
    # a segment has three faces, its two ends and itself; a point has one
    segment = [(1, -1), (-1, 1)]
    with pytest.raises(ValueError, match="^face budget of 2 exceeded$"):
        poly.hull(segment, budget=2)
    assert len(poly.hull(segment, budget=3).faces) == 3
    with pytest.raises(ValueError, match="^face budget of 0 exceeded$"):
        poly.hull([(1, 2)], budget=0)
    assert len(poly.hull([(1, 2)], budget=1).faces) == 1
