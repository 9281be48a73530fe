"""Face descriptors, saturations, witnesses, and the bijection check."""

import dataclasses
import functools
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    dominant_with_walls,
    image,
    matrix_group,
    pairing,
    parabolic_elements,
)
from orbitope_lab import cli, facelab
from orbitope_lab import polytope as poly
from orbitope_lab.rootsys import (
    build_root_system,
)
from orbitope_lab.linalg import vec_add, vec_scale, zeros
from orbitope_lab.weyl import (
    WeylGroup,
    generate,
    orbit,
)


def system(label):
    rs = build_root_system(label)
    return rs, generate(rs)


@functools.lru_cache(maxsize=None)
def oracle_group(label):
    return matrix_group(build_root_system(label))


def test_x_connected_subsets_regular_point():
    rs, _ = system("A2")
    x = (2, 0, -2)
    for subset in ((), (0,), (1,), (0, 1)):
        assert facelab.is_x_connected(rs, subset, x)


def test_x_connected_subsets_on_wall():
    rs, _ = system("B2")
    x = (1, 1)
    assert facelab.is_x_connected(rs, (), x)
    assert not facelab.is_x_connected(rs, (0,), x)
    assert facelab.is_x_connected(rs, (1,), x)
    assert facelab.is_x_connected(rs, (0, 1), x)


def test_is_x_connected_validates_indices():
    rs, _ = system("A2")
    with pytest.raises(ValueError):
        facelab.is_x_connected(rs, (5,), (2, 0, -2))


def test_saturation_adds_orthogonal_walls():
    rs, _ = system("B3")
    x = (1, 1, 0)  # walls: alpha1 (e1-e2) and alpha3 (e3)
    assert facelab.saturation(rs, (), x) == frozenset({0, 2})
    with pytest.raises(ValueError):
        facelab.saturation(rs, (0,), x)


def test_saturation_round_trip():
    for label in ("A2", "B2", "B3", "G2", "BC2"):
        rs, group = system(label)
        for mask in range(1 << rs.rank):
            walls = frozenset(i for i in range(rs.rank) if mask >> i & 1)
            x = dominant_with_walls(rs, walls)
            if x is None or walls == frozenset(range(rs.rank)):
                continue
            for imask in range(1 << rs.rank):
                subset = frozenset(
                    i for i in range(rs.rank) if imask >> i & 1
                )
                if not facelab.is_x_connected(rs, subset, x):
                    continue
                j = facelab.saturation(rs, subset, x)
                assert subset <= j
                assert facelab.largest_x_connected_subset(rs, j, x) == subset


def test_canonical_beta_values_and_conditions():
    rs, _ = system("A2")
    beta = facelab.canonical_beta(rs, frozenset({0}))
    assert beta == (Fraction(1, 3), Fraction(1, 3), Fraction(-2, 3))
    beta_empty = facelab.canonical_beta(rs, frozenset())
    assert beta_empty == (Fraction(1), Fraction(0), Fraction(-1))
    beta_full = facelab.canonical_beta(rs, frozenset({0, 1}))
    assert all(c == 0 for c in beta_full)
    for label in ("A3", "B3", "G2", "BC2"):
        rsq, _ = system(label)
        for mask in range(1 << rsq.rank):
            j = frozenset(i for i in range(rsq.rank) if mask >> i & 1)
            beta_j = facelab.canonical_beta(rsq, j)
            for i, alpha in enumerate(rsq.simple_roots):
                value = pairing(rsq, alpha, beta_j)
                if i in j:
                    assert value == 0
                else:
                    assert value > 0


def test_parabolic_subgroup_matches_regenerated_subgroup():
    """W_J is the group on J's generators, of the oracle's order."""
    for label in ("A2", "B2", "G2", "B3"):
        rs, group = system(label)
        oracle = oracle_group(label)
        for mask in range(1 << rs.rank):
            j = frozenset(i for i in range(rs.rank) if mask >> i & 1)
            para = facelab.parabolic_subgroup(group, j)
            assert para == WeylGroup(rs, tuple(sorted(j)))
            assert para.order == len(parabolic_elements(oracle, j))


DESCRIPTOR_COUNTS = (
    ("A1", (1, -1), 1),
    ("A2", (2, 0, -2), 3),
    ("A2", (1, 1, -2), 2),
    ("B2", (2, 1), 3),
    ("B2", (1, 1), 2),
    ("B2", (1, 0), 2),
    ("G2", (-1, -2, 3), 3),
    ("B3", (3, 2, 1), 7),
    ("B3", (2, 1, 0), 5),
)


def test_classify_faces_frozen_counts():
    for label, x, expected in DESCRIPTOR_COUNTS:
        rs, group = system(label)
        descriptors = facelab.classify_faces(rs, group, x)
        assert len(descriptors) == expected, (label, x)


def test_classify_faces_regular_a2_details():
    rs, group = system("A2")
    descriptors = facelab.classify_faces(rs, group, (2, 0, -2))
    by_i = {d.I: d for d in descriptors}
    assert set(by_i) == {frozenset(), frozenset({0}), frozenset({1})}
    vertex = by_i[frozenset()]
    assert vertex.J == frozenset()
    assert vertex.dim_sigma == 0
    assert vertex.dim_extF == 0
    assert vertex.dim_q_J == 5
    assert vertex.dim_n_J == 3
    edge = by_i[frozenset({0})]
    assert edge.dim_sigma == 1
    assert edge.dim_extF == 1
    assert edge.dim_q_J == 6
    assert edge.dim_n_J == 2
    assert len(edge.sigma_vertices) == 2


def test_descriptor_dimension_bookkeeping():
    for label, x, _ in DESCRIPTOR_COUNTS:
        rs, group = system(label)
        total_mult = sum(rs.positive_multiplicities)
        dim_g = rs.rank + rs.centralizer_dim + 2 * total_mult
        for d in facelab.classify_faces(rs, group, x):
            assert d.dim_q_J + d.dim_n_J == dim_g
            assert 0 <= d.dim_sigma <= rs.rank
            assert d.dim_sigma <= d.dim_extF
            assert len(d.sigma_vertices) >= 1
            assert d.I <= d.J


def test_descriptor_record_is_one_based():
    rs, group = system("A2")
    d = facelab.classify_faces(rs, group, (1, 1, -2))[-1]
    record = facelab.descriptor_record(d)
    assert record["I"] == [2]
    assert record["J"] == [2]
    assert record["sigma_vertex_count"] == len(d.sigma_vertices)


def test_classify_faces_requires_dominant_nonzero():
    rs, group = system("A2")
    with pytest.raises(ValueError):
        facelab.classify_faces(rs, group, (0, 0, 0))
    with pytest.raises(ValueError):
        facelab.classify_faces(rs, group, (0, 2, -2))


def bijection(rs, group, x, descriptors=None):
    """The bijection check on the orbit polytope of a dominant x."""
    if descriptors is None:
        descriptors = facelab.classify_faces(rs, group, x)
    points = orbit(group, x)
    p = poly.hull(points, letters=poly.vertex_permutations(points, group))
    return facelab.verify_bijection(rs, p, descriptors)


def test_verify_bijection_passes():
    cases = (
        ("A1", (1, -1)),
        ("A2", (2, 0, -2)),
        ("A2", (1, 1, -2)),
        ("B2", (2, 1)),
        ("B2", (1, 1)),
        ("G2", (-1, -2, 3)),
        ("B3", (3, 2, 1)),
        ("B3", (2, 1, 0)),
    )
    for label, x in cases:
        rs, group = system(label)
        report = bijection(rs, group, x)
        assert report.passed, (label, x, report.counterexamples)
        assert report.descriptor_count == report.face_orbit_count
        assert all(r["witness_matches"] for r in report.records)


def test_verify_bijection_kernel_point_vacuous():
    rs, group = system("A2")
    report = bijection(rs, group, (1, 1, 1))
    assert report.passed
    assert report.descriptor_count == 0
    assert report.face_orbit_count == 0


def test_verify_bijection_detects_corruption():
    rs, group = system("A2")
    x = (2, 0, -2)
    descriptors = list(facelab.classify_faces(rs, group, x))
    bad = dataclasses.replace(
        descriptors[1], beta=tuple(-c for c in descriptors[1].beta)
    )
    descriptors[1] = bad
    report = bijection(rs, group, x, descriptors)
    assert not report.passed
    kinds = {c["kind"] for c in report.counterexamples}
    assert "witness-mismatch" in kinds


def test_verify_bijection_detects_missing_descriptor():
    rs, group = system("A2")
    x = (2, 0, -2)
    descriptors = list(facelab.classify_faces(rs, group, x))[:-1]
    report = bijection(rs, group, x, descriptors)
    assert not report.passed
    kinds = {c["kind"] for c in report.counterexamples}
    assert "orbit-missed" in kinds
    assert "count-mismatch" in kinds


def test_verify_bijection_detects_improper_face_hit():
    # beta = 0 is constant on the polytope, so it exposes all of it
    rs, group = system("A2")
    x = (2, 0, -2)
    descriptors = list(facelab.classify_faces(rs, group, x))
    descriptors[0] = dataclasses.replace(descriptors[0], beta=(0, 0, 0))
    report = bijection(rs, group, x, descriptors)
    assert not report.passed
    hit = next(c for c in report.counterexamples if c["kind"] == "improper-face-hit")
    assert hit == {
        "kind": "improper-face-hit",
        "orbit_representative": list(range(6)),
        "descriptors": [sorted(i + 1 for i in descriptors[0].I)],
    }
    assert report.records[0]["orbit_size"] is None
    assert "count-mismatch" not in {c["kind"] for c in report.counterexamples}


def test_verify_bijection_detects_orbit_hit_twice():
    rs, group = system("B2")
    x = (2, 1)
    descriptors = list(facelab.classify_faces(rs, group, x))
    twice = descriptors[1]
    report = bijection(rs, group, x, descriptors + [twice])
    assert not report.passed
    record = report.records[1]
    assert report.records[-1] == record
    kinds = [c["kind"] for c in report.counterexamples]
    assert kinds == ["orbit-hit-twice", "count-mismatch"]
    assert report.counterexamples[0] == {
        "kind": "orbit-hit-twice",
        "orbit_representative": record["orbit_representative"],
        "descriptors": [record["I"], record["I"]],
    }
    assert record["orbit_size"] == 4


def test_sigma_vertices_are_parabolic_orbit():
    rs, group = system("B3")
    x = (3, 2, 1)
    p = poly.hull(orbit(group, x))
    for d in facelab.classify_faces(rs, group, x):
        oracle = oracle_group("B3")
        expected = {image(oracle, i, x) for i in parabolic_elements(oracle, d.J)}
        assert set(d.sigma_vertices) == expected
        assert set(d.sigma_vertices) <= set(p.vertices)


def cli_verify(label, x):
    """The report of ``verify --system label --x x``."""
    argv = ["verify", "--system", label, "--x=" + ",".join(map(str, x))]
    args = cli.build_parser().parse_args(argv)
    return args.handler(args)[1]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    st.sampled_from(("A2", "B2", "BC2", "G2", "A3")),
    st.lists(st.integers(0, 3), min_size=3, max_size=3),
    st.fractions(Fraction(1, 4), 4, max_denominator=5),
    st.integers(0, 10**6),
)
def test_classification_invariant_under_scaling_and_group_moves(
    label, coeffs, q, pick
):
    rs, group = system(label)
    assume(any(coeffs[: rs.rank]))
    x = zeros(rs.ambient_dim)
    for c, w in zip(coeffs, rs.fundamental_coweights):
        x = vec_add(x, vec_scale(c, w))
    descriptors = facelab.classify_faces(rs, group, x)
    scaled = facelab.classify_faces(rs, group, vec_scale(q, x))
    assert len(scaled) == len(descriptors)
    for d, e in zip(descriptors, scaled):
        assert dataclasses.replace(e, sigma_vertices=()) == dataclasses.replace(
            d, sigma_vertices=()
        )
        assert e.sigma_vertices == tuple(vec_scale(q, p) for p in d.sigma_vertices)
    # the CLI verifies a W-moved x at its dominant representative
    oracle = oracle_group(label)
    moved = image(oracle, pick % len(oracle.matrices), x)
    at_x, at_moved = (cli_verify(label, point) for point in (x, moved))
    assert at_moved["x_dominant"] == at_x["x_dominant"]
    assert at_moved["stages"] == at_x["stages"]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    st.sampled_from(
        ("A1", "BC1", "A2", "B2", "C2", "BC2", "G2", "D2",
         "A3", "B3", "C3", "BC3", "D3")
    ),
    st.data(),
)
def test_face_orbits_are_counted_by_x_connected_subsets(label, data):
    rs, group = system(label)
    walls = data.draw(st.sets(st.integers(0, rs.rank - 1), max_size=rs.rank - 1))
    x = zeros(rs.ambient_dim)
    for i, w in enumerate(rs.fundamental_coweights):
        if i not in walls:
            x = vec_add(x, vec_scale(data.draw(st.integers(1, 3)), w))
    expected = sum(
        1
        for size in range(rs.rank + 1)
        for subset in combinations(range(rs.rank), size)
        if facelab.is_x_connected(rs, subset, x)
        and len(facelab.saturation(rs, subset, x)) < rs.rank
    )
    points = orbit(group, x)
    p = poly.hull(points, letters=poly.vertex_permutations(points, group))
    orbits = poly.faces_up_to_group(p)
    assert len(orbits) == expected
    assert sum(size for _, size in orbits) == len(poly.face_lattice(p)) - 1
