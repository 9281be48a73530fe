"""Reflection group generation, orbits, and dominant representatives."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    dominant_by_scan,
    dominant_with_walls,
    face_orbits_by_matrices,
    image,
    matmul,
    matrix_group,
    orbit_by_matrices,
    parabolic_elements,
    reflect,
    share_chamber_by_pairings,
    simple_reflection,
    vertex_permutations_by_matrices,
)
from orbitope_lab import polytope as poly
from orbitope_lab import rootsys, weyl
from orbitope_lab.facelab import parabolic_subgroup
from orbitope_lab.linalg import cleared_rows, identity, matvec, transpose
from orbitope_lab.rootsys import (
    build_root_system,
    is_dominant,
    share_closed_chamber,
)
from orbitope_lab.weyl import (
    generate,
    orbit,
    to_dominant,
)

ORDERS = {
    "A1": 2,
    "A2": 6,
    "A3": 24,
    "B2": 8,
    "B3": 48,
    "C3": 48,
    "D2": 4,
    "D3": 24,
    "BC2": 8,
    "G2": 12,
    "F4": 1152,
}

# G2 in simple-root coordinates with an extra direction; the Gram matrix
# couples that direction to the roots, so the part of a point the group
# fixes is not a coordinate axis.
SKEW_G2 = """label g2-skew
ambient 3
gram 2 -3 1 -3 6 0 1 0 5
simple 1 0 0
simple 0 1 0
root 1 0 0
root 0 1 0
root 1 1 0
root 2 1 0
root 3 1 0
root 3 2 0
"""

ORACLE_SYSTEMS = (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "BC3", "G2",
    "F4", SKEW_G2,
)


@functools.lru_cache(maxsize=None)
def groups(spec):
    rs = build_root_system(spec)
    return rs, generate(rs), matrix_group(rs)


def apply_word(rs, word, x):
    """s_{w_1} ... s_{w_k} x, the rightmost letter acting first."""
    y = tuple(Fraction(c) for c in x)
    for letter in reversed(word):
        y = matvec(simple_reflection(rs, letter), y)
    return y


def subsets(rank):
    """Every subset of the simple-root indices, as a sorted tuple."""
    return [
        tuple(i for i in range(rank) if mask >> i & 1) for mask in range(1 << rank)
    ]


def assert_orbit_matches(points, oracle, x, elements):
    """points is the orbit of x under the given oracle elements: x first,
    each point once."""
    x = tuple(Fraction(c) for c in x)
    assert points[0] == x
    assert len(set(points)) == len(points)
    assert set(points) == {image(oracle, i, x) for i in elements}


def test_group_orders():
    for label, expected in ORDERS.items():
        assert generate(build_root_system(label)).order == expected


def test_simple_reflections_are_isometric_involutions():
    for label in ("A2", "B3", "G2", "BC2"):
        rs = build_root_system(label)
        g = tuple(tuple(Fraction(c) for c in row) for row in rs.inner_product)
        for i in range(rs.rank):
            s = simple_reflection(rs, i)
            assert matmul(s, s) == identity(rs.ambient_dim)
            assert matmul(transpose(s), matmul(g, s)) == g
            alpha = rs.simple_roots[i]
            assert matvec(s, alpha) == tuple(-c for c in alpha)


def test_generate_reads_the_cached_root_permutations(monkeypatch):
    """Building a system permutes its roots; generating W reflects nothing."""
    permute = rootsys.reflection_permutation
    calls = []

    def counting(*args):
        calls.append(args)
        return permute(*args)

    for spec, order in (("B3", 48), ("F4", 1152), (SKEW_G2, 12)):
        rs = build_root_system(spec)
        monkeypatch.setattr(rootsys, "reflection_permutation", counting)
        assert weyl.generate(rs).order == order
        monkeypatch.undo()
    assert calls == []


def test_identity_is_first_with_empty_word():
    """The orbit starts at x, and a dominant x is its own witness."""
    rs = build_root_system("B2")
    group = generate(rs)
    for x in ((2, 1), (1, 1), (1, 0), (0, 0)):
        assert orbit(group, x)[0] == x
        assert to_dominant(group, x) == (x, ())


def test_words_are_geodesic_and_unique():
    """Over a regular orbit the witness words spell distinct elements, each
    as long as the oracle's reduced word for it."""
    for label in ("G2", "B3"):
        rs, group, oracle = groups(label)
        rho = tuple(map(sum, zip(*rs.fundamental_coweights)))
        words = set()
        for i, word in enumerate(oracle.words):
            y = image(oracle, i, rho)
            dom = to_dominant(group, y)
            assert dom.vector == rho
            assert apply_word(rs, dom.word, y) == rho
            assert len(dom.word) == len(word)
            words.add(dom.word)
        assert len(words) == group.order


def test_order_cap_enforced():
    with pytest.raises(ValueError):
        generate(build_root_system("F4"), order_cap=100)


def test_order_cap_refuses_exactly_past_the_order():
    rs = build_root_system("F4")
    assert generate(rs, order_cap=1152).order == 1152
    message = (
        "group order exceeds the cap of 1151; "
        "this rank is not supported for exact enumeration"
    )
    with pytest.raises(ValueError) as info:
        generate(rs, order_cap=1151)
    assert str(info.value) == message


def test_orbit_and_stabilizer_sizes_multiply():
    rng = random.Random(5)
    for label in ("A2", "B2", "B3", "G2"):
        rs, group, oracle = groups(label)
        for _ in range(5):
            x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(rs.ambient_dim))
            points = orbit(group, x)
            stab = [i for i in range(group.order) if image(oracle, i, x) == x]
            assert len(points) * len(stab) == group.order


def test_orbit_of_regular_point_is_free():
    rs = build_root_system("A2")
    group = generate(rs)
    assert len(orbit(group, (2, 0, -2))) == 6
    assert len(orbit(group, (1, 1, -2))) == 3
    assert len(orbit(group, (1, 1, 1))) == 1


def test_to_dominant_examples():
    rs = build_root_system("A2")
    group = generate(rs)
    res = to_dominant(group, (-2, 0, 2))
    assert res.vector == (Fraction(2), Fraction(0), Fraction(-2))
    assert res.word == (0, 1, 0)
    assert apply_word(rs, res.word, (-2, 0, 2)) == res.vector
    assert to_dominant(group, (2, 0, -2)).word == ()
    rs2 = build_root_system("B2")
    group2 = generate(rs2)
    assert to_dominant(group2, (-1, -2)).vector == (Fraction(2), Fraction(1))


def test_to_dominant_always_lands_in_chamber():
    rng = random.Random(13)
    for label in ("A3", "B3", "G2", "BC2"):
        rs = build_root_system(label)
        group = generate(rs)
        for _ in range(20):
            x = tuple(
                Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                for _ in range(rs.ambient_dim)
            )
            res = to_dominant(group, x)
            assert is_dominant(rs, res.vector)
            assert apply_word(rs, res.word, x) == res.vector
            assert res.vector in orbit(group, x)


def test_to_dominant_rejects_proper_subgroup():
    rs = build_root_system("A2")
    with pytest.raises(ValueError, match="no dominant representative"):
        to_dominant(parabolic_subgroup(generate(rs), (0,)), (-2, 0, 2))


def test_parabolic_subgroup_generation():
    rs, group, oracle = groups("A2")
    sub = parabolic_subgroup(group, (0,))
    assert sub.generator_indices == (0,)
    assert sub.order == 2
    x = (2, 0, -2)
    assert_orbit_matches(orbit(sub, x), oracle, x, parabolic_elements(oracle, (0,)))
    empty = parabolic_subgroup(group, ())
    assert empty.order == 1
    assert orbit(empty, x) == (x,)
    assert parabolic_subgroup(sub, ()).order == 1
    with pytest.raises(ValueError, match="outside the group's generators"):
        parabolic_subgroup(sub, (1,))
    with pytest.raises(ValueError, match="outside the simple roots"):
        parabolic_subgroup(group, (2,))


def wall_points(rs):
    """The zero vector and a dominant point on every wall pattern."""
    points = [(Fraction(0),) * rs.ambient_dim]
    for mask in range(1 << rs.rank):
        rep = dominant_with_walls(
            rs, [i for i in range(rs.rank) if mask >> i & 1]
        )
        if rep is not None:
            points.append(rep)
    return points


@pytest.mark.parametrize("spec", ORACLE_SYSTEMS, ids=lambda s: s.split("\n")[0])
def test_group_matches_matrix_oracle(spec):
    rs, group, oracle = groups(spec)
    assert group.order == len(oracle.matrices)
    everything = range(len(oracle.matrices))
    rng = random.Random(spec)
    hulls = 0
    for x in wall_points(rs):
        images = orbit_by_matrices(oracle, x)
        assert_orbit_matches(orbit(group, x), oracle, x, everything)
        for y in [x] + rng.sample(images, min(6, len(images))):
            dom = to_dominant(group, y)
            assert (dom.vector, dom.word) == dominant_by_scan(oracle, y)
        if any(x) and len(images) <= 24 and hulls < 2:
            hulls += 1
            p = poly.hull(images)
            expected = vertex_permutations_by_matrices(oracle, p.vertices)
            letters = poly.vertex_permutations(p.vertices, group)
            assert letters == tuple(
                expected[oracle.words.index((i,))] for i in group.generator_indices
            )
    assert hulls > 0


@pytest.mark.parametrize("spec", ORACLE_SYSTEMS, ids=lambda s: s.split("\n")[0])
def test_parabolic_orders_match_the_oracle(spec):
    """For every J, |W_J| is the number of oracle elements whose reduced
    word uses only letters of J."""
    rs, group, oracle = groups(spec)
    for walls in subsets(rs.rank):
        sub = parabolic_subgroup(group, walls)
        assert sub.order == len(parabolic_elements(oracle, walls))


@pytest.mark.parametrize("spec", ORACLE_SYSTEMS, ids=lambda s: s.split("\n")[0])
@settings(derandomize=True, max_examples=10, deadline=None)
@given(
    st.lists(st.fractions(-6, 6, max_denominator=4), min_size=5, max_size=5),
    st.integers(0, 2**5 - 1),
)
def test_orbits_match_the_oracle_as_sets(spec, coords, mask):
    """The orbit of x under W, and under W_J for a drawn J, is the oracle's
    orbit, listed from x with no point twice."""
    rs, group, oracle = groups(spec)
    x = tuple(coords[: rs.ambient_dim])
    assert_orbit_matches(orbit(group, x), oracle, x, range(len(oracle.matrices)))
    walls = subsets(rs.rank)[mask % (1 << rs.rank)]
    sub = parabolic_subgroup(group, walls)
    elements = parabolic_elements(oracle, walls)
    assert_orbit_matches(orbit(sub, x), oracle, x, elements)
    assert sub.order == len(elements)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sampled_from(("A3", "B3", "C3", "D3", "BC3", "G2", "B4", "F4", SKEW_G2)),
    st.lists(st.fractions(-6, 6, max_denominator=4), min_size=4, max_size=4),
)
def test_integer_letters_match_the_matrix_oracle(spec, coords):
    """A simple reflection's letter, found on the orbit cleared to integers,
    is how the oracle's reflection matrix permutes the orbit; dropping a
    point that the group moves leaves a set some letter does not preserve.
    On ``integer_roots`` the same step gives ``simple_reflection_perms``,
    the permutation the oracle's ``reflect`` makes of the roots."""
    rs, group, oracle = groups(spec)
    points = orbit_by_matrices(oracle, coords[: rs.ambient_dim])
    ints = cleared_rows(points)[1]
    where = {p: k for k, p in enumerate(points)}
    for letter in range(rs.rank):
        element = oracle.words.index((letter,))
        expected = tuple(where[image(oracle, element, p)] for p in points)
        assert rootsys.reflection_permutation(rs, letter, ints) == expected
    if len(points) > 1:
        failures = 0
        for letter in range(rs.rank):
            try:
                rootsys.reflection_permutation(rs, letter, ints[1:])
            except ValueError:
                failures += 1
        assert failures
    roots = rs.integer_roots[1]
    for letter in range(rs.rank):
        perm = rootsys.reflection_permutation(rs, letter, roots)
        assert perm == rs.simple_reflection_perms[letter]
        assert [rs.roots[j] for j in perm] == [reflect(rs, letter, r) for r in rs.roots]


@pytest.mark.parametrize(
    "spec",
    ("A3", "B3", "C3", "D3", "BC3", "G2", "B4", "F4", SKEW_G2),
    ids=lambda s: s.split("\n")[0],
)
@settings(derandomize=True, max_examples=8, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=4, max_size=4))
@example([1, 1, 1, 0])  # regular in rank <= 3; A3's orbit spans a hyperplane
def test_face_orbits_match_the_whole_group_oracle(spec, coeffs):
    """The letters' orbit search finds the representatives and sizes that
    the least image over every element's vertex permutation gives."""
    rs, group, oracle = groups(spec)
    coeffs = coeffs[: rs.rank]
    if rs.rank == 4:  # one coweight keeps the B4 and F4 orbits small
        top = coeffs.index(max(coeffs))
        coeffs = [c if i == top else 0 for i, c in enumerate(coeffs)]
    assume(any(coeffs))
    x = [Fraction(0)] * rs.ambient_dim
    for c, w in zip(coeffs, rs.fundamental_coweights):
        x = [a + c * b for a, b in zip(x, w)]
    points = orbit(group, x)
    assume(len(points) <= 48)  # F4's two middle coweights have 96
    p = poly.hull(points, letters=poly.vertex_permutations(points, group))
    orbits = poly.faces_up_to_group(p)
    assert orbits == face_orbits_by_matrices(oracle, p)
    assert all(group.order % size == 0 for _, size in orbits)
    assert sum(size for _, size in orbits) == len(p.faces) - 1


def test_integer_letter_off_the_lattice_is_refused():
    # s_4 in F4 maps e_1 to (1/2, 1/2, 1/2, 1/2), off the integer points
    rs = build_root_system("F4")
    assert rootsys.reflection_permutation(rs, 2, [(1, 0, 0, 0), (-1, 0, 0, 0)]) == (0, 1)
    with pytest.raises(ValueError, match="does not preserve"):
        rootsys.reflection_permutation(rs, 3, [(1, 0, 0, 0)])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sampled_from(("A3", "B3", "G2", "BC3", SKEW_G2)),
    st.lists(st.fractions(-6, 6, max_denominator=4), min_size=4, max_size=4),
)
def test_to_dominant_matches_matrix_oracle(spec, coords):
    rs, group, oracle = groups(spec)
    x = tuple(coords[: rs.ambient_dim])
    dom = to_dominant(group, x)
    assert (dom.vector, dom.word) == dominant_by_scan(oracle, x)
    assert_orbit_matches(orbit(group, x), oracle, x, range(len(oracle.matrices)))


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    st.sampled_from(("A3", "B3", "BC3", "G2", "F4", SKEW_G2)),
    st.lists(st.fractions(-6, 6, max_denominator=4), min_size=8, max_size=8),
)
def test_integer_pairings_match_fraction_oracles(spec, coords):
    """share_closed_chamber and to_dominant work on integer pairings.

    The chamber test agrees with the Fraction formula on x and y, on x and
    its own dominant representative and on two dominant points; the
    pairing walk lands on the vector and word of the matrix-group scan.
    """
    rs, group, oracle = groups(spec)
    d = rs.ambient_dim
    x, y = tuple(coords[:d]), tuple(coords[4 : 4 + d])
    dom = to_dominant(group, x)
    assert (dom.vector, dom.word) == dominant_by_scan(oracle, x)
    y_plus = to_dominant(group, y).vector
    for u, v in ((x, y), (x, dom.vector), (dom.vector, y_plus)):
        assert share_closed_chamber(rs, u, v) == share_chamber_by_pairings(rs, u, v)
    assert share_closed_chamber(rs, dom.vector, y_plus)
