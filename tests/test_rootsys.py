"""Root system construction, pairings, chambers, and the text format."""

import hashlib
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    dominant_with_walls,
    inverse,
    matmul,
    pairing,
    reflect,
    simple_coefficients,
    simple_reflection,
)
from orbitope_lab.cli import main
from orbitope_lab.linalg import (
    cleared,
    det,
    identity,
    int_dot,
    matvec,
    transpose,
)
from orbitope_lab.weyl import generate
from orbitope_lab.rootsys import (
    build_root_system,
    is_dominant,
    make_root_system,
    metric_covector,
    root_system_from_text,
    root_system_to_text,
    share_closed_chamber,
    wall_set,
)

CATALOG = {
    # label: (rank, ambient_dim, positive root count)
    "A1": (1, 2, 1),
    "A2": (2, 3, 3),
    "A3": (3, 4, 6),
    "B2": (2, 2, 4),
    "B3": (3, 3, 9),
    "C3": (3, 3, 9),
    "D2": (2, 2, 2),
    "D3": (3, 3, 6),
    "BC2": (2, 2, 6),
    "G2": (2, 3, 6),
    "F4": (4, 4, 24),
}


def test_catalog_shapes():
    for label, (rank, ambient, positives) in CATALOG.items():
        rs = build_root_system(label)
        assert rs.label == label
        assert rs.rank == rank
        assert rs.ambient_dim == ambient
        assert len(rs.positive_roots) == positives
        assert rs.positive_multiplicities == (1,) * positives
        assert rs.centralizer_dim == 0


@pytest.mark.parametrize(
    "fits, past, count",
    [("A10", "A11", 66), ("B8", "B9", 81), ("C8", "C9", 81), ("D8", "D9", 72),
     ("BC7", "BC8", 72)],
)
def test_root_count_cap_at_the_catalog_boundary(fits, past, count):
    """The largest member of each family within the cap of 64 builds; the
    next is refused, naming the positive-root count it would have."""
    assert len(build_root_system(fits).positive_roots) <= 64
    with pytest.raises(ValueError, match=f"{past} has {count} positive roots"):
        build_root_system(past)


def test_labels_case_insensitive():
    assert build_root_system("g2").label == "G2"
    assert build_root_system(" bc2 ").label == "BC2"


def test_bad_specs_rejected():
    for bad in ("", "  ", "E8", "A0", "Q3", "/no/such/file"):
        with pytest.raises(ValueError):
            build_root_system(bad)


def test_bc2_contains_doubled_root():
    rs = build_root_system("BC2")
    roots = set(rs.positive_roots)
    e1 = (Fraction(1), Fraction(0))
    twice = (Fraction(2), Fraction(0))
    assert e1 in roots and twice in roots


def test_pairing_is_plain_dot_for_identity_gram():
    rs = build_root_system("B3")
    rng = random.Random(0)
    for _ in range(10):
        lam = rs.positive_roots[rng.randrange(len(rs.positive_roots))]
        v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(3))
        assert pairing(rs, lam, v) == sum(a * b for a, b in zip(lam, v))
        assert metric_covector(rs, v) == v


def test_pairing_respects_gram_matrix():
    rs = make_root_system(
        ((Fraction(1),),),
        ((Fraction(1),),),
        inner_product=((Fraction(3),),),
        label="scaled",
    )
    assert pairing(rs, (Fraction(1),), (Fraction(2),)) == 6
    assert metric_covector(rs, (Fraction(2),)) == (Fraction(6),)


def test_positive_roots_have_nonnegative_simple_coefficients():
    for label in CATALOG:
        rs = build_root_system(label)
        for root, cached in zip(rs.positive_roots, rs.positive_coefficients):
            coeffs = simple_coefficients(rs, root)
            assert all(c >= 0 for c in coeffs)
            rebuilt = [Fraction(0)] * rs.ambient_dim
            for c, alpha in zip(coeffs, rs.simple_roots):
                for i, a in enumerate(alpha):
                    rebuilt[i] += c * a
            assert tuple(rebuilt) == root
            support = frozenset(i for i, c in enumerate(cached) if c)
            assert support == frozenset(i for i, c in enumerate(coeffs) if c != 0)


def test_fundamental_coweights_dual_to_simple_roots():
    for label in CATALOG:
        rs = build_root_system(label)
        coweights = rs.fundamental_coweights
        for i, alpha in enumerate(rs.simple_roots):
            norm = pairing(rs, alpha, alpha)
            for j, w in enumerate(coweights):
                expected = norm / 2 if i == j else 0
                assert pairing(rs, alpha, w) == expected


def test_dominance_and_walls():
    rs = build_root_system("B2")
    assert is_dominant(rs, (1, 1))
    assert wall_set(rs, (1, 1)) == frozenset({0})
    assert wall_set(rs, (2, 1)) == frozenset()
    assert wall_set(rs, (1, 0)) == frozenset({1})
    assert not is_dominant(rs, (0, 1))
    with pytest.raises(ValueError):
        wall_set(rs, (0, 1))


def test_share_closed_chamber_examples():
    rs = build_root_system("A2")
    assert share_closed_chamber(rs, (2, 0, -2), (1, 1, -2))
    assert share_closed_chamber(rs, (2, 0, -2), (3, 0, -3))
    assert not share_closed_chamber(rs, (2, 0, -2), (-2, 0, 2))
    assert share_closed_chamber(rs, (0, 0, 0), (2, 0, -2))
    # symmetry on random pairs
    rng = random.Random(21)
    for _ in range(50):
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        y = tuple(Fraction(rng.randint(-4, 4)) for _ in range(3))
        assert share_closed_chamber(rs, x, y) == share_closed_chamber(rs, y, x)


def test_dominant_with_walls_round_trip():
    for label in ("A1", "A2", "A3", "B2", "B3", "C3", "D3", "BC2", "G2"):
        rs = build_root_system(label)
        for mask in range(1 << rs.rank):
            subset = frozenset(i for i in range(rs.rank) if mask >> i & 1)
            rep = dominant_with_walls(rs, subset)
            if subset == frozenset(range(rs.rank)):
                if rep is not None:
                    assert all(
                        pairing(rs, alpha, rep) == 0 for alpha in rs.simple_roots
                    )
                    assert any(c != 0 for c in rep)
                continue
            assert rep is not None
            assert is_dominant(rs, rep)
            assert wall_set(rs, rep) == subset


def test_dominant_with_walls_full_set_kernel_only():
    assert dominant_with_walls(build_root_system("B2"), {0, 1}) is None
    kernel = dominant_with_walls(build_root_system("A2"), {0, 1})
    assert kernel is not None


def test_text_format_round_trip():
    text = "\n".join(
        [
            "label halved",
            "ambient 2",
            "gram 2 0 0 2",
            "centralizer 2",
            "simple 1/2 -1/2",
            "simple 0 1/2",
            "root 1/2 -1/2 mult 2",
            "root 0 1/2",
            "root 1/2 1/2 mult 2",
            "root 1/2 0",
        ]
    )
    rs = root_system_from_text(text)
    assert rs.label == "halved"
    assert rs.rank == 2
    mults = dict(zip(rs.positive_roots, rs.positive_multiplicities))
    assert mults[(Fraction(1, 2), Fraction(-1, 2))] == 2
    assert mults[(Fraction(1, 2), Fraction(0))] == 1
    assert rs.centralizer_dim == 2
    assert pairing(rs, rs.simple_roots[0], (1, 0)) == 1
    again = root_system_from_text(root_system_to_text(rs))
    assert again.simple_roots == rs.simple_roots
    assert again.positive_roots == rs.positive_roots
    assert again.positive_multiplicities == rs.positive_multiplicities
    assert again.inner_product == rs.inner_product
    assert again.centralizer_dim == rs.centralizer_dim
    assert again.label == rs.label


def test_text_format_rejects_malformed_input():
    with pytest.raises(ValueError):
        root_system_from_text("ambient 2\nsimple 1\n")
    with pytest.raises(ValueError):
        root_system_from_text("simple 1 0\n")
    with pytest.raises(ValueError):
        root_system_from_text("ambient 2\nwhatever 1 2\n")
    for text in (
        "ambient\nsimple 1\nroot 1\n",
        "ambient 1 2\nsimple 1\nroot 1\n",
        "ambient 1\ncentralizer\nsimple 1\nroot 1\n",
        "ambient 1\ncentralizer 2 3\nsimple 1\nroot 1\n",
    ):
        with pytest.raises(ValueError, match=r"^root system text, line [12]: "):
            root_system_from_text(text)
    # B2 whose conjugate short roots e2 and e1 carry multiplicities 3 and 1
    with pytest.raises(ValueError, match="not invariant under the Weyl group"):
        root_system_from_text(
            "ambient 2\nsimple 1 -1\nsimple 0 1\n"
            "root 1 -1\nroot 0 1 mult 3\nroot 1 0 mult 1\nroot 1 1\n"
        )


def test_build_root_system_reads_files(tmp_path):
    rs = build_root_system("A2")
    path = tmp_path / "custom.txt"
    path.write_text(root_system_to_text(rs), encoding="utf-8")
    again = build_root_system(str(path))
    assert again.positive_roots == rs.positive_roots


def test_make_root_system_validates():
    one = (Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        # positive root outside the span cone of the simple roots
        make_root_system((one,), ((Fraction(0), Fraction(1)),))
    with pytest.raises(ValueError):
        # non-symmetric inner product
        make_root_system(
            (one,),
            (one,),
            inner_product=((Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))),
        )


def test_roots_must_be_closed_under_simple_reflections(capsys):
    # B2 listing only its simple roots: s_2 maps e1 - e2 to e1 + e2
    partial = "ambient 2\nsimple 1 -1\nsimple 0 1\nroot 1 -1\nroot 0 1\n"
    with pytest.raises(ValueError, match="closed under the simple reflections"):
        root_system_from_text(partial)
    with pytest.raises(ValueError, match="closed under the simple reflections"):
        make_root_system(((1, -1), (0, 1)), ((1, -1), (0, 1), (1, 0)))
    full = partial + "root 1 0\nroot 1 1\n"
    assert len(root_system_from_text(full).positive_roots) == 4
    for command in ("describe", "polytope", "classify", "verify"):
        assert main([command, "--system", partial, "--x", "2,1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "closed under" in err


def transformed_text(label, m, coupling, mults=None, centralizer=0):
    """Text for label's roots pushed through m, with G = m^-T m^-1.

    That G keeps every pairing of the catalog system.  A coupling vector
    adds one more ambient direction that G couples to the roots.  ``mults``
    gives the positive roots' multiplicities, in catalog order.
    """
    rs = build_root_system(label)
    m_inv = inverse(m)
    gram = matmul(transpose(m_inv), m_inv)
    pad = ()
    if coupling is not None:
        c = tuple(Fraction(t) for t in coupling)
        corner = sum(a * b for a, b in zip(c, matvec(inverse(gram), c))) + 1
        gram = tuple(row + (t,) for row, t in zip(gram, c)) + (c + (corner,),)
        pad = (0,)
    flat = " ".join(str(t) for row in gram for t in row)
    lines = [f"ambient {len(gram)}", f"gram {flat}", f"centralizer {centralizer}"]
    for r in rs.simple_roots:
        lines.append("simple " + " ".join(str(t) for t in matvec(m, r) + pad))
    for k, r in enumerate(rs.positive_roots):
        mult = f" mult {mults[k]}" if mults else ""
        lines.append("root " + " ".join(str(t) for t in matvec(m, r) + pad) + mult)
    return "\n".join(lines) + "\n"


CATALOG_LABELS = st.sampled_from(("A2", "B2", "BC2", "G2", "A3", "B3", "C3"))
MATRIX_ENTRIES = st.lists(st.integers(-2, 2), min_size=16, max_size=16)
COUPLINGS = st.one_of(st.none(), st.lists(st.integers(-2, 2), min_size=4, max_size=4))


def transform(label, entries, coupling):
    """The catalog system, and the invertible m and coupling drawn for it."""
    catalog = build_root_system(label)
    d = catalog.ambient_dim
    m = tuple(tuple(Fraction(t) for t in entries[i * d:(i + 1) * d]) for i in range(d))
    assume(det(m) != 0)
    return catalog, m, None if coupling is None else coupling[:d]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    CATALOG_LABELS,
    MATRIX_ENTRIES,
    COUPLINGS,
    st.lists(st.fractions(-3, 3, max_denominator=3), min_size=5, max_size=5),
)
def test_cached_pairing_data_matches_the_gram_matrix(label, entries, coupling, v):
    catalog, m, coupling = transform(label, entries, coupling)
    d = catalog.ambient_dim
    rs = build_root_system(transformed_text(label, m, coupling))
    g = rs.inner_product
    n = rs.ambient_dim

    def form(u, w):
        return sum(u[i] * g[i][j] * w[j] for i in range(n) for j in range(n))

    def cov(u):
        return tuple(sum(g[i][j] * u[j] for j in range(n)) for i in range(n))

    assert rs.roots == rs.positive_roots + tuple(
        tuple(-t for t in r) for r in rs.positive_roots
    )
    assert rs.covectors == tuple(cov(r) for r in rs.positive_roots)
    for i, alpha in enumerate(rs.simple_roots):
        assert rs.roots[rs.simple_positions[i]] == alpha
        assert rs.covectors[rs.simple_positions[i]] == cov(alpha)
    gram = tuple(tuple(form(a, b) for b in rs.simple_roots) for a in rs.simple_roots)
    assert rs.simple_gram == gram
    assert gram == tuple(
        tuple(sum(s * t for s, t in zip(a, b)) for b in catalog.simple_roots)
        for a in catalog.simple_roots
    )
    assert matmul(gram, rs.simple_gram_inverse) == identity(rs.rank)
    pad = (0,) * (n - d)
    for i, w in enumerate(rs.fundamental_coweights):
        assert w == matvec(m, catalog.fundamental_coweights[i]) + pad
        for j, alpha in enumerate(rs.simple_roots):
            assert form(alpha, w) == (gram[i][i] / 2 if i == j else 0)
    v = tuple(v[:n])
    den, vs = cleared(v)
    d_steps, steps = rs.simple_steps
    for i, alpha in enumerate(rs.simple_roots):
        c = 2 * form(alpha, v) / form(alpha, alpha)
        expected = tuple(t - c * a for t, a in zip(v, alpha))
        assert reflect(rs, i, v) == expected
        assert matvec(simple_reflection(rs, i), v) == expected
        # the integer step moves v's numerators by its pairing with alpha
        p = int_dot(rs.integer_covectors[rs.simple_positions[i]], vs)
        moved = (d_steps * t - p * s for t, s in zip(vs, steps[i]))
        assert tuple(Fraction(t, d_steps * den) for t in moved) == expected
        perm = rs.simple_reflection_perms[i]
        assert [rs.roots[j] for j in perm] == [reflect(rs, i, r) for r in rs.roots]
    assert rs.positive_coefficients == tuple(
        simple_coefficients(rs, r) for r in rs.positive_roots
    )


@settings(derandomize=True, max_examples=30, deadline=None)
@given(
    CATALOG_LABELS,
    MATRIX_ENTRIES,
    COUPLINGS,
    st.lists(st.integers(1, 4), min_size=9, max_size=9),
    st.integers(0, 3),
)
def test_text_format_round_trip_of_random_root_data(
    label, entries, coupling, mults, centralizer
):
    catalog, m, coupling = transform(label, entries, coupling)
    # one multiplicity per root length, so that the Weyl group keeps them
    by_length = {}
    mults = [
        by_length.setdefault(sum(t * t for t in r), k)
        for r, k in zip(catalog.positive_roots, mults)
    ]
    rs = build_root_system(transformed_text(label, m, coupling, mults, centralizer))
    assert rs.positive_multiplicities == tuple(mults)
    assert rs.centralizer_dim == centralizer
    assert root_system_from_text(root_system_to_text(rs)) == rs


def test_positive_coefficients_reject_a_root_outside_the_span():
    one = (Fraction(1), Fraction(0), Fraction(0))
    off = (Fraction(0), Fraction(1), Fraction(0))
    message = f"^{re.escape(repr(off))} is not in the span of the simple roots$"
    with pytest.raises(ValueError, match=message):
        make_root_system((one,), (one, off, (Fraction(2), Fraction(0), Fraction(0))))


# sha256 over root_system_to_text of every catalog label below, so that the
# catalog's roots, their order and the Gram matrices stay put.
DIGEST_LABELS = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(2, 7)] + [f"D{n}" for n in range(2, 7)]
    + [f"BC{n}" for n in range(1, 7)] + ["G2", "F4"]
)
CATALOG_DIGEST = "c33a0ac1bf87f226764f01121cbc3f5774d2e6ab0b23ec5f6541b65311eb24fd"


def test_catalog_text_is_pinned():
    digest = hashlib.sha256()
    for label in DIGEST_LABELS:
        digest.update(root_system_to_text(build_root_system(label)).encode("utf-8"))
    assert digest.hexdigest() == CATALOG_DIGEST


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("simple 1 0\nroot 1 0\nroot 0 1\n", "a listed root is outside the simple-root span"),
        ("simple 1 0\nsimple 0 1\nroot 1 0\nroot 0 1\nroot 1 -1\n",
         "a listed root is neither positive nor negative"),
        ("simple 1 0\nsimple 0 1\nroot 1 0\nroot 0 1\nroot -1 -1\n",
         "root list is not closed under negation"),
        ("simple 1 0\nroot 1 0 mult 2\nroot -1 0 mult 1\n",
         "multiplicity table inconsistent under negation"),
        # the first root is neither positive nor negative, the second off the span
        ("simple 1 0 0\nsimple 0 1 0\nroot 1 -1 0\nroot 0 0 1\n",
         "a listed root is neither positive nor negative"),
        # dependent simple roots are refused once every root is classified
        ("simple 1 0\nsimple 2 0\nroot 1 0\nroot 2 0\nroot -1 0\n",
         "simple roots are not linearly independent"),
    ],
)
def test_text_root_classification_errors(text, message):
    ambient = len(text.split("\n")[0].split()) - 1
    with pytest.raises(ValueError, match=f"^(root system text: )?{re.escape(message)}$"):
        root_system_from_text(f"ambient {ambient}\n" + text)


@pytest.mark.parametrize(
    ("simples", "positives", "message"),
    [
        # a simple root missing from the positive roots
        (((1, 0), (0, 1)), ((1, 0), (1, 1)), "every simple root must be listed"),
        (((1, 0), (0, 1)), ((1, 0), (0, 1), (-1, 1)), "nonnegative integer combination"),
        (((1, 0), (0, 1)), ((1, 0), (0, 1), (1, 1), (-1, -1)), "a root and its negation"),
        (((1, 0), (2, 0)), ((1, 0), (2, 0)), "not linearly independent"),
        # 2 <a1, a2> / <a2, a2> = -2/5: s_1 sends a2 to a2 + 2 a1, no root
        (((1, 0), (-1, 2)), ((1, 0), (-1, 2)), "closed under the simple reflections"),
    ],
)
def test_validation_keeps_its_error_for_each_defect(simples, positives, message):
    with pytest.raises(ValueError, match=message):
        make_root_system(simples, positives)


def test_e6_catalog_label():
    """E6 on the unit vectors of 6-space with its Cartan matrix as Gram:
    36 positive roots up to 122321, and |W(E6)| = 51840."""
    rs = build_root_system("e6")
    assert (rs.label, rs.rank, rs.ambient_dim) == ("E6", 6, 6)
    assert len(rs.positive_roots) == 36
    assert rs.simple_gram == rs.inner_product == tuple(map(tuple, rs.cartan_matrix))
    assert max(rs.positive_coefficients, key=sum) == (1, 2, 2, 3, 2, 1)
    assert len(set(rs.roots)) == 72
    assert generate(rs).order == 51840
