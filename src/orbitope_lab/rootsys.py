"""Restricted root systems over the rationals.

A :class:`RootSystem` stores an ordered list of simple roots, the positive
roots with their multiplicities, and an exact symmetric positive-definite
bilinear form on the ambient coordinate space (the Gram matrix, identity by
default).  Root/vector pairings go through that form, so a root acts on a
vector as ``lambda(v) = <lambda, v>_G``.

Each root system computes its pairing data once, on first use, and every
other module reads it from there: ``roots`` and their cleared integer form
``integer_roots``, the covector ``G lambda`` of each positive root (so
``lambda(v)`` is one plain dot product), their common integer multiple
``integer_covectors`` for sign tests, ``simple_positions``, the simple-root
Gram matrix, its inverse, the Cartan matrix, the fundamental coweights and
the integer rows ``simple_steps`` by which a simple reflection moves a
point.  The covectors, the simple-root Gram matrix, its inverse and the
Cartan matrix are computed in integers from the cleared roots and Gram
matrix.  This module is the only one that multiplies by the Gram matrix;
``metric_covector`` does it for vectors that are not roots.

:func:`reflection_permutation` is the one point-level simple reflection,
on the roots (validation reads ``simple_reflection_perms``) and on the
vertices of an orbit polytope alike.  Simple-root coefficients come from
one reduced row echelon form, for the positive roots or a text spec's roots.

Built-in catalog (multiplicity 1, the plain dot product unless noted):

* ``A<n>``   in the sum-zero hyperplane of (n+1)-space,
* ``B<n>``, ``C<n>``, ``D<n>``, ``BC<n>`` in n-space,
* ``G2``     in the sum-zero hyperplane of 3-space,
* ``F4``     in 4-space,
* ``E6``     on the unit vectors of 6-space, with the Cartan matrix as Gram.

``BC<n>`` is non-reduced: ``e_i`` and ``2 e_i`` are both roots.  Multiplicity
tables and a nonzero Cartan-centralizer dimension (used only by dimension
bookkeeping downstream) can be supplied through the text format, see
:func:`root_system_from_text`.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .linalg import (
    Mat,
    Vec,
    cleared,
    cleared_rows,
    det,
    dot,
    echelon,
    identity,
    int_dot,
    matvec,
    rref,
    scaled_inverse,
    transpose,
    vec,
    vec_scale,
)

_LABEL_RE = re.compile(r"^(BC|A|B|C|D)([1-9][0-9]*)$")
# Validation and the pairing tables grow with the square of the root count.
# Every catalog system whose Weyl group fits under weyl.DEFAULT_ORDER_CAP
# has at most 42 positive roots (BC6), so larger systems are refused
# before any of that work.
MAX_POSITIVE_ROOTS = 64


@dataclass(frozen=True)
class RootSystem:
    """A restricted root system with exact rational data.

    ``positive_multiplicities`` is aligned with ``positive_roots``; the
    multiplicity of a negative root is that of its negation.
    ``centralizer_dim`` is the dimension of the centralizer of the Cartan
    subspace inside the compact factor (0 for split forms); it only enters
    parabolic dimension counts.
    """

    label: str
    ambient_dim: int
    simple_roots: Mat
    positive_roots: Mat
    positive_multiplicities: tuple
    inner_product: Mat
    centralizer_dim: int = 0

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    @functools.cached_property
    def roots(self) -> tuple:
        """All roots, positive then negative, in matching order."""
        return self.positive_roots + tuple(vec_scale(-1, r) for r in self.positive_roots)

    @functools.cached_property
    def integer_roots(self) -> tuple:
        """(r, r * roots as integer tuples), r the least common denominator
        of the roots, in ``roots`` order."""
        return cleared_rows(self.roots)

    @functools.cached_property
    def covectors(self) -> tuple:
        """G lambda for each positive root lambda: lambda(v) = covectors[k] . v.

        Computed in integers from the cleared Gram matrix and roots, then
        divided by the product of their denominators."""
        g, gram = cleared_rows(self.inner_product)
        r, roots = self.integer_roots
        return tuple(
            tuple(Fraction(int_dot(row, root), g * r) for row in gram)
            for root in roots[: len(self.positive_roots)]
        )

    @functools.cached_property
    def covector_scale(self) -> int:
        """The least positive integer making every covector integral."""
        return cleared_rows(self.covectors)[0]

    @functools.cached_property
    def integer_covectors(self) -> tuple:
        """``covector_scale`` times each covector, as integers: a positive
        multiple of every pairing, so its sign and the walk of
        ``weyl.to_dominant`` are exact in integers."""
        return cleared_rows(self.covectors)[1]

    @functools.cached_property
    def simple_positions(self) -> tuple:
        """Index of each simple root in ``positive_roots`` (and in ``roots``)."""
        return tuple(self.positive_roots.index(a) for a in self.simple_roots)

    @functools.cached_property
    def _integer_simple_gram(self) -> tuple:
        """covector_scale * r * <alpha_i, alpha_j>_G, r the roots' denominator."""
        simple = [self.integer_roots[1][k] for k in self.simple_positions]
        covectors = [self.integer_covectors[k] for k in self.simple_positions]
        return tuple(tuple(int_dot(c, a) for a in simple) for c in covectors)

    @functools.cached_property
    def simple_gram(self) -> Mat:
        """<alpha_i, alpha_j>_G over the simple roots (a symmetrized Cartan matrix)."""
        scale = self.covector_scale * self.integer_roots[0]
        return tuple(
            tuple(Fraction(g, scale) for g in row) for row in self._integer_simple_gram
        )

    @functools.cached_property
    def simple_gram_inverse(self) -> Mat:
        """The inverse of ``simple_gram``, from its integer multiple."""
        c, inv = scaled_inverse(self._integer_simple_gram)
        scale = self.covector_scale * self.integer_roots[0]
        return tuple(tuple(Fraction(scale * x, c) for x in row) for row in inv)

    @functools.cached_property
    def simple_steps(self) -> tuple:
        """(d, rows) with integer rows: reflecting in alpha_i moves a point's
        cleared numerators by -p_i rows[i] / d, where p_i is their pairing
        with alpha_i against ``integer_covectors``.

        s_i(y) = y - 2 <alpha_i, y>_G / <alpha_i, alpha_i>_G alpha_i; in those
        scales the step per unit of p_i is 2 (r alpha_i) / g_ii, with g the
        ``_integer_simple_gram`` and r alpha_i the cleared root."""
        roots = self.integer_roots[1]
        gram = self._integer_simple_gram
        return cleared_rows(tuple(
            tuple(Fraction(2 * a, gram[i][i]) for a in roots[k])
            for i, k in enumerate(self.simple_positions)
        ))

    @functools.cached_property
    def cartan_matrix(self) -> tuple:
        """Row i holds the integers <alpha_j, alpha_i^v> = 2 <alpha_i, alpha_j>_G /
        <alpha_i, alpha_i>_G, so s_i(alpha_j) = alpha_j - cartan_matrix[i][j] alpha_i.
        Validation has checked that each s_i keeps the roots, integer
        combinations of the simple ones, so the divisions are exact."""
        gram = self._integer_simple_gram
        return tuple(tuple(2 * g // row[i] for g in row) for i, row in enumerate(gram))

    @functools.cached_property
    def fundamental_coweights(self) -> tuple:
        """Basis of span(simple roots) dual to the simple coroots.

        The i-th coweight w_i satisfies <alpha_j, w_i>_G = 0 for j != i and
        <alpha_i, w_i>_G = <alpha_i, alpha_i>_G / 2, i.e. the coroot pairing
        <alpha_j^v, w_i> equals delta_ij: w_i = <alpha_i, alpha_i>_G / 2 times
        sum_j (G_s^-1)_ij alpha_j.
        """
        columns = tuple(zip(*self.simple_roots))
        rows = zip(self.simple_gram, self.simple_gram_inverse)
        return tuple(
            tuple(gram[i] / 2 * dot(row, c) for c in columns)
            for i, (gram, row) in enumerate(rows)
        )

    @functools.cached_property
    def positive_coefficients(self) -> tuple:
        """Simple-root coefficients of each positive root, in ``positive_roots``
        order, by :func:`_coefficients`; ValueError for a root off their span."""
        coeffs = _coefficients(self.simple_roots, self.positive_roots)
        if None in coeffs:
            root = self.positive_roots[coeffs.index(None)]
            raise ValueError(f"{root!r} is not in the span of the simple roots")
        return tuple(coeffs)

    @functools.cached_property
    def simple_reflection_perms(self) -> tuple:
        """Each simple reflection as a permutation of ``roots`` (``perm[k]`` indexes
        the image of ``roots[k]``), or ValueError if the roots are not closed:
        :func:`reflection_permutation` on ``integer_roots``."""
        roots = self.integer_roots[1]
        try:
            return tuple(reflection_permutation(self, i, roots) for i in range(self.rank))
        except ValueError:
            raise ValueError(
                "the roots are not closed under the simple reflections"
            ) from None


def _coefficients(simples, vectors) -> list:
    """Each vector's coefficients over the simple roots, or None for one off
    their span: one reduced row echelon form of [simples | vectors] as
    columns.  A vector's column holds its coefficients on the rows of the
    simple roots' pivots, and is in their span when it is 0 below them.
    Dependent simple roots (text not yet validated) get no entry, as if set
    to 0, which keeps every sign."""
    n = len(simples)
    rows, pivots = rref(transpose(tuple(simples) + tuple(vectors)))
    rank = sum(c < n for c in pivots)
    return [
        None if any(row[k] for row in rows[rank:]) else tuple(row[k] for row in rows[:rank])
        for k in range(n, n + len(vectors))
    ]


def reflection_permutation(rs: RootSystem, index: int, points) -> tuple:
    """How the index-th simple reflection permutes a list of integer points
    (rational points over one common denominator), by index, or ValueError.

    The reflection moves a point's numerators by -p rows[index] / d, where
    (d, rows) = ``rs.simple_steps`` and p is their pairing with the root
    against ``integer_covectors``.  With the common factor of d and the row
    taken out, the image is integral exactly when what is left of d
    divides p; otherwise it is no point of the list.
    """
    d, steps = rs.simple_steps
    g = gcd(d, *steps[index])
    q, step = d // g, [s // g for s in steps[index]]
    cov = rs.integer_covectors[rs.simple_positions[index]]
    where = {p: k for k, p in enumerate(points)}
    image = []
    for p in points:
        t, r = divmod(int_dot(cov, p), q)
        image.append(None if r else where.get(tuple([x - t * s for x, s in zip(p, step)])))
    if None in image:
        raise ValueError("the group does not preserve the point set")
    return tuple(image)


def metric_covector(rs: RootSystem, v: Vec) -> Vec:
    """Plain-coordinate covector of v: G v, so that <lam, v>_G = (G v) . lam.

    Callers that hand a direction to coordinate-only code (the polytope
    module works with plain dot products) must convert through this map.
    With the identity form it is the identity.
    """
    return matvec(rs.inner_product, vec(v))


def share_closed_chamber(rs: RootSystem, x, y) -> bool:
    """True iff lam(x) * lam(y) >= 0 for every root lam.

    Products over positive roots suffice since negation flips both factors.
    This is the exact combinatorial test for x and y lying in a common
    closed Weyl chamber.  Clearing the denominators of x and y and pairing
    with ``integer_covectors`` scales each factor by a positive integer,
    which keeps its sign, so the test runs in integers.
    """
    xs, ys = cleared(x)[1], cleared(y)[1]
    if len(xs) != rs.ambient_dim or len(ys) != rs.ambient_dim:
        raise ValueError(
            f"dimension mismatch: expected vectors of length {rs.ambient_dim}"
        )
    return all(
        int_dot(c, xs) * int_dot(c, ys) >= 0
        for c in rs.integer_covectors
    )


def simple_pairings(rs: RootSystem, x) -> list:
    """alpha_i(x) for each simple root, times one common positive integer:
    x's cleared numerators against ``integer_covectors``, so signs and zeros
    are exact in integers."""
    xs = cleared(x)[1]
    if len(xs) != rs.ambient_dim:
        raise ValueError(
            f"dimension mismatch: expected vectors of length {rs.ambient_dim}"
        )
    return [int_dot(rs.integer_covectors[k], xs) for k in rs.simple_positions]


def is_dominant(rs: RootSystem, x) -> bool:
    return all(p >= 0 for p in simple_pairings(rs, x))


def wall_set(rs: RootSystem, x) -> frozenset:
    """Indices of the simple roots vanishing on a dominant x."""
    vals = simple_pairings(rs, x)
    if any(v < 0 for v in vals):
        raise ValueError("x is not dominant; apply weyl.to_dominant first")
    return frozenset(i for i, v in enumerate(vals) if v == 0)


def _validate(rs: RootSystem) -> RootSystem:
    d = rs.ambient_dim
    for v in rs.simple_roots + rs.positive_roots:
        if len(v) != d:
            raise ValueError("root length does not match the ambient dimension")
    if len(rs.inner_product) != d or any(len(r) != d for r in rs.inner_product):
        raise ValueError("Gram matrix shape does not match the ambient dimension")
    g = rs.inner_product
    if any(g[i][j] != g[j][i] for i in range(d) for j in range(i)):
        raise ValueError("Gram matrix is not symmetric")
    if any(det([row[:k] for row in g[:k]]) <= 0 for k in range(1, d + 1)):
        raise ValueError("Gram matrix is not positive definite")
    if len(echelon(cleared_rows(rs.simple_roots)[1])) != len(rs.simple_roots):
        raise ValueError("simple roots are not linearly independent")
    if len(rs.positive_multiplicities) != len(rs.positive_roots):
        raise ValueError("multiplicity table does not match the positive roots")
    if any(m < 1 or m != int(m) for m in rs.positive_multiplicities):
        raise ValueError("multiplicities must be positive integers")
    if len(set(rs.positive_roots)) != len(rs.positive_roots):
        raise ValueError("duplicate positive root")
    if rs.centralizer_dim < 0:
        raise ValueError("centralizer dimension must be nonnegative")
    pos = set(rs.positive_roots)
    for r, coeffs in zip(rs.positive_roots, rs.positive_coefficients):
        if vec_scale(-1, r) in pos:
            raise ValueError("positive roots contain a root and its negation")
        if any(c.denominator != 1 or c < 0 for c in coeffs):
            raise ValueError(
                f"{r!r} is not a nonnegative integer combination of simple roots"
            )
    for a in rs.simple_roots:
        if a not in pos:
            raise ValueError("every simple root must be listed as a positive root")
    mults = rs.positive_multiplicities
    n_pos = len(mults)
    for perm in rs.simple_reflection_perms:  # raises unless the roots are closed
        if any(mults[perm[k] % n_pos] != mults[k] for k in range(n_pos)):
            raise ValueError("multiplicities are not invariant under the Weyl group")
    return rs


def make_root_system(
    simple_roots,
    positive_roots,
    *,
    multiplicities=None,
    inner_product=None,
    centralizer_dim: int = 0,
    label: str = "custom",
) -> RootSystem:
    """Build and validate a root system from explicit data.

    ``multiplicities`` may be None (all 1) or a sequence aligned with
    ``positive_roots``.
    """
    positives = tuple(vec(r) for r in positive_roots)
    check_root_count(label, len(positives))
    simples = tuple(vec(r) for r in simple_roots)
    d = len(simples[0]) if simples else 0
    if multiplicities is None:
        multiplicities = (1,) * len(positives)
    mults = tuple(int(m) for m in multiplicities)
    gram = identity(d) if inner_product is None else tuple(vec(r) for r in inner_product)
    return _validate(
        RootSystem(
            label=label,
            ambient_dim=d,
            simple_roots=simples,
            positive_roots=positives,
            positive_multiplicities=mults,
            inner_product=gram,
            centralizer_dim=centralizer_dim,
        )
    )


def check_root_count(label: str, count: int) -> None:
    """ValueError when ``count`` positive roots are past MAX_POSITIVE_ROOTS."""
    if count > MAX_POSITIVE_ROOTS:
        raise ValueError(
            f"root system {label} has {count} positive roots, past the cap "
            f"of {MAX_POSITIVE_ROOTS}"
        )


# E6 in Bourbaki numbering: the chain 1-3-4-5-6, with 2 joined to 4.  Its
# positive roots as simple-root coefficients, by height.
_E6_CARTAN = (
    (2, 0, -1, 0, 0, 0), (0, 2, 0, -1, 0, 0), (-1, 0, 2, -1, 0, 0),
    (0, -1, -1, 2, -1, 0), (0, 0, 0, -1, 2, -1), (0, 0, 0, 0, -1, 2),
)
_E6_POSITIVE = (
    "100000 010000 001000 000100 000010 000001 101000 010100 001100 000110 000011 "
    "101100 011100 010110 001110 000111 111100 101110 011110 010111 001111 111110 "
    "101111 011210 011111 111210 111111 011211 112210 111211 011221 112211 111221 "
    "112221 112321 122321"
)


def _catalog(label: str) -> RootSystem:
    """The catalog system of a label, its roots written as integer tuples
    (F4's halves as ``Fraction``) in a fixed order."""
    if label == "E6":
        simples = tuple(tuple(int(i == j) for j in range(6)) for i in range(6))
        positives = tuple(tuple(map(int, c)) for c in _E6_POSITIVE.split())
        return make_root_system(simples, positives, inner_product=_E6_CARTAN, label="E6")
    if label == "G2":
        simples = ((1, -1, 0), (-2, 1, 1))
        # a1, a2, a1 + a2, 2 a1 + a2, 3 a1 + a2, 3 a1 + 2 a2
        positives = simples + ((-1, 0, 1), (0, -1, 1), (1, -2, 1), (-1, -1, 2))
        return make_root_system(simples, positives, label="G2")
    if label == "F4":
        h = Fraction(1, 2)
        simples = ((0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 0, 1), (h, -h, -h, -h))
        positives = [_unit_sum(4, i) for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                positives += [_unit_sum(4, i, j), _unit_sum(4, i, j, -1)]
        positives += [
            (h, s2, s3, s4) for s2 in (h, -h) for s3 in (h, -h) for s4 in (h, -h)
        ]
        return make_root_system(simples, tuple(positives), label="F4")
    m = _LABEL_RE.match(label)
    if not m:
        raise ValueError(f"malformed root system label {label!r}")
    family, n = m.group(1), int(m.group(2))
    counts = {
        "A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
        "BC": n * (n + 1),
    }
    check_root_count(label, counts[family])
    amb = n + 1 if family == "A" else n  # A<n> sits in (n+1)-space
    diffs = [_unit_sum(amb, i, j, -1) for i in range(amb) for j in range(i + 1, amb)]
    chain = tuple(_unit_sum(amb, i, i + 1, -1) for i in range(amb - 1))
    if family == "A":
        return make_root_system(chain, tuple(diffs), label=label)
    if family == "D" and n < 2:
        raise ValueError("D-type needs rank at least 2")
    sums = [_unit_sum(n, i, j) for i in range(n) for j in range(i + 1, n)]
    shorts = [_unit_sum(n, i) for i in range(n)]
    longs = [_unit_sum(n, i, i) for i in range(n)]
    if family == "B":
        simples = chain + (shorts[-1],)
        positives = tuple(diffs + sums + shorts)
    elif family == "C":
        simples = chain + (longs[-1],)
        positives = tuple(diffs + sums + longs)
    elif family == "D":
        simples = chain + (_unit_sum(n, n - 2, n - 1),)
        positives = tuple(diffs + sums)
    else:  # BC
        simples = chain + (shorts[-1],)
        positives = tuple(diffs + sums + shorts + longs)
    return make_root_system(simples, positives, label=label)


def _unit_sum(n: int, i: int, j: int | None = None, sign: int = 1) -> tuple:
    """e_i + sign e_j (e_i alone when j is None) in n-space, in integers."""
    return tuple(int(k == i) + sign * (k == j) for k in range(n))


def build_root_system(spec: str) -> RootSystem:
    """Build a root system from a catalog label, a file path, or literal text.

    Labels: ``A<n>``, ``B<n>``, ``C<n>``, ``D<n>``, ``BC<n>``, ``G2``, ``F4``,
    ``E6``.
    Anything containing a newline is parsed as the text format; anything else
    is treated as a path to a text-format file.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise ValueError("empty root system spec")
    s = spec.strip().upper()
    if s in ("G2", "F4", "E6") or _LABEL_RE.match(s):
        return _catalog(s)
    if "\n" in spec:
        return root_system_from_text(spec)
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return root_system_from_text(fh.read())
    raise ValueError(
        f"malformed root system spec {spec!r}: not a catalog label and not a file"
    )


def root_system_from_text(text: str) -> RootSystem:
    """Parse the root-system text format.

    Directives, one per line (``#`` starts a comment):

    * ``label <token>``                      optional, default ``custom``
    * ``ambient <int>``                      required, must come first
    * ``gram <d*d rationals, row-major>``    optional, default identity
    * ``centralizer <int>``                  optional, default 0
    * ``simple <d rationals>``               one line per simple root, in order
    * ``root <d rationals> [mult <int>]``    one line per root

    ``root`` lines may list only the positive roots (negatives are implied)
    or the full set; if any negative root is listed, the listing must be
    closed under negation with matching multiplicities.
    """
    label = "custom"
    ambient = None
    gram = None
    centralizer = 0
    simples: list[Vec] = []
    listed: list[tuple[Vec, int]] = []

    def fail(line_no: int, msg: str):
        raise ValueError(f"root system text, line {line_no}: {msg}")

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        try:
            if key == "label":
                if len(args) != 1:
                    fail(line_no, "label takes one token")
                label = args[0]
            elif key == "ambient":
                if len(args) != 1:
                    fail(line_no, "ambient takes one integer")
                ambient = int(args[0])
                if ambient < 1:
                    fail(line_no, "ambient dimension must be positive")
            elif key == "gram":
                if ambient is None:
                    fail(line_no, "ambient must be declared before gram")
                if len(args) != ambient * ambient:
                    fail(line_no, f"gram needs {ambient * ambient} entries")
                vals = [Fraction(t) for t in args]
                gram = tuple(
                    tuple(vals[i * ambient + j] for j in range(ambient))
                    for i in range(ambient)
                )
            elif key == "centralizer":
                if len(args) != 1:
                    fail(line_no, "centralizer takes one integer")
                centralizer = int(args[0])
            elif key == "simple":
                if ambient is None:
                    fail(line_no, "ambient must be declared before simple roots")
                if len(args) != ambient:
                    fail(line_no, f"expected {ambient} coordinates")
                simples.append(vec(Fraction(t) for t in args))
            elif key == "root":
                if ambient is None:
                    fail(line_no, "ambient must be declared before roots")
                mult = 1
                coords = args
                if "mult" in args:
                    k = args.index("mult")
                    coords = args[:k]
                    if len(args) != k + 2:
                        fail(line_no, "mult takes one integer")
                    mult = int(args[k + 1])
                if len(coords) != ambient:
                    fail(line_no, f"expected {ambient} coordinates")
                listed.append((vec(Fraction(t) for t in coords), mult))
            else:
                fail(line_no, f"unknown directive {key!r}")
        except (ValueError, ZeroDivisionError) as exc:
            if str(exc).startswith("root system text"):
                raise
            fail(line_no, f"bad value ({exc})")
    if ambient is None:
        raise ValueError("root system text: missing 'ambient' directive")
    if not simples:
        raise ValueError("root system text: no simple roots")
    if not listed:
        raise ValueError("root system text: no roots")
    table: dict[Vec, int] = {}
    for r, m in listed:
        if r in table and table[r] != m:
            raise ValueError(
                f"root system text: root {tuple(map(str, r))} listed with two multiplicities"
            )
        table[r] = m

    positives: list[Vec] = []
    mults: list[int] = []
    negatives: dict[Vec, int] = {}
    for (r, m), coeffs in zip(table.items(), _coefficients(simples, tuple(table))):
        if coeffs is None:
            raise ValueError(
                "root system text: a listed root is outside the simple-root span"
            )
        if all(c >= 0 for c in coeffs):
            positives.append(r)
            mults.append(m)
        elif all(c <= 0 for c in coeffs):
            negatives[r] = m
        else:
            raise ValueError(
                "root system text: a listed root is neither positive nor negative"
            )
    for r, m in negatives.items():
        pos = vec_scale(-1, r)
        if pos not in table:
            raise ValueError("root system text: root list is not closed under negation")
        if table[pos] != m:
            raise ValueError(
                "root system text: multiplicity table inconsistent under negation"
            )
    return make_root_system(
        simples,
        positives,
        multiplicities=mults,
        inner_product=gram,
        centralizer_dim=centralizer,
        label=label,
    )


def root_system_to_text(rs: RootSystem) -> str:
    """Serialize a root system; round-trips exactly through the parser."""
    lines = [f"label {rs.label}", f"ambient {rs.ambient_dim}"]
    if rs.inner_product != identity(rs.ambient_dim):
        flat = " ".join(str(x) for row in rs.inner_product for x in row)
        lines.append(f"gram {flat}")
    if rs.centralizer_dim:
        lines.append(f"centralizer {rs.centralizer_dim}")
    for a in rs.simple_roots:
        lines.append("simple " + " ".join(str(x) for x in a))
    for r, m in zip(rs.roots, rs.positive_multiplicities * 2):
        lines.append("root " + " ".join(str(x) for x in r) + f" mult {m}")
    return "\n".join(lines) + "\n"
