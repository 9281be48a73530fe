"""Floating-point matrix models driven by exact root data.

Two families of polar representations are provided, both for the rotation
group SO(n) acting by conjugation:

* ``sym``: traceless symmetric matrices.  The Cartan subspace is the
  traceless diagonals and the restricted root system is type A with all
  multiplicities one.
* ``skew``: skew-symmetric matrices.  The Cartan subspace is the span of
  the standard 2x2 rotation blocks; with m = floor(n/2) block angles the
  restricted root system is type D_m (n even) or B_m (n odd), every root
  of multiplicity two, plus an m-dimensional central torus.  The trace
  form makes the block-angle embedding an isometry up to the factor two,
  which the root system records in its inner product matrix.

The exact side of every computation (root systems, Weyl orbits, polytopes,
face descriptors) lives in the other modules.  This module turns Cartan
coordinate vectors into matrices, samples group orbits Haar-uniformly,
and compares numeric measurements against the exact predictions.  The
local-max sweep reads exact second derivatives from commutators; the
Hessian stage's finite differences go through ``expm``, a stacked Taylor
exponential in numpy.  All floating point in the package is confined
here; tolerances come in three tiers scaled by the data: 1e-9 for
invariants, 1e-6 for matching, 1e-8 for rank cutoffs.

numpy is the only dependency and only this module uses it.  It is
imported on the first numeric call, not with the module, so the exact
commands never load it: ``np`` starts as a stand-in that imports numpy
and rebinds itself to it on first attribute access.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from . import polytope as poly
from .facelab import FaceDescriptor
from .linalg import (
    Mat, Vec, cleared, cleared_rows, dot, frac, matvec, nullspace, scaled_inverse,
    transpose, vec,
)
from .rootsys import (
    RootSystem,
    build_root_system,
    check_root_count,
    is_dominant,
    make_root_system,
    metric_covector,
    share_closed_chamber,
)
from .weyl import to_dominant

VIOLATION_TOL = 1e-9
MATCH_TOL = 1e-6
RANK_TOL = 1e-8
# Haar draws and membership points go through the stacked linear algebra
# this many at a time, which bounds the scratch memory.
_CHUNK = 512
# Stage tags of the random streams.  Every stream is one generator keyed
# (seed, stage, index), so no two stages share random numbers; keys keep
# three parts because numpy pads with zeros: (s, t) is (s, t, 0).
_HAAR, _LOCAL_MAX, _HESSIAN, _PAIRS = range(4)


class _LazyNumpy:
    def __getattr__(self, name):
        global np
        import numpy

        np = numpy
        return getattr(numpy, name)


np = _LazyNumpy()


def _stream(seed: int, stage: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng((seed, stage, index))


@dataclass(frozen=True)
class MatrixModel:
    """A polar matrix representation with its restricted root system."""

    kind: str
    n: int
    root_system: RootSystem


@dataclass(eq=False)
class OrbitSample:
    """Haar samples g x g^T of one orbit, kept as their Cartan projections.

    The first ``n_haar`` rows are the seeded Haar draws; any further rows
    come from the exact Cartan vectors ``forced`` (a deterministic test
    hook, e.g. to force the identity group element).  ``max_deviation`` is
    the worst invariant deviation over all rows, taken as they were drawn.
    """

    model: MatrixModel
    x_cartan: Vec
    base_point: np.ndarray
    projections: np.ndarray
    seed: int
    n_haar: int
    forced: tuple
    max_deviation: float

    @property
    def points(self) -> _SamplePoints:
        return _SamplePoints(self)


class _SamplePoints:
    """Read-only view of a sample's matrices: its length draws nothing, and a
    row is re-drawn bit for bit from its chunk's stream, or re-embedded."""

    def __init__(self, sample: OrbitSample):
        self.sample = sample
        self.shape = (sample.n_haar + len(sample.forced),) + sample.base_point.shape

    def __len__(self) -> int:
        return self.shape[0]

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return np.asarray(self[:], dtype)

    def __getitem__(self, index) -> np.ndarray:
        s, rows = self.sample, np.arange(len(self))[index]
        out = np.empty(rows.shape + self.shape[1:])
        last = -(-s.n_haar // _CHUNK)  # the forced points' chunk
        chunks = sorted({i // _CHUNK if i < s.n_haar else last for i in rows.flat})
        args = s.model, s.base_point, s.seed, s.n_haar, s.forced, chunks
        for start, mats in _chunks(*args):
            hit = (rows >= start) & (rows < start + len(mats))
            out[hit] = mats[rows[hit] - start]
        out.flags.writeable = False
        return out


class ExtDimResult(NamedTuple):
    numeric_dim: int
    predicted_dim: int


def _skew_root_system(n: int) -> RootSystem:
    """Restricted root system of the skew model on n x n matrices.

    Block angles theta_1..theta_m, m = floor(n/2).  The roots act on the
    angles as theta_i +- theta_j (and theta_i when n is odd); with the
    inner product fixed to twice the identity (the trace form of the block
    embedding) those functionals are represented by the halved vectors
    (e_i +- e_j)/2 and e_i/2.  Every multiplicity is two and the
    centralizer of the Cartan is the m-torus of block rotations.
    """
    m = n // 2

    def half(i, j=None, sign=1):
        """(e_i + sign e_j) / 2, or e_i / 2 without j."""
        return tuple(Fraction((k == i) + sign * (k == j), 2) for k in range(m))

    positives = [
        half(i, j, sign) for i in range(m) for j in range(i + 1, m) for sign in (-1, 1)
    ]
    simples = [half(i, i + 1, -1) for i in range(m - 1)]
    if n % 2 == 1:
        positives += [half(i) for i in range(m)]
        simples.append(half(m - 1))
    else:
        simples.append(half(m - 2, m - 1))
    gram = tuple(tuple(Fraction(2 * (a == b)) for b in range(m)) for a in range(m))
    return make_root_system(
        simples,
        positives,
        multiplicities=[2] * len(positives),
        inner_product=gram,
        centralizer_dim=m,
        label=f"skew{n}",
    )


@lru_cache(maxsize=None)
def make_model(kind: str, n: int) -> MatrixModel:
    """A matrix model: ``sym`` needs n >= 2 and ``skew`` needs n >= 3.

    ``skew`` on 2x2 matrices is rejected because so(2) is abelian: the
    conjugation action is trivial and there is no root system.
    """
    n = int(n)
    if kind == "sym":
        if n < 2:
            raise ValueError("the symmetric model needs n >= 2")
        return MatrixModel(kind="sym", n=n, root_system=build_root_system(f"A{n - 1}"))
    if kind == "skew":
        if n < 3:
            raise ValueError(
                "the skew model needs n >= 3; so(2) acts trivially on itself"
            )
        m = n // 2
        check_root_count(f"skew{n}", m * (m - 1) + m * (n % 2))
        return MatrixModel(kind="skew", n=n, root_system=_skew_root_system(n))
    raise ValueError(f"unknown model kind {kind!r}; expected 'sym' or 'skew'")


def _cartan_vector(model: MatrixModel, v) -> Vec:
    """v as an exact Cartan coordinate vector of the model, or ValueError."""
    x = vec(v)
    if len(x) != model.root_system.ambient_dim:
        raise ValueError("Cartan vector has the wrong dimension")
    if model.kind == "sym" and sum(x) != 0:
        raise ValueError("symmetric-model Cartan vectors must sum to zero")
    return x


def embed_exact(model: MatrixModel, v) -> Mat:
    """Exact matrix of a Cartan coordinate vector."""
    x = _cartan_vector(model, v)
    n = model.n
    zero = frac(0)
    if model.kind == "sym":
        return tuple(
            tuple(x[i] if i == j else zero for j in range(n)) for i in range(n)
        )
    rows = [[zero] * n for _ in range(n)]
    for i, theta in enumerate(x):
        rows[2 * i][2 * i + 1] = theta
        rows[2 * i + 1][2 * i] = -theta
    return tuple(tuple(r) for r in rows)


def embed(model: MatrixModel, v) -> np.ndarray:
    """Float matrix of a Cartan coordinate vector: ``embed_exact`` with each
    entry rounded to the nearest float, filled in directly."""
    x = _cartan_vector(model, v)
    out = np.zeros((model.n, model.n))
    if model.kind == "sym":
        np.fill_diagonal(out, [float(c) for c in x])
        return out
    for i, theta in enumerate(x):
        out[2 * i, 2 * i + 1] = float(theta)
        out[2 * i + 1, 2 * i] = float(-theta)
    return out


def project(model: MatrixModel, y: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto the Cartan subspace, in coordinates.

    For the symmetric model this is the diagonal; for the skew model the
    antisymmetrized block angles.  Both are linear formulas, exact for
    exact inputs.
    """
    if model.kind == "sym":
        return np.diagonal(y, axis1=-2, axis2=-1).copy()
    m = model.root_system.ambient_dim
    upper = np.stack([y[..., 2 * i, 2 * i + 1] for i in range(m)], axis=-1)
    lower = np.stack([y[..., 2 * i + 1, 2 * i] for i in range(m)], axis=-1)
    return (upper - lower) / 2.0


def _bracket(h: dict, m: dict) -> dict:
    """Exact [h, m] of sparse matrices {(row, col): value}, over h's nonzeros."""
    out = {}
    for (i, k), a in h.items():
        for (r, c), v in m.items():
            if k == r:
                out[i, c] = out.get((i, c), 0) + a * v
            if c == i:
                out[r, k] = out.get((r, k), 0) - v * a
    return out


class _RootSpaces(NamedTuple):
    pairs: list
    basis_mats: np.ndarray
    block_slices: list
    zero_slice: slice
    from_coords: np.ndarray


@lru_cache(maxsize=None)
def _root_spaces(model: MatrixModel) -> _RootSpaces:
    """Exact decomposition of so(n) into the root spaces of the Cartan.

    One Cartan element h separates every positive root: alpha_j(h) = b^j for
    the simple roots, with b one more than the largest simple-root
    coefficient of a positive root, so lambda(h) = sum_j c_j b^j are
    distinct positive integers.  The operator T = sign * ad(h)^2 (sign +1
    for the symmetric model, -1 for the skew one, where h itself is
    antisymmetric) acts on the root space of lambda as lambda(h)^2 and
    vanishes exactly on the Cartan centralizer.  T is built sparse from h
    cleared to integers, and each space is the exact kernel of
    T - lambda(h)^2 on the blocks of T's pattern (1 x 1 for sym, at most
    2 x 2 for skew), merged in free-column order as one rref of T would
    give it.  The dimensions are checked against the multiplicities, then
    the change of basis, block diagonal too, is inverted block by block by
    fraction-free elimination and frozen as floats.
    """
    rs = model.root_system
    n = model.n
    # the standard basis E_ij - E_ji of so(n), i < j
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    where = {p: a for a, p in enumerate(pairs)}
    sign = 1 if model.kind == "sym" else -1
    b = 1 + max(c for coeffs in rs.positive_coefficients for c in coeffs)
    # h = sum_j y_j alpha_j with alpha_j(h) = (simple_gram y)_j = b^j
    y = matvec(rs.simple_gram_inverse, tuple(b**j for j in range(rs.rank)))
    h = cleared(matvec(transpose(rs.simple_roots), y))[1]
    hm = embed_exact(model, h)
    hm = {(i, j): int(c) for i, row in enumerate(hm) for j, c in enumerate(row) if c}
    # T as sparse columns {row: value}, and the block of each basis element
    op, block_of = [], {}
    for a, (i, j) in enumerate(pairs):
        image = _bracket(hm, _bracket(hm, {(i, j): 1, (j, i): -1}))
        op.append({where[r, c]: sign * v for (r, c), v in image.items() if r < c and v})
        block = set().union(*(block_of.get(r, {r}) for r in (a, *op[a])))
        block_of.update(dict.fromkeys(block, block))
    # value -> [(free column, block, kernel vector on the block)]
    kernels = {v: [] for v in [frac(0)] + [dot(lam, h) ** 2 for lam in rs.covectors]}
    for block in {tuple(sorted(block)) for block in block_of.values()}:
        for value, spaces in kernels.items():
            # value is a Fraction, so every entry is and rref divides exactly
            t = [[op[c].get(r, 0) - value * (r == c) for c in block] for r in block]
            # the free column of an rref kernel vector is its last nonzero
            for v in nullspace(t):
                spaces.append((block[max(k for k, c in enumerate(v) if c)], block, v))

    order, block_slices = [], []
    for lam, mult in zip(rs.covectors, rs.positive_multiplicities):
        space = sorted(kernels[dot(lam, h) ** 2])
        if len(space) != mult:
            raise ValueError(
                f"root-space dimension {len(space)} does not match the "
                f"declared multiplicity {mult}"
            )
        block_slices.append(slice(len(order), len(order) + mult))
        order.extend(space)

    center = sorted(kernels[0])
    if len(center) != rs.centralizer_dim:
        raise ValueError(
            f"Cartan centralizer dimension {len(center)} does not match the "
            f"declared value {rs.centralizer_dim}"
        )
    zero_slice = slice(len(order), len(order) + len(center))
    order.extend(center)

    if len(order) != len(pairs):
        raise ValueError("root spaces do not fill the Lie algebra")
    basis_mats = np.zeros((len(order), n, n))
    from_coords = np.zeros((len(order), len(order)))
    members = {}
    for t, (_, block, v) in enumerate(order):
        members.setdefault(block, []).append(t)
        for (i, j), c in zip(map(pairs.__getitem__, block), v):
            basis_mats[t, i, j], basis_mats[t, j, i] = float(c), float(-c)
    for block, rows in members.items():
        # M^-1 = den (den M)^-1, M the block's vectors as columns over den
        den, columns = cleared_rows([order[t][2] for t in rows])
        scale, inv = scaled_inverse(transpose(columns))
        from_coords[np.ix_(rows, block)] = [
            [float(Fraction(den * x, scale)) for x in row] for row in inv
        ]
    return _RootSpaces(pairs, basis_mats, block_slices, zero_slice, from_coords)


def _chunks(model, base, seed: int, n_samples: int, forced, chunks):
    """(first row, matrices) of each chunk c in ``chunks``, in order, drawn
    into one _CHUNK x n x n workspace that the next chunk overwrites.

    Haar chunk c is one Gaussian fill of the stream (seed, _HAAR, c), one
    stacked QR with Mezzadri's sign fix and a determinant flip of the first
    column, then one stacked conjugation of ``base``.  The chunk after the
    last Haar chunk holds the exact embeddings of the ``forced`` vectors.
    """
    z = np.empty((min(_CHUNK, n_samples),) + base.shape)
    work = np.empty_like(z)
    for c in chunks:
        start = min(c * _CHUNK, n_samples)
        if start == n_samples:
            yield start, np.array([embed(model, v) for v in forced])
            continue
        k = min(_CHUNK, n_samples - start)
        _stream(seed, _HAAR, c).standard_normal(out=z[:k])
        q, r = np.linalg.qr(z[:k])
        signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
        signs[signs == 0] = 1.0
        q *= signs[:, None, :]
        q[np.linalg.det(q) < 0, :, 0] *= -1.0
        np.matmul(q, base, out=work[:k])
        yield start, np.matmul(work[:k], np.swapaxes(q, -1, -2), out=z[:k])


def sample_orbit(
    model: MatrixModel,
    x_cartan,
    n_samples: int,
    seed: int,
    *,
    forced_cartan_points=(),
) -> OrbitSample:
    """Haar-uniform conjugates of the embedded Cartan point.

    The draws come _CHUNK at a time (``_chunks``): each chunk leaves its
    projections and its invariant deviation (sorted eigenvalues for sym,
    sorted singular values for skew), then the next overwrites it.  The
    fill is sequential, so a shorter run is a bitwise prefix of a longer
    one with the same seed.  ``forced_cartan_points`` appends the exact
    embeddings of the given Cartan vectors after the Haar draws; forcing x
    itself realizes the identity group element.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    x = vec(x_cartan)
    base = embed(model, x)
    forced = tuple(forced_cartan_points)
    projections = np.empty((n_samples + len(forced), model.root_system.ambient_dim))
    if model.kind == "sym":
        invariants = np.linalg.eigvalsh
    else:
        invariants = lambda m: np.sort(np.linalg.svd(m, compute_uv=False), axis=-1)
    base_vals = invariants(base)
    deviation = np.float64(0.0)
    chunks = range(-(-n_samples // _CHUNK) + bool(forced))
    for start, mats in _chunks(model, base, seed, n_samples, forced, chunks):
        projections[start : start + len(mats)] = project(model, mats)
        deviation = np.maximum(deviation, np.max(np.abs(invariants(mats) - base_vals)))
    return OrbitSample(
        model=model,
        x_cartan=x,
        base_point=base,
        projections=projections,
        seed=seed,
        n_haar=n_samples,
        forced=forced,
        max_deviation=float(deviation),
    )


class _FloatGeometry(NamedTuple):
    origin: np.ndarray
    inplane: np.ndarray | None
    normals: np.ndarray
    offsets: np.ndarray
    norms: np.ndarray


def _float_geometry(polytope_: poly.RationalPolytope) -> _FloatGeometry:
    """Float facets, and the projector onto the affine hull's direction.

    Each facet goes by its primitive integer normal, its offset divided by
    the same factor: ``hull``'s normals grow with the points' denominators.
    """
    d = polytope_.ambient_dim
    origin = np.array([float(c) for c in polytope_.origin])
    if polytope_.dim == d:
        inplane = None
    elif polytope_.dim == 0:
        inplane = np.zeros((d, d))
    else:
        basis = np.array(
            [[float(c) for c in row] for row in polytope_.basis]
        )
        inplane = basis.T @ np.linalg.inv(basis @ basis.T) @ basis
    normals, offsets = [], []
    for nu, c0 in polytope_.facets:
        den, ints = cleared(nu)
        g = math.gcd(*ints)
        normals.append([float(c // g) for c in ints])
        offsets.append(float(c0 * den / g))
    normals = np.array(normals).reshape(len(offsets), d)
    return _FloatGeometry(
        origin=origin,
        inplane=inplane,
        normals=normals,
        offsets=np.array(offsets),
        norms=np.linalg.norm(normals, axis=1),
    )


def _facet_violations(geom: _FloatGeometry, points: np.ndarray):
    """Per point, the largest signed, normalized facet violation (positive =
    outside; -inf without facets) and the affine-hull residual, in one pass
    of ``points @ normals.T`` and ``points @ inplane.T`` products per chunk."""
    facets = np.full(len(points), -math.inf)
    residuals = np.zeros(len(points))
    for start in range(0, len(points), _CHUNK):
        chunk = points[start : start + _CHUNK]
        rows = slice(start, start + len(chunk))
        if len(geom.offsets):
            gaps = (chunk @ geom.normals.T - geom.offsets) / geom.norms
            facets[rows] = np.max(gaps, axis=1)
        if geom.inplane is not None:
            rel = chunk - geom.origin
            residuals[rows] = np.linalg.norm(rel - rel @ geom.inplane.T, axis=1)
    return facets, residuals


def _distances_to(polytope_: poly.RationalPolytope, geom, points) -> np.ndarray:
    """Nonnegative gap between each point and the polytope (0 = inside)."""
    if polytope_.ambient_dim != points.shape[-1]:
        raise ValueError("polytope and points have different dimensions")
    facets, residuals = _facet_violations(geom, points)
    return np.maximum(np.maximum(residuals, facets), 0.0)


def kostant_check(
    sample: OrbitSample, polytope_: poly.RationalPolytope, *, vertex_tol=None
) -> dict:
    """Projections against the exact momentum polytope.

    Reports the worst signed facet violation and affine-hull residual over
    all sample points, plus vertex coverage: the fraction of the
    polytope's vertices approached within tolerance by some Haar-drawn
    projection (forced points are excluded so coverage reflects the
    measure, not the test hook).  Default vertex tolerance is
    1e-6 * |x|.
    """
    if polytope_.ambient_dim != sample.projections.shape[-1]:
        raise ValueError("polytope and sample have different Cartan dimensions")
    x_norm = math.sqrt(sum(float(c) ** 2 for c in sample.x_cartan))
    if vertex_tol is None:
        vertex_tol = MATCH_TOL * x_norm
    facets, residuals = _facet_violations(
        _float_geometry(polytope_), sample.projections
    )
    worst_facet = float(np.max(facets))
    worst_residual = float(np.max(residuals))
    haar = sample.projections[: sample.n_haar]
    # |haar - v| per vertex, as np.linalg.norm takes it, in two reused buffers
    gaps, dists, vertex_distances = np.empty_like(haar), np.empty(len(haar)), []
    for v in polytope_.vertices:
        np.subtract(haar, [float(c) for c in v], out=gaps)
        np.add.reduce(np.multiply(gaps, gaps, out=gaps), axis=-1, out=dists)
        vertex_distances.append(float(np.min(np.sqrt(dists, out=dists))))
    covered = sum(1 for d in vertex_distances if d <= vertex_tol)
    return {
        "max_facet_violation": None if worst_facet == -math.inf else worst_facet,
        "max_affine_residual": worst_residual,
        "max_violation": max(
            worst_facet if worst_facet != -math.inf else 0.0, worst_residual
        ),
        "vertex_tolerance": float(vertex_tol),
        "vertex_distances": vertex_distances,
        "coverage": covered / len(polytope_.vertices),
        "n_haar": sample.n_haar,
    }


def argmax_height(sample: OrbitSample, beta_cartan) -> dict:
    """Sample points maximizing the height along beta.

    The height of a point is the inner product of its projection with
    beta under the root system's inner product, which equals the trace
    pairing of the matrix point with the embedded beta.  Returns every
    point's height, the best value and every sample index within
    1e-6 * |x| * |beta| of it.
    """
    if len(sample.points) == 0:
        raise ValueError("empty sample")
    rs = sample.model.root_system
    beta = vec(beta_cartan)
    covector = np.array([float(c) for c in metric_covector(rs, beta)])
    heights = sample.projections @ covector
    best = float(np.max(heights))
    x_norm = math.sqrt(sum(float(c) ** 2 for c in sample.x_cartan))
    b_norm = math.sqrt(sum(float(c) ** 2 for c in beta))
    tol = MATCH_TOL * x_norm * b_norm
    indices = [int(i) for i in np.nonzero(heights >= best - tol)[0]]
    return {
        "heights": heights,
        "best_value": best,
        "tolerance": tol,
        "indices": indices,
        "projections": sample.projections[indices],
    }


def _face_distance_factor(rs: RootSystem, vertices, beta_cartan) -> float:
    """Bound on distance to the beta-face per unit of height deficit.

    The face F is read off the exact vertices: those of greatest height
    h = <beta, .>_G.  The factor is the largest ratio |u - n(u)| /
    (h_max - h(u)) over vertices u off F, with n(u) the nearest vertex of
    F; 0 when every vertex lies on F.  The bound holds on the whole
    polytope by convexity: write a point p as sum lam_v v over the
    vertices and move each off-face vertex u to n(u).  The result lies
    in F, p moves at most sum lam_u |u - n(u)|, and the height deficit
    h_max - h(p) is sum lam_u (h_max - h(u)), so dist(p, F) <= factor *
    (h_max - h(p)).  A point within eps of the best height therefore lies
    within factor * eps of F.
    """
    covector = metric_covector(rs, beta_cartan)
    heights = [dot(covector, v) for v in vertices]
    top = max(heights)
    points = np.array([[float(c) for c in v] for v in vertices])
    on_face = np.array([h == top for h in heights])
    if on_face.all():
        return 0.0
    deficits = np.array([float(top - h) for h in heights if h != top])
    gaps = points[~on_face, None, :] - points[None, on_face, :]
    nearest = np.min(np.linalg.norm(gaps, axis=-1), axis=1)
    return float(np.max(nearest / deficits))


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of every n x n slice of the stack ``a``.

    Degree-8 Taylor polynomial by Horner, after scaling each slice by its
    own power of two to 1-norm below 1/16 (the first dropped term, 2^-36 /
    9!, is below 2^-53), then squaring back; no slice depends on another.
    """
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    squarings = np.maximum(np.frexp(norms)[1] + 4, 0)
    a = np.ldexp(a, -squarings[..., None, None])
    eye = np.eye(a.shape[-1])
    e = eye + a / 8
    for k in range(7, 0, -1):
        e = eye + a @ e / k
    for j in range(int(squarings.max(initial=0))):
        more = squarings > j
        e[more] = e[more] @ e[more]
    return e


def _height_curve_second_derivatives(base, beta_mat, xis, h: float) -> np.ndarray:
    """Centered finite differences of t -> <Ad(exp t xi) x, beta> at 0.

    One value per direction in the stack ``xis``, from one stacked matrix
    exponential; ``base`` and ``beta_mat`` are one matrix each.  The
    directions are antisymmetric, so exp(-h xi) is the transpose of
    exp(h xi) and serves the other side.
    """
    g = expm(h * xis)
    gt = np.swapaxes(g, -1, -2)
    f_plus = np.sum((g @ base @ gt * beta_mat).reshape(len(xis), -1), axis=1)
    f_minus = np.sum((gt @ base @ g * beta_mat).reshape(len(xis), -1), axis=1)
    f_zero = np.sum(base * beta_mat)
    return (f_plus - 2.0 * f_zero + f_minus) / (h * h)


def _commutator_second_derivatives(bases, beta_mats, xis) -> np.ndarray:
    """Exact second derivative of t -> <Ad(exp t xi) x, beta> at 0 per slice:
    <[xi, [xi, x]], beta> = -<[xi, x], [xi, beta]>, as ad(xi) is skew-adjoint
    for the trace form; four stacked products in all."""
    u = xis @ bases - bases @ xis
    v = xis @ beta_mats - beta_mats @ xis
    return -np.sum((u * v).reshape(len(xis), -1), axis=1)


def _closed_forms(model: MatrixModel, x_cartan, beta_cartan, xis) -> np.ndarray:
    """The closed-form Hessian at (x, beta) along each direction of ``xis``.

    All directions go through one ``coords @ from_coords.T`` product to
    their root-space weights and, per root block with lambda(x) != 0, one
    stacked product and one row-wise sum.
    """
    rs = model.root_system
    x = vec(x_cartan)
    beta = vec(beta_cartan)
    if not is_dominant(rs, x):
        raise ValueError("x is not dominant; apply weyl.to_dominant first")
    spaces = _root_spaces(model)
    base = embed(model, x)
    k, n = len(xis), model.n
    rows, cols = zip(*spaces.pairs)
    weights = xis[:, rows, cols] @ spaces.from_coords.T
    total = np.zeros(k)
    for lam, block in zip(rs.covectors, spaces.block_slices, strict=True):
        lam_x = dot(lam, x)
        if lam_x == 0:
            continue
        xi_lam = np.tensordot(weights[:, block], spaces.basis_mats[block], axes=1)
        z = base @ xi_lam - xi_lam @ base
        squares = np.sum((z * z).reshape(k, n * n), axis=1)
        total -= float(dot(lam, beta)) * squares / float(lam_x)
    return total


def hessian_closed_form(model: MatrixModel, x_cartan, beta_cartan, xi: np.ndarray):
    """Exact-formula second derivative of the height curve.

    Decomposes xi into root-space components xi_lambda and evaluates
    - sum over positive lambda with lambda(x) != 0 of
    lambda(beta) |[x, xi_lambda]|^2 / lambda(x).  Requires dominant x so
    every lambda(x) is nonnegative.
    """
    return float(_closed_forms(model, x_cartan, beta_cartan, xi[None])[0])


def hessian_fd(
    model: MatrixModel, x_cartan, beta_cartan, xi: np.ndarray, *, h: float = 1e-4
) -> float:
    """Finite-difference second derivative of the height curve at t = 0."""
    base = embed(model, x_cartan)
    beta_mat = embed(model, beta_cartan)
    return float(_height_curve_second_derivatives(base, beta_mat, xi[None], h)[0])


def _direction_layout(spaces: _RootSpaces, blocks) -> tuple:
    """Where one flat Gaussian draw lands in the weights of the directions.

    Direction t gets weights on the basis of root-space block ``blocks[t]``
    (an index into ``spaces.block_slices``) or, for None, of the whole
    algebra.  The draw fills one block after another, in order of first
    appearance, each block's directions in order, each direction's weights
    in basis order.  Returns (rows, cols, n_directions): the weight-matrix
    position of every drawn value.
    """
    members = {}
    for t, block in enumerate(blocks):
        members.setdefault(block, []).append(t)
    rows, cols = [np.zeros(0, int)], [np.zeros(0, int)]
    for block, ts in members.items():
        span = np.arange(len(spaces.basis_mats))
        if block is not None:
            span = span[spaces.block_slices[block]]
        rows.append(np.repeat(ts, len(span)))
        cols.append(np.tile(span, len(ts)))
    return np.concatenate(rows), np.concatenate(cols), len(blocks)


def _direction_weights(spaces: _RootSpaces, keys, layout) -> np.ndarray:
    """Basis weights of ``layout``'s directions for each stream in ``keys``.

    ``keys`` lists (seed, stage) stream keys.  Each stream's weights are one
    draw, placed by ``_direction_layout`` in the stream's own rows.
    """
    rows, cols, count = layout
    weights = np.zeros((len(keys) * count, len(spaces.basis_mats)))
    for j, key in enumerate(keys):
        weights[j * count + rows, cols] = _stream(*key).standard_normal(len(rows))
    return weights


def _unit_directions(spaces: _RootSpaces, weights: np.ndarray) -> tuple:
    """(xis, keep): the directions of ``weights`` in so(n), from one product
    with the flattened basis, normalized, and the mask of those kept;
    directions of norm below 1e-12 are dropped."""
    basis = spaces.basis_mats
    xis = (weights @ basis.reshape(len(basis), -1)).reshape(
        (len(weights),) + basis.shape[1:]
    )
    norms = np.linalg.norm(xis.reshape(len(weights), -1), axis=1)
    keep = norms >= 1e-12
    return xis[keep] / norms[keep, None, None], keep


def local_max_test(model: MatrixModel, pairs, *, n_directions: int = 100) -> list:
    """Chamber predicate versus the numeric local-maximum verdict, per pair.

    ``pairs`` lists (x, beta, seed).  The exact verdict of a pair is
    share_closed_chamber(x, beta); the numeric one requires the exact second
    derivative of the height curve to stay below 1e-6 * max(1, |x| |beta|)
    along ``n_directions`` random antisymmetric directions: two sweeps over
    the root-space blocks, where a chamber-separating root shows its
    curvature directly, then the whole Lie algebra.  A pair's weights come
    from its own stream (seed, _LOCAL_MAX), so its record does not depend
    on the other pairs.  A stack holds as many whole pairs as fit in _CHUNK
    directions (at least one), which bounds the scratch memory.  Returns
    one record per pair with both verdicts and their agreement.
    """
    rs = model.root_system
    spaces = _root_spaces(model)
    pairs = [(vec(x), vec(beta), seed) for x, beta, seed in pairs]
    bases = np.array([embed(model, x) for x, _, _ in pairs])
    beta_mats = np.array([embed(model, beta) for _, beta, _ in pairs])
    n_blocks = len(spaces.block_slices)
    blocks = [
        t % n_blocks if t < 2 * n_blocks else None for t in range(n_directions)
    ]
    layout = _direction_layout(spaces, blocks)
    per_stack = max(1, _CHUNK // max(1, n_directions))
    # fmax, unlike maximum, skips NaN; of equal values it keeps the first
    worst = np.full(len(pairs), -math.inf)
    for first in range(0, len(pairs), per_stack):
        keys = [(seed, _LOCAL_MAX) for _, _, seed in pairs[first : first + per_stack]]
        weights = _direction_weights(spaces, keys, layout)
        xis, keep = _unit_directions(spaces, weights)
        owners = np.repeat(np.arange(first, first + len(keys)), layout[2])[keep]
        seconds = _commutator_second_derivatives(bases[owners], beta_mats[owners], xis)
        np.fmax.at(worst, owners, seconds)
    records = []
    # + 0.0 turns the -0.0 of a flat set of directions into 0.0
    for (x, beta, _), top in zip(pairs, (worst + 0.0).tolist()):
        chamber = share_closed_chamber(rs, x, beta)
        x_norm = math.sqrt(sum(float(c) ** 2 for c in x))
        b_norm = math.sqrt(sum(float(c) ** 2 for c in beta))
        threshold = MATCH_TOL * max(1.0, x_norm * b_norm)
        numeric = top <= threshold
        records.append(
            {
                "chamber": chamber,
                "numeric": numeric,
                "max_second_derivative": top,
                "threshold": threshold,
                "agree": chamber == numeric,
            }
        )
    return records


def hessian_check(
    model: MatrixModel,
    x_cartan,
    beta_cartan,
    trials: int = 100,
    *,
    seed: int = 0,
    h: float = 1e-4,
) -> dict:
    """Closed-form Hessian against finite differences on random directions.

    Directions are unit Frobenius norm, drawn from the stream
    (seed, _HESSIAN), so the expected discrepancy is the finite-difference
    truncation error, a few orders below the matching tolerance of
    1e-5 * |x| * |beta| used by the callers.  Both sides are evaluated for
    all trials at once.
    """
    spaces = _root_spaces(model)
    layout = _direction_layout(spaces, [None] * trials)
    weights = _direction_weights(spaces, [(seed, _HESSIAN)], layout)
    xis, _ = _unit_directions(spaces, weights)
    closed = _closed_forms(model, x_cartan, beta_cartan, xis)
    base = embed(model, x_cartan)
    beta_mat = embed(model, beta_cartan)
    numeric = _height_curve_second_derivatives(base, beta_mat, xis, h)
    # fmax, unlike maximum, skips NaN
    worst = float(np.fmax.reduce(np.abs(closed - numeric), initial=0.0))
    return {"max_abs_error": worst, "trials": trials}


def ext_face_dim_check(
    model: MatrixModel, x_cartan, descriptor: FaceDescriptor
) -> ExtDimResult:
    """Numeric rank of xi -> [xi, x] on the centralizer of beta.

    The centralizer subalgebra k^beta is spanned by the Cartan-centralizer
    block and the root blocks with lambda(beta) = 0 (an exact rational
    test).  The rank counts singular values above 1e-8 times the Frobenius
    norm of the embedded x, and the prediction is descriptor.dim_extF.
    """
    rs = model.root_system
    x = vec(x_cartan)
    beta = vec(descriptor.beta)
    if len(beta) != rs.ambient_dim or any(
        j < 0 or j >= rs.rank for j in descriptor.J
    ):
        raise ValueError("descriptor does not match the model's root system")
    if not is_dominant(rs, x):
        raise ValueError("x is not dominant; apply weyl.to_dominant first")
    if x not in descriptor.sigma_vertices:
        raise ValueError("descriptor was not built for this x")
    spaces = _root_spaces(model)
    base = embed(model, x)
    members = list(range(spaces.zero_slice.start, spaces.zero_slice.stop))
    for lam, block in zip(rs.covectors, spaces.block_slices, strict=True):
        if dot(lam, beta) == 0:
            members.extend(range(block.start, block.stop))
    if not members:
        return ExtDimResult(numeric_dim=0, predicted_dim=descriptor.dim_extF)
    columns = []
    for b in members:
        xi = spaces.basis_mats[b]
        columns.append((xi @ base - base @ xi).reshape(-1))
    singular = np.linalg.svd(np.stack(columns, axis=1), compute_uv=False)
    numeric = int(np.sum(singular > RANK_TOL * float(np.linalg.norm(base))))
    return ExtDimResult(numeric_dim=numeric, predicted_dim=descriptor.dim_extF)


def _dominant_integer_vector(rng, model: MatrixModel, group) -> Vec:
    """Small random integer Cartan vector, moved to the dominant chamber.

    For the symmetric model the coordinates are recentred to sum zero
    (scaled by the matrix size to stay integral).
    """
    raw = _random_cartan_vector(rng, model)
    if all(c == 0 for c in raw):
        raw = vec(int(2 * c) for c in model.root_system.positive_roots[0])
    return to_dominant(group, raw).vector


def _random_cartan_vector(rng, model: MatrixModel) -> Vec:
    raw = [int(c) for c in rng.integers(-4, 5, size=model.root_system.ambient_dim)]
    if model.kind == "sym":
        s = sum(raw)
        raw = [model.n * c - s for c in raw]
    return vec(raw)


def verification_report(
    model: MatrixModel,
    x_cartan,
    n_samples: int,
    seed: int,
    *,
    group,
    orbit_polytope: poly.RationalPolytope,
    descriptors,
    n_pairs: int = 100,
    n_directions: int = 100,
    hessian_trials: int = 25,
) -> dict:
    """Full numeric verification suite for one model and base point.

    Runs five stages against a single Haar sample seeded with every
    polytope vertex as a forced point (so the exact maximum of every
    height function is attained in the sample):

    1. spectrum preservation, gated at 1e-9 * |x|;
    2. polytope membership of all projections, gated at 1e-9 * |x|;
       vertex coverage by the Haar prefix is reported at two tolerances
       but not gated, since coverage grows with the sample size;
    3. per descriptor: the points within eps = 1e-6 * |x| * |beta| of the
       best height project onto the predicted sub-polytope within
       max(1, factor) * eps plus the membership tolerance, where factor
       (``_face_distance_factor``) bounds the distance to the exposed face
       per unit of height deficit; the report gives the factor and the
       margin, distance over tolerance.  The numeric extreme-orbit
       dimension equals the predicted one;
    4. chamber predicate versus the verdict of exact second derivatives
       (commutators) on random dominant/arbitrary integer pairs (the stream
       (seed, _PAIRS)), all in one stacked ``local_max_test`` call with pair
       k drawing its directions from seed k, gated at full agreement;
    5. closed-form Hessian versus finite differences for each
       descriptor's witness and for beta = x, check i with
       ``hessian_check(seed=i)``, gated at 1e-5 * |x| * |beta|.

    Every stage records a ``passed`` flag; the report passes when all do.
    The report is fully determined by (model, x, n_samples, seed) and the
    stage sizes, so it is reproducible byte for byte.  The stages run at
    unit scale, since conv(W tx) = t conv(W x) has the faces of conv(W x):
    with 2^e <= max |x_i| < 2^(e+1), x, the orbit polytope and each
    descriptor's sigma_vertices are multiplied by 2^-e once, exactly, and
    |x| above is the norm of 2^-e x.  The report keeps x and gives e as
    ``scale_exponent``.
    """
    x_exact = vec(x_cartan)
    top = max((abs(c) for c in x_exact), default=0) or Fraction(1)
    e = top.numerator.bit_length() - top.denominator.bit_length()
    if top < Fraction(2) ** e:
        e -= 1
    unit = Fraction(2) ** -e

    def rescale(v):
        return tuple(unit * c for c in v)

    x = rescale(x_exact)
    orbit_polytope = dataclasses.replace(
        orbit_polytope,
        vertices=tuple(map(rescale, orbit_polytope.vertices)),
        facets=tuple((nu, unit * c0) for nu, c0 in orbit_polytope.facets),
        origin=rescale(orbit_polytope.origin),
        basis=tuple(map(rescale, orbit_polytope.basis)),
    )
    descriptors = [
        dataclasses.replace(d, sigma_vertices=tuple(map(rescale, d.sigma_vertices)))
        for d in descriptors
    ]
    x_norm = math.sqrt(sum(float(c) ** 2 for c in x))
    violation_tol = VIOLATION_TOL * x_norm
    sample = sample_orbit(
        model, x, n_samples, seed, forced_cartan_points=orbit_polytope.vertices
    )
    stages = []

    deviation = spectrum_deviation(sample)
    stages.append(
        {
            "name": "spectrum",
            "passed": bool(deviation <= violation_tol),
            "max_deviation": float(deviation),
            "tolerance": float(violation_tol),
        }
    )

    kostant = kostant_check(sample, orbit_polytope)
    loose_tol = 1e-3 * x_norm
    loose_covered = sum(1 for d in kostant["vertex_distances"] if d <= loose_tol)
    stages.append(
        {
            "name": "kostant",
            "passed": bool(kostant["max_violation"] <= violation_tol),
            "max_facet_violation": kostant["max_facet_violation"],
            "max_affine_residual": kostant["max_affine_residual"],
            "tolerance": float(violation_tol),
            "coverage_matching": kostant["coverage"],
            "coverage_loose": loose_covered / len(orbit_polytope.vertices),
            "loose_tolerance": float(loose_tol),
            "vertex_distances": kostant["vertex_distances"],
        }
    )

    face_records = []
    faces_passed = True
    for d in descriptors:
        b_norm = math.sqrt(sum(float(c) ** 2 for c in d.beta))
        factor = _face_distance_factor(
            model.root_system, orbit_polytope.vertices, d.beta
        )
        face_tol = max(1.0, factor) * MATCH_TOL * x_norm * b_norm + violation_tol
        sub = poly.hull([vec(v) for v in d.sigma_vertices])
        geom = _float_geometry(sub)
        arg = argmax_height(sample, d.beta)
        worst = float(np.max(_distances_to(sub, geom, arg["projections"])))
        gap = arg["best_value"] - float(np.max(arg["heights"][: sample.n_haar]))
        ext = ext_face_dim_check(model, x, d)
        ok = bool(worst <= face_tol and ext.numeric_dim == ext.predicted_dim)
        faces_passed = faces_passed and ok
        face_records.append(
            {
                "I": [i + 1 for i in sorted(d.I)],
                "beta": list(d.beta),
                "argmax_count": len(arg["indices"]),
                "max_face_distance": float(worst),
                "face_tolerance": float(face_tol),
                "distance_factor": factor,
                "face_margin": float(worst / face_tol),
                "haar_height_gap": float(gap),
                "numeric_ext_dim": ext.numeric_dim,
                "predicted_ext_dim": ext.predicted_dim,
                "passed": ok,
            }
        )
    stages.append(
        {"name": "faces", "passed": faces_passed, "descriptors": face_records}
    )

    rng = _stream(seed, _PAIRS)
    pairs = []
    for k in range(n_pairs):
        xd = _dominant_integer_vector(rng, model, group)
        pairs.append((xd, _random_cartan_vector(rng, model), k))
    records = local_max_test(model, pairs, n_directions=n_directions)
    disagreements = [
        {
            "x": list(xd),
            "beta": list(beta),
            "chamber": rec["chamber"],
            "max_second_derivative": rec["max_second_derivative"],
        }
        for (xd, beta, _), rec in zip(pairs, records)
        if not rec["agree"]
    ]
    agreements = n_pairs - len(disagreements)
    stages.append(
        {
            "name": "local-max-agreement",
            "passed": agreements == n_pairs,
            "pairs": n_pairs,
            "agreements": agreements,
            "disagreements": disagreements,
        }
    )

    hessian_records = []
    hessian_passed = True
    betas = [d.beta for d in descriptors] + [tuple(x)]
    for i, beta in enumerate(betas):
        b_norm = math.sqrt(sum(float(c) ** 2 for c in beta))
        tol = 10.0 * MATCH_TOL * x_norm * b_norm
        rec = hessian_check(model, x, beta, hessian_trials, seed=i)
        ok = bool(rec["max_abs_error"] <= tol)
        hessian_passed = hessian_passed and ok
        hessian_records.append(
            {
                "beta": list(beta),
                "max_abs_error": rec["max_abs_error"],
                "tolerance": float(tol),
                "passed": ok,
            }
        )
    stages.append(
        {"name": "hessian", "passed": hessian_passed, "checks": hessian_records}
    )

    overall = all(stage["passed"] for stage in stages)
    failed = [stage["name"] for stage in stages if not stage["passed"]]
    return {
        "model": model.kind + str(model.n),
        "x": list(x_exact),
        "scale_exponent": e,
        "n_samples": n_samples,
        "seed": seed,
        "passed": overall,
        "failed_stages": failed,
        "stages": stages,
    }


def spectrum_deviation(sample: OrbitSample) -> float:
    """Worst deviation of the conjugation invariants across the sample, as
    ``sample_orbit`` took it: pure numerical error, as they are constant on
    the orbit."""
    return sample.max_deviation
