"""Matrix models: sampling, invariants, heights, Hessians, dimensions."""

import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from oracles import (
    majorized_by, pairing, root_spaces_by_dense_kernels, sample_orbit_materialized,
)
from orbitope_lab import facelab, jsonio, matmodel
from orbitope_lab import polytope as poly
from orbitope_lab.rootsys import make_root_system, metric_covector
from orbitope_lab.weyl import generate, orbit, to_dominant


def model_context(kind, n, x):
    model = matmodel.make_model(kind, n)
    rs = model.root_system
    group = generate(rs)
    xd = to_dominant(group, x).vector
    hull = poly.hull(orbit(group, xd))
    descriptors = facelab.classify_faces(rs, group, xd)
    return model, rs, group, xd, hull, descriptors


def test_sym_models_use_type_a_systems():
    for n in (2, 3, 4, 5):
        model = matmodel.make_model("sym", n)
        rs = model.root_system
        assert rs.rank == n - 1
        assert rs.ambient_dim == n
        assert rs.positive_multiplicities == (1,) * len(rs.positive_roots)
        assert rs.centralizer_dim == 0


def test_skew_models_have_doubled_multiplicities():
    expected = {
        3: (1, 1),  # rank, positive root count
        4: (2, 2),
        5: (2, 4),
        6: (3, 6),
        7: (3, 9),
    }
    for n, (rank, positives) in expected.items():
        model = matmodel.make_model("skew", n)
        rs = model.root_system
        m = n // 2
        assert rs.rank == rank == m
        assert len(rs.positive_roots) == positives
        assert rs.positive_multiplicities == (2,) * positives
        assert rs.centralizer_dim == m
        # both the acting algebra and the representation space are so(n):
        # center + root spaces on one side, Cartan + root spaces on the other
        dim_so_n = n * (n - 1) // 2
        total_mult = sum(rs.positive_multiplicities)
        assert rs.centralizer_dim + total_mult == dim_so_n
        assert m + total_mult == dim_so_n
        assert rs.inner_product == tuple(
            tuple(Fraction(2 if i == j else 0) for j in range(m))
            for i in range(m)
        )


def test_model_domain_errors():
    with pytest.raises(ValueError):
        matmodel.make_model("skew", 2)
    with pytest.raises(ValueError):
        matmodel.make_model("sym", 1)
    with pytest.raises(ValueError):
        matmodel.make_model("herm", 3)


def exact(matrix):
    """The exact values of a float matrix."""
    return [[Fraction(float(c)) for c in row] for row in matrix]


def bracket(a, b):
    n = len(a)
    return [
        [sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def unit_probe(model, r):
    """The Cartan element of coordinate direction r, as an exact matrix."""
    n = model.n
    a = [[Fraction(0)] * n for _ in range(n)]
    if model.kind == "sym":
        a[r][r] = Fraction(1)
    else:
        a[2 * r][2 * r + 1], a[2 * r + 1][2 * r] = Fraction(1), Fraction(-1)
    return a


# sha256 of from_coords and basis_mats, as bytes, over sym2-sym5 and
# skew3-skew8.  The floats are rounded from exact Fractions, so they do not
# depend on the BLAS build; the digest pins the root-space layout that the
# model reports read.
ROOT_SPACES_DIGEST = "5e8c77ca382694bac4aeea5c81d6a6839adbfec9f5df8df64c98b0d45815d4ad"


def test_root_spaces_are_pinned():
    digest = hashlib.sha256()
    for kind, n in [("sym", n) for n in range(2, 6)] + [("skew", n) for n in range(3, 9)]:
        spaces = matmodel._root_spaces(matmodel.make_model(kind, n))
        digest.update(spaces.from_coords.tobytes())
        digest.update(spaces.basis_mats.tobytes())
    assert digest.hexdigest() == ROOT_SPACES_DIGEST


@pytest.mark.parametrize(
    "kind,n", [("sym", n) for n in range(2, 6)] + [("skew", n) for n in range(3, 8)]
)
def test_root_spaces_are_joint_eigenspaces_of_the_cartan(kind, n):
    model = matmodel.make_model(kind, n)
    rs = model.root_system
    spaces = matmodel._root_spaces(model)
    sign = 1 if kind == "sym" else -1
    d = rs.ambient_dim
    probes = [unit_probe(model, r) for r in range(d)]
    basis = [exact(m) for m in spaces.basis_mats]
    sizes = [block.stop - block.start for block in spaces.block_slices]
    assert sizes == list(rs.positive_multiplicities)
    assert len(basis[spaces.zero_slice]) == rs.centralizer_dim
    assert len(basis) == len(spaces.pairs) == n * (n - 1) // 2
    for lam, block in zip(rs.covectors, spaces.block_slices, strict=True):
        for xi in basis[block]:
            for r in range(d):
                for s in range(r, d):
                    value = sign * lam[r] * lam[s]
                    assert bracket(probes[s], bracket(probes[r], xi)) == [
                        [value * c for c in row] for row in xi
                    ]
    zero = [[0] * n for _ in range(n)]
    for xi in basis[spaces.zero_slice]:
        assert all(bracket(p, xi) == zero for p in probes)
    coords = [[xi[i][j] for xi in basis] for (i, j) in spaces.pairs]
    product = [
        [sum(a * b for a, b in zip(row, col)) for col in zip(*coords)]
        for row in exact(spaces.from_coords)
    ]
    assert product == [[int(i == j) for j in range(len(basis))] for i in range(len(basis))]


def test_root_spaces_build_one_operator(monkeypatch):
    """One sparse double bracket per basis element of so(n), all with the one
    integer Cartan element h, and one kernel per block of the operator and
    value lambda(h)^2 or 0.  skew7's 15 blocks are its nine basis elements
    in the Cartan or the last column, one each, and six pairs, two per pair
    of rotation blocks; sym6's are its 15 basis elements."""
    bracket_ = matmodel._bracket
    nullspace_ = matmodel.nullspace
    calls, sizes = [], []

    def counting(h, m):
        calls.append((h, m))
        return bracket_(h, m)

    def sizing(a):
        sizes.append(len(a))
        return nullspace_(a)

    monkeypatch.setattr(matmodel, "_bracket", counting)
    monkeypatch.setattr(matmodel, "nullspace", sizing)
    model = matmodel.make_model("skew", 7)
    matmodel._root_spaces.__wrapped__(model)
    assert len(calls) == 2 * 21
    h = calls[0][0]
    # h is the block matrix of three nonzero angles: its nonzeros only
    assert len(h) == 6 and all(type(v) is int and v for v in h.values())
    assert all(c[0] is h for c in calls)
    assert all(len(m) == 2 for _, m in calls[::2])
    assert sorted(sizes) == [1] * 9 * 10 + [2] * 6 * 10
    sizes.clear()
    matmodel._root_spaces.__wrapped__(matmodel.make_model("sym", 6))
    assert sizes == [1] * 15 * 16


@pytest.mark.parametrize(
    "kind,n", [("sym", n) for n in range(2, 9)] + [("skew", n) for n in range(3, 11)]
)
def test_root_spaces_match_the_dense_oracle(kind, n):
    model = matmodel.make_model(kind, n)
    spaces = matmodel._root_spaces(model)
    dense = root_spaces_by_dense_kernels(model)
    assert spaces.pairs == dense.pairs
    assert spaces.block_slices == dense.block_slices
    assert spaces.zero_slice == dense.zero_slice
    assert np.array_equal(spaces.basis_mats, dense.basis_mats)
    assert np.array_equal(spaces.from_coords, dense.from_coords)


def test_root_spaces_check_the_declared_dimensions():
    skew5 = matmodel.make_model("skew", 5).root_system

    def skew5_declaring(mults, centralizer):
        rs = make_root_system(
            skew5.simple_roots,
            skew5.positive_roots,
            multiplicities=mults,
            inner_product=skew5.inner_product,
            centralizer_dim=centralizer,
        )
        return matmodel.MatrixModel("skew", 5, rs)

    with pytest.raises(
        ValueError,
        match="^root-space dimension 2 does not match the declared multiplicity 1$",
    ):
        matmodel._root_spaces(skew5_declaring([1] * 4, 2))
    with pytest.raises(
        ValueError,
        match="^Cartan centralizer dimension 2 does not match the declared value 0$",
    ):
        matmodel._root_spaces(skew5_declaring([2] * 4, 0))
    # one root of A2: its own space and the (zero) centralizer match, but the
    # spaces of the two undeclared roots are missing
    a1_in_sym3 = make_root_system([(1, -1, 0)], [(1, -1, 0)])
    with pytest.raises(ValueError, match="^root spaces do not fill the Lie algebra$"):
        matmodel._root_spaces(matmodel.MatrixModel("sym", 3, a1_in_sym3))


def test_embed_exact_and_isometry():
    sym3 = matmodel.make_model("sym", 3)
    x = (Fraction(2), Fraction(0), Fraction(-2))
    mat = matmodel.embed_exact(sym3, x)
    assert [mat[i][i] for i in range(3)] == list(x)
    with pytest.raises(ValueError):
        matmodel.embed_exact(sym3, (1, 0, 0))
    rng = random.Random(8)
    for kind, n in (("sym", 3), ("skew", 4), ("skew", 5)):
        model = matmodel.make_model(kind, n)
        rs = model.root_system
        d = rs.ambient_dim
        for _ in range(5):
            u = [Fraction(rng.randint(-4, 4)) for _ in range(d)]
            v = [Fraction(rng.randint(-4, 4)) for _ in range(d)]
            if kind == "sym":
                su, sv = sum(u), sum(v)
                u = [n * c - su for c in u]
                v = [n * c - sv for c in v]
            mu = matmodel.embed_exact(model, u)
            mv = matmodel.embed_exact(model, v)
            trace_form = sum(
                mu[i][j] * mv[i][j] for i in range(n) for j in range(n)
            )
            assert trace_form == pairing(rs, u, v)


def test_project_round_trips_embed():
    for kind, n in (("sym", 3), ("sym", 4), ("skew", 4), ("skew", 5)):
        model = matmodel.make_model(kind, n)
        d = model.root_system.ambient_dim
        rng = random.Random(n)
        v = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        if kind == "sym":
            s = sum(v)
            v = [n * c - s for c in v]
        point = matmodel.embed(model, v)
        back = matmodel.project(model, point)
        assert np.allclose(back, [float(c) for c in v], atol=1e-12)


def test_sample_orbit_shapes_and_prefix_stability():
    model = matmodel.make_model("sym", 3)
    x = (2, 0, -2)
    small = matmodel.sample_orbit(model, x, 50, seed=4)
    large = matmodel.sample_orbit(model, x, 200, seed=4)
    assert small.points.shape == (50, 3, 3)
    assert small.projections.shape == (50, 3)
    assert np.array_equal(small.points, large.points[:50])
    other = matmodel.sample_orbit(model, x, 50, seed=5)
    assert not np.array_equal(small.points, other.points)
    with pytest.raises(ValueError):
        matmodel.sample_orbit(model, x, 0, seed=1)


@pytest.mark.parametrize("seed", [42, 1009])
@pytest.mark.parametrize(
    "kind,n,x",
    [
        ("sym", 3, (2, 0, -2)),
        ("sym", 4, (3, 1, -1, -3)),
        ("skew", 5, (2, 1)),
        ("skew", 7, (3, 2, 1)),
        # at even n the determinant flip moves points
        ("skew", 8, (4, 3, 2, 1)),
    ],
)
def test_streamed_sampler_matches_the_materializing_one(kind, n, x, seed):
    """Two full chunks and a partial one, then the forced vertices: the
    streamed projections, invariant deviation and re-drawn points equal
    the sampler that keeps every conjugate, bit for bit."""
    model, _, _, xd, hull, _ = model_context(kind, n, x)
    n_samples = 2 * matmodel._CHUNK + 3
    forced = list(hull.vertices)
    sample = matmodel.sample_orbit(
        model, xd, n_samples, seed, forced_cartan_points=forced
    )
    ref = sample_orbit_materialized(
        model, xd, n_samples, seed, forced_cartan_points=forced
    )
    assert np.array_equal(sample.projections, ref.projections)
    assert sample.projections.shape == (n_samples + len(forced), len(xd))
    deviation = matmodel.spectrum_deviation(sample)
    assert deviation.hex() == ref.spectrum_deviation.hex()
    assert np.array_equal(sample.points, ref.points)
    rows = [n_samples + 1, 0, matmodel._CHUNK + 1, n_samples - 1, -1]
    assert np.array_equal(sample.points[rows], ref.points[rows])
    assert not sample.points[0].flags.writeable


def test_sample_orbit_memory_does_not_grow_with_the_matrices():
    """Under tracemalloc, ten times the draws add only the N x r projections
    (0.43 MB for skew7 from 2,000 to 20,000 draws), not the N x n x n stack
    of conjugates (7 MB)."""
    model = matmodel.make_model("skew", 7)
    x = (3, 2, 1)
    matmodel.sample_orbit(model, x, 10, seed=0)

    def peak(n_samples):
        tracemalloc.start()
        try:
            matmodel.sample_orbit(model, x, n_samples, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(20_000) - peak(2_000) < 1_000_000


def one_haar_draw(seed, i, n):
    """Draw i of a seeded sampler, by single-matrix calls.

    Draw i is entry i % _CHUNK of chunk i // _CHUNK, whose Gaussians are
    one sequential fill of the stream (seed, _HAAR, chunk).
    """
    chunk, offset = divmod(i, matmodel._CHUNK)
    rng = np.random.default_rng((seed, matmodel._HAAR, chunk))
    z = rng.standard_normal((offset + 1, n, n))[offset]
    q, r = np.linalg.qr(z)
    signs = np.sign(np.diagonal(r))
    signs[signs == 0] = 1.0
    q = q * signs
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.mark.parametrize("kind,n,x", [("sym", 3, (2, 0, -2)), ("skew", 5, (2, 1))])
def test_sample_orbit_draws_are_per_draw_seeded(kind, n, x):
    model = matmodel.make_model(kind, n)
    sample = matmodel.sample_orbit(model, x, matmodel._CHUNK + 3, seed=11)
    base = matmodel.embed(model, x)
    for i in (0, 1, matmodel._CHUNK - 1, matmodel._CHUNK, matmodel._CHUNK + 2):
        g = one_haar_draw(11, i, n)
        assert np.array_equal(sample.points[i], g @ base @ g.T), i


def test_sample_orbit_chunked_run_is_a_prefix():
    model = matmodel.make_model("sym", 4)
    x = (3, 1, -1, -3)
    short = matmodel.sample_orbit(model, x, matmodel._CHUNK + 3, seed=2)
    long = matmodel.sample_orbit(model, x, 2 * matmodel._CHUNK + 1, seed=2)
    assert np.array_equal(short.points, long.points[: matmodel._CHUNK + 3])
    assert np.array_equal(short.projections, long.projections[: matmodel._CHUNK + 3])


def test_expm_matches_scipy_on_stacks():
    """The stacked Taylor exponential against scipy, slice by slice.

    1-norms run from 1e-8 to 100, so the squaring path is covered.  At the
    finite-difference scale (1-norm at most 1e-3) the two agree to 1e-15
    absolute (1.1e-16 measured); above it the error relative to the largest
    entry stays below 5e-12 (5.6e-13 measured, a general 2 x 2 at norm 100).
    """
    rng = np.random.default_rng(5)
    norms = np.geomspace(1e-8, 100.0, 41)
    for n in range(1, 9):
        for antisymmetric in (True, False):
            a = rng.standard_normal((len(norms), n, n))
            if antisymmetric:
                a = a - np.swapaxes(a, -1, -2)
            ones = np.abs(a).sum(axis=-2).max(axis=-1)
            a *= (norms / np.where(ones > 0, ones, 1.0))[:, None, None]
            ours = matmodel.expm(a)
            for norm, mine, block in zip(norms, ours, a, strict=True):
                ref = scipy_expm(block)
                err = np.max(np.abs(mine - ref))
                if norm <= 1e-3:
                    assert err <= 1e-15, (n, antisymmetric, norm, err)
                else:
                    assert err <= 5e-12 * np.max(np.abs(ref)), (n, norm, err)
    assert matmodel.expm(np.empty((0, 3, 3))).shape == (0, 3, 3)


def test_expm_slices_are_independent():
    rng = np.random.default_rng(6)
    scales = np.array([0.0, 1e-6, 1e-4, 0.05, 0.5, 3.0, 40.0, 1e-2])
    stack = rng.standard_normal((len(scales), 5, 5)) * scales[:, None, None]
    whole = matmodel.expm(stack)
    for i in range(len(stack)):
        assert np.array_equal(whole[i], matmodel.expm(stack[i : i + 1])[0]), i


def counting_expm(monkeypatch):
    calls = []
    expm = matmodel.expm

    def counting(a):
        calls.append(a.shape)
        return expm(a)

    monkeypatch.setattr(matmodel, "expm", counting)
    return calls


def counting_commutators(monkeypatch):
    calls = []
    kernel = matmodel._commutator_second_derivatives

    def counting(bases, beta_mats, xis):
        calls.append(xis.shape)
        return kernel(bases, beta_mats, xis)

    monkeypatch.setattr(matmodel, "_commutator_second_derivatives", counting)
    return calls


def test_local_max_test_makes_no_expm_call(monkeypatch):
    """The sweep reads exact second derivatives: one stacked commutator
    evaluation and no matrix exponential."""
    exponentials = counting_expm(monkeypatch)
    calls = counting_commutators(monkeypatch)
    model = matmodel.make_model("skew", 5)
    matmodel.local_max_test(model, [((2, 1), (1, -1), 3)], n_directions=40)
    assert exponentials == []
    assert calls == [(40, 5, 5)]


class LeadingZerosGenerator:
    """A generator whose draws start with ``count`` exact zeros."""

    def __init__(self, rng, count):
        self.rng, self.count = rng, count

    def standard_normal(self, size=None):
        values = self.rng.standard_normal(size)
        values[: self.count] = 0.0
        return values


@pytest.mark.parametrize(
    "n_pairs, zeroed",
    [(1, ()), (4, ()), (4, (1,)), (9, (0, 5))],
    ids=["one", "fills-a-chunk", "short-of-a-chunk", "three-stacks"],
)
def test_stacked_local_max_matches_one_pair_calls(monkeypatch, n_pairs, zeroed):
    """Records of one stacked call equal one-pair calls bit for bit.

    skew5 has two basis matrices per root block, so every direction, and
    each pair's largest second derivative, depends on the pair's seed.
    Pair k draws from seed k, 128 directions each, so four pairs fill one
    _CHUNK.  The draw of a seed in ``zeroed`` starts with two zeros: its
    first direction, in block 0, has norm zero and is dropped, and its
    stack is one slice short.
    """
    model = matmodel.make_model("skew", 5)
    block = matmodel._root_spaces(model).block_slices[0]
    stream = matmodel._stream

    def zeroing(seed, stage, index=0):
        rng = stream(seed, stage, index)
        if seed in zeroed:
            return LeadingZerosGenerator(rng, block.stop - block.start)
        return rng

    monkeypatch.setattr(matmodel, "_stream", zeroing)
    rng = random.Random(n_pairs)
    pairs = [
        ([rng.randint(-4, 4) for _ in range(2)], [rng.randint(-4, 4) for _ in range(2)], k)
        for k in range(n_pairs)
    ]
    calls = counting_commutators(monkeypatch)
    stacked = matmodel.local_max_test(model, pairs, n_directions=128)
    per_stack = matmodel._CHUNK // 128
    assert [shape[0] for shape in calls] == [
        sum(128 - (k in zeroed) for k in range(first, min(first + per_stack, n_pairs)))
        for first in range(0, n_pairs, per_stack)
    ]
    singles = [matmodel.local_max_test(model, [p], n_directions=128)[0] for p in pairs]
    assert repr(stacked) == repr(singles)


def test_hessian_check_makes_one_expm_call(monkeypatch):
    calls = counting_expm(monkeypatch)
    model = matmodel.make_model("sym", 4)
    matmodel.hessian_check(model, (3, 1, -1, -3), (1, 0, 0, -1), 25, seed=1)
    assert calls == [(25, 4, 4)]


def test_fd_directions_are_per_draw_seeded():
    """Each stacked finite difference equals the one-direction computation.

    A call's directions share one stream: the weights are drawn in order
    of each block's first appearance, here the order of the directions.
    """
    model = matmodel.make_model("skew", 5)
    spaces = matmodel._root_spaces(model)
    x, beta = (2, 1), (1, -1)
    base, beta_mat = matmodel.embed(model, x), matmodel.embed(model, beta)
    blocks = [0, 1, None, None, 3]
    layout = matmodel._direction_layout(spaces, blocks)
    weights = matmodel._direction_weights(spaces, [(9, matmodel._LOCAL_MAX)], layout)
    xis, _ = matmodel._unit_directions(spaces, weights)
    seconds = matmodel._height_curve_second_derivatives(base, beta_mat, xis, 1e-4)
    rng = np.random.default_rng((9, matmodel._LOCAL_MAX, 0))
    for t, block in enumerate(blocks):
        mats = spaces.basis_mats
        if block is not None:
            mats = mats[spaces.block_slices[block]]
        xi = np.tensordot(rng.standard_normal(len(mats)), mats, axes=1)
        xi = xi / math.sqrt(np.sum(xi * xi))
        assert np.array_equal(xis[t], xi)
        assert seconds[t] == matmodel.hessian_fd(model, x, beta, xi)


class RecordingGenerator:
    """A generator that adds every Gaussian it draws to ``drawn``."""

    def __init__(self, rng, drawn):
        self.rng, self.drawn = rng, drawn

    def standard_normal(self, size=None, out=None):
        values = self.rng.standard_normal(size, out=out)
        self.drawn.update(np.ravel(values).tolist())
        return values


def gaussians_drawn_by(monkeypatch, call):
    drawn = set()
    real = np.random.default_rng
    with monkeypatch.context() as m:
        m.setattr(
            np.random, "default_rng", lambda key: RecordingGenerator(real(key), drawn)
        )
        call()
    return drawn


def test_no_two_stages_share_random_numbers(monkeypatch):
    """Haar draws, local-max directions and Hessian directions at one seed
    come from disjoint streams."""
    model = matmodel.make_model("sym", 3)
    x, beta = (2, 0, -2), (1, 0, -1)
    haar = gaussians_drawn_by(
        monkeypatch, lambda: matmodel.sample_orbit(model, x, 50, seed=0)
    )
    local = gaussians_drawn_by(
        monkeypatch, lambda: matmodel.local_max_test(model, [(x, beta, 0)])
    )
    hessian = gaussians_drawn_by(
        monkeypatch, lambda: matmodel.hessian_check(model, x, beta, 25, seed=0)
    )
    assert len(haar) == 50 * 9 and len(local) > 0 and len(hessian) == 25 * 3
    assert not haar & local
    assert not haar & hessian
    assert not local & hessian


def test_verification_report_makes_one_generator_per_chunk_and_call(monkeypatch):
    keys = []
    real = np.random.default_rng

    def counting(key):
        keys.append(key)
        return real(key)

    monkeypatch.setattr(np.random, "default_rng", counting)
    model, rs, group, x, hull, descriptors = model_context("sym", 4, (3, 1, -1, -3))
    n_samples = 2 * matmodel._CHUNK + 1
    matmodel.verification_report(
        model, x, n_samples, 7, group=group, orbit_polytope=hull,
        descriptors=descriptors, n_pairs=5, n_directions=20, hessian_trials=5,
    )
    assert len(keys) == len(set(keys)) == 3 + 5 + (len(descriptors) + 1) + 1
    # equal-length keys with distinct stage tags never name the same stream
    assert all(len(key) == 3 for key in keys)
    tags = (matmodel._HAAR, matmodel._LOCAL_MAX, matmodel._HESSIAN, matmodel._PAIRS)
    assert len(set(tags)) == 4


def test_forced_points_are_exact():
    model = matmodel.make_model("sym", 3)
    x = (2, 0, -2)
    sample = matmodel.sample_orbit(
        model, x, 5, seed=0, forced_cartan_points=[(0, 2, -2)]
    )
    assert sample.n_haar == 5
    assert sample.points.shape[0] == 6
    assert np.array_equal(sample.points[5], np.diag([0.0, 2.0, -2.0]))
    assert np.array_equal(sample.projections[5], [0.0, 2.0, -2.0])


def test_spectrum_preserved_on_orbit():
    for kind, n, x in (("sym", 3, (2, 0, -2)), ("skew", 4, (3, 1)), ("skew", 5, (3, 1))):
        model = matmodel.make_model(kind, n)
        sample = matmodel.sample_orbit(model, x, 300, seed=2)
        scale = math.sqrt(sum(float(c) ** 2 for c in x))
        assert matmodel.spectrum_deviation(sample) <= 1e-9 * scale


def test_kostant_projections_inside_polytope():
    model, rs, group, x, hull, _ = model_context("sym", 3, (2, 0, -2))
    sample = matmodel.sample_orbit(model, x, 500, seed=3)
    record = matmodel.kostant_check(sample, hull)
    scale = math.sqrt(8.0)
    assert record["max_violation"] <= 1e-9 * scale
    assert record["max_facet_violation"] <= 1e-9 * scale
    assert 0.0 <= record["coverage"] <= 1.0
    assert len(record["vertex_distances"]) == len(hull.vertices)


def test_kostant_identity_hook_is_exact():
    model, rs, group, x, hull, _ = model_context("sym", 3, (2, 0, -2))
    sample = matmodel.sample_orbit(
        model, x, 10, seed=1, forced_cartan_points=list(hull.vertices)
    )
    record = matmodel.kostant_check(sample, hull)
    # the forced vertex points sit exactly on the boundary
    assert record["max_facet_violation"] <= 0.0
    # coverage counts only the Haar prefix, which misses every vertex here
    assert record["coverage"] == 0.0


@pytest.mark.parametrize(
    "points",
    [
        [(1, 2, 3)],
        [(0, 0, 0), (2, 2, 0)],
        [(2, 0, -2), (0, 2, -2), (-2, 2, 0), (-2, 0, 2), (0, -2, 2), (2, -2, 0)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    ],
)
def test_membership_pass_matches_a_per_point_reference(points):
    """Stacked facet violations and affine residuals, across a chunk
    boundary, against per-point least squares on the vertex differences."""
    p = poly.hull(points)
    geom = matmodel._float_geometry(p)
    n_probes = matmodel._CHUNK + 7
    probes = np.random.default_rng(5).normal(scale=3.0, size=(n_probes, 3))
    facets, residuals = matmodel._facet_violations(geom, probes)
    vertices = np.array([[float(c) for c in v] for v in p.vertices])
    spans = (vertices[1:] - vertices[0]).T
    for q, facet, residual in zip(probes, facets, residuals):
        rel = q - vertices[0]
        if spans.size:
            rel = rel - spans @ np.linalg.lstsq(spans, rel, rcond=None)[0]
        assert abs(residual - np.linalg.norm(rel)) <= 1e-12 * (1 + np.linalg.norm(q))
        gaps = [
            (sum(float(a) * b for a, b in zip(nu, q)) - float(c0))
            / math.sqrt(sum(float(a) ** 2 for a in nu))
            for nu, c0 in p.facets
        ]
        expected = max(gaps, default=-math.inf)
        assert facet == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_kostant_coverage_monotone_in_sample_size():
    model, rs, group, x, hull, _ = model_context("sym", 3, (2, 0, -2))
    tol = 0.5  # loose tolerance so coverage is visibly nonzero at these sizes
    values = []
    for n in (100, 400, 1600):
        sample = matmodel.sample_orbit(model, x, n, seed=6)
        values.append(
            matmodel.kostant_check(sample, hull, vertex_tol=tol)["coverage"]
        )
    assert values == sorted(values)


def test_diagonals_majorized_by_spectrum():
    model = matmodel.make_model("sym", 3)
    x = (2, 0, -2)
    sample = matmodel.sample_orbit(model, x, 200, seed=9)
    for p in sample.projections:
        assert majorized_by(p, [2.0, 0.0, -2.0], tol=1e-9)


def test_argmax_height_frozen_values():
    model, rs, group, x, hull, _ = model_context("sym", 3, (2, 0, -2))
    sample = matmodel.sample_orbit(
        model, x, 500, seed=42, forced_cartan_points=list(hull.vertices)
    )
    rec = matmodel.argmax_height(sample, (1, 0, -1))
    assert abs(rec["best_value"] - 4.0) < 1e-12
    rec_x = matmodel.argmax_height(sample, x)
    assert abs(rec_x["best_value"] - 8.0) < 1e-12
    rec_zero = matmodel.argmax_height(sample, (0, 0, 0))
    assert rec_zero["best_value"] == 0.0
    assert len(rec_zero["indices"]) == len(sample.points)


def test_argmax_height_skew_sign_convention():
    # heights must use the trace form; a sign slip would put the maximizer
    # at the opposite vertex
    model, rs, group, x, hull, _ = model_context("skew", 4, (3, 1))
    sample = matmodel.sample_orbit(
        model, x, 200, seed=1, forced_cartan_points=list(hull.vertices)
    )
    beta = (1, 0)
    rec = matmodel.argmax_height(sample, beta)
    value, indices = poly.support(hull, metric_covector(rs, beta))
    assert abs(rec["best_value"] - float(value)) < 1e-12


def test_hessian_closed_form_rotation_generator():
    model = matmodel.make_model("sym", 2)
    xi = np.array([[0.0, 1.0], [-1.0, 0.0]])
    closed = matmodel.hessian_closed_form(model, (1, -1), (1, -1), xi)
    assert closed == -8.0
    numeric = matmodel.hessian_fd(model, (1, -1), (1, -1), xi)
    assert abs(closed - numeric) < 1e-6


def test_hessian_closed_form_matches_finite_differences():
    cases = (
        ("sym", 3, (2, 0, -2), (3, 0, -3)),
        ("sym", 3, (1, 1, -2), (2, 0, -2)),
        ("skew", 4, (3, 1), (2, 1)),
        ("skew", 5, (3, 2), (2, 1)),
    )
    for kind, n, x, beta in cases:
        model = matmodel.make_model(kind, n)
        scale = math.sqrt(sum(float(c) ** 2 for c in x)) * math.sqrt(
            sum(float(c) ** 2 for c in beta)
        )
        record = matmodel.hessian_check(model, x, beta, 40, seed=5)
        assert record["max_abs_error"] <= 1e-5 * scale, (kind, n)


def closed_form_by_loop(model, x, beta, xi):
    """The closed-form Hessian along one direction, one root block at a time."""
    rs = model.root_system
    spaces = matmodel._root_spaces(model)
    base = matmodel.embed(model, x)
    weights = spaces.from_coords @ np.array([xi[i, j] for i, j in spaces.pairs])
    total = 0.0
    for lam, block in zip(rs.covectors, spaces.block_slices):
        lam_x = sum(a * b for a, b in zip(lam, x))
        if lam_x:
            xi_lam = np.tensordot(weights[block], spaces.basis_mats[block], axes=1)
            z = base @ xi_lam - xi_lam @ base
            lam_beta = float(sum(a * b for a, b in zip(lam, beta)))
            total -= lam_beta * float(np.sum(z * z)) / float(lam_x)
    return total


@pytest.mark.parametrize(
    "kind, n, x, beta",
    [("sym", 4, (3, 1, -1, -3), (2, 1, -1, -2)), ("skew", 5, (3, 1), (1, -2)),
     ("skew", 7, (3, 2, 0), (2, 2, 1))],
)
def test_stacked_closed_form_matches_the_loop(kind, n, x, beta):
    """All directions at once give the per-direction values bit for bit."""
    model = matmodel.make_model(kind, n)
    spaces = matmodel._root_spaces(model)
    layout = matmodel._direction_layout(spaces, [None] * 30)
    weights = matmodel._direction_weights(spaces, [(n, matmodel._HESSIAN)], layout)
    xis, _ = matmodel._unit_directions(spaces, weights)
    x, beta = tuple(map(Fraction, x)), tuple(map(Fraction, beta))
    stacked = matmodel._closed_forms(model, x, beta, xis)
    assert stacked.tolist() == [closed_form_by_loop(model, x, beta, xi) for xi in xis]


def test_hessian_zero_beta_is_flat():
    model = matmodel.make_model("sym", 3)
    record = matmodel.hessian_check(model, (2, 0, -2), (0, 0, 0), 5)
    assert record["max_abs_error"] == 0.0


def test_local_max_frozen_cases():
    model = matmodel.make_model("sym", 3)
    x = (2, 0, -2)
    same, opposite, flat = matmodel.local_max_test(
        model, [(x, (1, 1, -2), 0), (x, (-2, 0, 2), 0), (x, (0, 0, 0), 0)]
    )
    assert same["chamber"] and same["numeric"] and same["agree"]
    assert not opposite["chamber"]
    assert not opposite["numeric"]
    assert opposite["agree"]
    assert opposite["max_second_derivative"] > opposite["threshold"]
    assert flat["chamber"] and flat["numeric"]
    # a flat set of directions reads 0.0, not -0.0
    assert repr(flat["max_second_derivative"]) == "0.0"


def test_local_max_agreement_sweep():
    rng = random.Random(123)
    for kind, n in (("sym", 3), ("skew", 4)):
        model = matmodel.make_model(kind, n)
        group = generate(model.root_system)
        d = model.root_system.ambient_dim
        pairs = []
        for k in range(15):
            x = [rng.randint(-4, 4) for _ in range(d)]
            beta = [rng.randint(-4, 4) for _ in range(d)]
            if kind == "sym":
                sx, sb = sum(x), sum(beta)
                x = [n * c - sx for c in x]
                beta = [n * c - sb for c in beta]
            if all(c == 0 for c in x):
                x = [1] + [0] * (d - 2) + [-1]
            xd = to_dominant(group, tuple(Fraction(c) for c in x)).vector
            pairs.append((xd, beta, k))
        for pair, rec in zip(pairs, matmodel.local_max_test(model, pairs)):
            assert rec["agree"], (kind, pair, rec)


def verify_pairs(model, seed):
    """The 100 (x, beta, k) pairs of a verify's local-max stage at ``seed``."""
    group = generate(model.root_system)
    rng = matmodel._stream(seed, matmodel._PAIRS)
    pairs = []
    for k in range(100):
        xd = matmodel._dominant_integer_vector(rng, model, group)
        pairs.append((xd, matmodel._random_cartan_vector(rng, model), k))
    return pairs


@pytest.mark.parametrize("seed", [42, 1009])
@pytest.mark.parametrize("kind,n", [("sym", 3), ("sym", 4), ("skew", 5), ("skew", 7)])
def test_commutator_form_matches_finite_differences(monkeypatch, kind, n, seed):
    """On the directions of a verify's pairs, the exact second derivatives
    agree with centered finite differences within 1e-6 * max(1, |x| |beta|),
    and the verdicts match pair by pair."""
    model = matmodel.make_model(kind, n)
    kernel = matmodel._commutator_second_derivatives
    stacks = []

    def recording(bases, beta_mats, xis):
        stacks.append((xis, kernel(bases, beta_mats, xis)))
        return stacks[-1][1]

    monkeypatch.setattr(matmodel, "_commutator_second_derivatives", recording)
    for x, beta, k in verify_pairs(model, seed):
        stacks.clear()
        (record,) = matmodel.local_max_test(model, [(x, beta, k)])
        ((xis, exact),) = stacks
        fd = matmodel._height_curve_second_derivatives(
            matmodel.embed(model, x), matmodel.embed(model, beta), xis, 1e-4
        )
        threshold = record["threshold"]
        assert np.max(np.abs(exact - fd)) <= threshold, (x, beta)
        assert record["max_second_derivative"] == np.max(exact)
        assert (np.max(fd) <= threshold) == record["numeric"], (x, beta)
        assert record["agree"], (x, beta)


def test_ext_face_dim_matches_prediction():
    cases = (
        ("sym", 3, (2, 0, -2)),
        ("sym", 3, (1, 1, -2)),
        ("sym", 4, (3, 1, -1, -3)),
        ("sym", 4, (1, 1, -1, -1)),
        ("skew", 4, (3, 1)),
        ("skew", 4, (1, 1)),
        ("skew", 5, (3, 1)),
        ("skew", 5, (1, 0)),
    )
    for kind, n, x in cases:
        model, rs, group, xd, hull, descriptors = model_context(kind, n, x)
        for d in descriptors:
            result = matmodel.ext_face_dim_check(model, xd, d)
            assert result.numeric_dim == result.predicted_dim, (kind, n, x, d.I)


def test_ext_face_dim_check_validates_input():
    model, rs, group, x, hull, descriptors = model_context("sym", 3, (2, 0, -2))
    other = matmodel.make_model("sym", 4)
    with pytest.raises(ValueError):
        matmodel.ext_face_dim_check(other, (3, 1, -1, -3), descriptors[0])
    with pytest.raises(ValueError):
        matmodel.ext_face_dim_check(model, (0, 2, -2), descriptors[0])
    with pytest.raises(ValueError):
        matmodel.ext_face_dim_check(model, (4, 0, -4), descriptors[0])


def test_verification_report_passes_and_is_deterministic():
    model, rs, group, x, hull, descriptors = model_context("sym", 3, (2, 0, -2))
    kwargs = dict(
        group=group,
        orbit_polytope=hull,
        descriptors=descriptors,
        n_pairs=10,
        hessian_trials=5,
    )
    rep1 = matmodel.verification_report(model, x, 150, 42, **kwargs)
    rep2 = matmodel.verification_report(model, x, 150, 42, **kwargs)
    assert rep1["passed"]
    assert rep1["failed_stages"] == []
    assert [s["name"] for s in rep1["stages"]] == [
        "spectrum",
        "kostant",
        "faces",
        "local-max-agreement",
        "hessian",
    ]
    assert jsonio.dump_report(rep1) == jsonio.dump_report(rep2)


def test_verification_report_catches_corrupted_descriptor():
    import dataclasses

    model, rs, group, x, hull, descriptors = model_context("sym", 3, (2, 0, -2))
    bad = list(descriptors)
    bad[0] = dataclasses.replace(bad[0], beta=tuple(-c for c in bad[0].beta))
    rep = matmodel.verification_report(
        model,
        x,
        100,
        7,
        group=group,
        orbit_polytope=hull,
        descriptors=bad,
        n_pairs=5,
        hessian_trials=3,
    )
    assert not rep["passed"]
    assert "faces" in rep["failed_stages"]


def test_face_distance_factor_reads_the_vertices():
    rs = make_root_system(
        [(1, -1), (0, 1)], [(1, -1), (0, 1), (1, 0), (1, 1)], label="B2"
    )
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert matmodel._face_distance_factor(rs, square, (1, 0)) == 1.0
    assert matmodel._face_distance_factor(rs, square, (1, 1)) == 1.0
    # a thin triangle: the far corner sits sqrt(5) from the apex at deficit 1
    thin = [(0, 0), (2, 0), (0, 1)]
    assert matmodel._face_distance_factor(rs, thin, (0, 1)) == math.sqrt(5)
    assert matmodel._face_distance_factor(rs, thin, (0, 0)) == 0.0


def faces_stage(model, x, hull, group, descriptors, seed):
    rep = matmodel.verification_report(
        model, x, 2000, seed, group=group, orbit_polytope=hull,
        descriptors=descriptors, n_pairs=1, hessian_trials=1,
    )
    return rep["stages"][2]


def test_face_tolerance_is_never_below_the_height_window():
    model, rs, group, x, hull, descriptors = model_context("sym", 3, (1, 1, -2))
    stage = faces_stage(model, x, hull, group, descriptors, 42)
    # the stages run at unit scale: max |x_i| = 2, so they see x / 2
    x_norm = math.sqrt(6.0) / 2
    for d, rec in zip(descriptors, stage["descriptors"], strict=True):
        window = 1e-6 * x_norm * math.sqrt(sum(float(c) ** 2 for c in d.beta))
        assert rec["face_tolerance"] == pytest.approx(
            max(1.0, rec["distance_factor"]) * window + 1e-9 * x_norm, rel=1e-12
        )
        assert rec["face_tolerance"] > window
        assert rec["face_margin"] == rec["max_face_distance"] / rec["face_tolerance"]
    assert max(rec["distance_factor"] for rec in stage["descriptors"]) > 1.0


def test_faces_stage_catches_a_swapped_sigma_vertex():
    import dataclasses

    model, rs, group, x, hull, descriptors = model_context("sym", 3, (2, 0, -2))
    edge = next(k for k, d in enumerate(descriptors) if len(d.sigma_vertices) == 2)
    sigma = descriptors[edge].sigma_vertices
    other = next(v for v in sigma if v != x)
    outside = next(v for v in hull.vertices if v not in sigma)
    bad = list(descriptors)
    bad[edge] = dataclasses.replace(
        bad[edge], sigma_vertices=tuple(outside if v == other else v for v in sigma)
    )
    good = faces_stage(model, x, hull, group, descriptors, 3)
    stage = faces_stage(model, x, hull, group, bad, 3)
    assert good["passed"]
    assert not stage["passed"]
    assert [rec["passed"] for rec in stage["descriptors"]] == [
        k != edge for k in range(len(descriptors))
    ]
    assert stage["descriptors"][edge]["face_margin"] > 1e3


# one model of each kind, with a base point moved by its group
SCALE_MODELS = (("sym", 2, (1, -1)), ("sym", 3, (2, 0, -2)), ("skew", 5, (2, 1)))


def small_report(kind, n, x):
    model, rs, group, xd, hull, descriptors = model_context(kind, n, x)
    return matmodel.verification_report(
        model, xd, 200, 42, group=group, orbit_polytope=hull,
        descriptors=descriptors, n_pairs=2, n_directions=10, hessian_trials=5,
    )


@pytest.mark.parametrize("k", [-400, -150, -120, 0, 120, 400])
@pytest.mark.parametrize(("kind", "n", "base"), SCALE_MODELS)
def test_models_pass_at_every_scale(kind, n, base, k):
    x = tuple(Fraction(10) ** k * c for c in base)
    rep = small_report(kind, n, x)
    assert rep["passed"], rep["failed_stages"]
    e = rep["scale_exponent"]
    assert Fraction(2) ** e <= max(abs(Fraction(c)) for c in rep["x"]) < Fraction(2) ** (e + 1)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(st.sampled_from(SCALE_MODELS), st.data())
def test_stages_do_not_see_a_power_of_two_scale(spec, data):
    kind, n, _ = spec
    dim = matmodel.make_model(kind, n).root_system.ambient_dim
    raw = data.draw(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim))
    if kind == "sym":
        raw = [n * c - sum(raw) for c in raw]
    assume(any(raw))
    rep = small_report(kind, n, raw)
    for k in (-1100, -1, 1, 1100):
        scaled = small_report(kind, n, [Fraction(2) ** k * c for c in raw])
        assert scaled["scale_exponent"] == rep["scale_exponent"] + k
        assert scaled["stages"] == rep["stages"]
