"""Acceptance gate: one test per criterion, one printed verdict line each.

Each test prints ``[criterion N] PASS/FAIL <detail>`` before asserting, so
a failing run still shows every verdict in the captured output.  Criterion
4 also has a negative control: a sampler that misses vertices must fail
it.  Expensive artifacts (hulls, face lattices, groups) are cached at
module level and shared across criteria.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
from scipy.stats import gamma, special_ortho_group

from oracles import (
    dominant_with_walls,
    matrix_group,
    share_chamber_by_enumeration,
    sym_vertex_mass,
)
from orbitope_lab import facelab, matmodel
from orbitope_lab import polytope as poly
from orbitope_lab.cli import main
from orbitope_lab.rootsys import (
    build_root_system,
    metric_covector,
    share_closed_chamber,
)
from orbitope_lab.weyl import generate, orbit, to_dominant

SYSTEMS = ("A1", "A2", "A3", "B2", "B3", "C3", "BC2", "D3", "G2")

_SYSTEMS = {}
_HULLS = {}
_LATTICES = {}


def system(label):
    if label not in _SYSTEMS:
        rs = build_root_system(label)
        _SYSTEMS[label] = (rs, generate(rs))
    return _SYSTEMS[label]


def hull_for(label, x):
    key = (label, x)
    if key not in _HULLS:
        rs, group = system(label)
        points = orbit(group, x)
        letters = poly.vertex_permutations(points, group)
        _HULLS[key] = poly.hull(points, letters=letters)
    return _HULLS[key]


def lattice_for(label, x):
    key = (label, x)
    if key not in _LATTICES:
        _LATTICES[key] = poly.face_lattice(hull_for(label, x))
    return _LATTICES[key]


def bijection_cases():
    """(label, x) pairs: one regular and one per wall subset per system."""
    cases = []
    for label in SYSTEMS:
        rs, _ = system(label)
        subsets = sorted(
            (frozenset(i for i in range(rs.rank) if mask >> i & 1) for mask in range(1 << rs.rank)),
            key=lambda s: (len(s), tuple(sorted(s))),
        )
        for subset in subsets:
            rep = dominant_with_walls(rs, subset)
            if rep is None:
                continue
            cases.append((label, rep))
    return cases


def verdict(number, ok, detail):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_1_face_orbit_bijection():
    start = time.monotonic()
    cases = bijection_cases()
    failures = []
    for label, x in cases:
        rs, group = system(label)
        descriptors = facelab.classify_faces(rs, group, x)
        p = hull_for(label, x)
        report = facelab.verify_bijection(rs, p, descriptors)
        if not report.passed:
            failures.append((label, x, report.counterexamples[:1]))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    verdict(
        1,
        ok,
        f"{len(cases)} (system, x) cases, {len(failures)} failures, "
        f"{elapsed:.1f}s",
    )
    assert not failures, failures
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"


def test_criterion_2_all_faces_exposed_by_normal_sums():
    cases = bijection_cases()
    checked = 0
    failures = []
    for label, x in cases:
        p = hull_for(label, x)
        tight_sets = []
        for nu, c in p.facets:
            tight = frozenset(
                i
                for i, v in enumerate(p.vertices)
                if sum(a * b for a, b in zip(nu, v)) == c
            )
            tight_sets.append((nu, tight))
        for face in lattice_for(label, x):
            members = frozenset(face.vertex_indices)
            beta = [Fraction(0)] * p.ambient_dim
            for nu, tight in tight_sets:
                if members <= tight:
                    beta = [bc + nc for bc, nc in zip(beta, nu)]
            exposed = poly.exposed_face(p, beta)
            checked += 1
            if exposed.vertex_indices != face.vertex_indices:
                failures.append((label, x, face.vertex_indices))
    ok = not failures
    verdict(2, ok, f"{checked} faces across {len(cases)} polytopes, {len(failures)} failures")
    assert not failures, failures[:3]


def test_criterion_3_chamber_predicate_matches_enumeration():
    rng = random.Random(20260817)
    disagreements = []
    total = 0
    for label in SYSTEMS:
        rs, _ = system(label)
        group = matrix_group(rs)
        d = rs.ambient_dim
        for _ in range(1000):
            x = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(d)
            )
            y = tuple(
                Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(d)
            )
            total += 1
            if share_closed_chamber(rs, x, y) != share_chamber_by_enumeration(
                group, x, y
            ):
                disagreements.append((label, x, y))
    ok = not disagreements
    verdict(3, ok, f"{total} pairs across {len(SYSTEMS)} systems, {len(disagreements)} disagreements")
    assert not disagreements, disagreements[:3]


# Criterion 4 draws N Haar samples per seed for the symmetric model at two
# regular points.  Near a vertex the projection of w e^A is the vertex plus
# a displacement quadratic in A's k = n(n-1)/2 coordinates, so one draw
# lands within d of a given vertex with chance c d^(k/2) (c from
# oracles.sym_vertex_mass).  At d = 1e-3 |x| that chance makes the median
# vertex wait ~1e5 draws (sym3) and ~5e9 draws (sym4), so coverage is
# checked at the radius N draws reach instead:
#   (i)  on every seed, every vertex's nearest approach is within
#        r = (ln(|V| S / DELTA) / (N c))^(2/k);
#   (ii) the mean of N c d^(k/2) over vertices and seeds, each term Exp(1)
#        in the small-d limit, lies in the two-sided DELTA band of
#        Gamma(|V| S) / (|V| S).
# DELTA bounds, per model, the chance that a correct sampler fails (i),
# and likewise (ii).  The quadratic model undercounts the mass at these radii
# (by 3 % at d = 0.1 for sym3, 22 % at d = 1.0 for sym4), which makes r
# conservative.
COVERAGE_CASES = ((3, (2, 0, -2)), (4, (3, 1, -1, -3)))
COVERAGE_DRAWS = 10_000
COVERAGE_SEEDS = (42, 43)
COVERAGE_DELTA = 1e-6


def coverage_radius(mass, n_vertices):
    events = n_vertices * len(COVERAGE_SEEDS)
    return (
        math.log(events / COVERAGE_DELTA) / (COVERAGE_DRAWS * mass.c)
    ) ** (2 / mass.k)


def waiting_time_band(n_vertices):
    m = n_vertices * len(COVERAGE_SEEDS)
    return tuple(
        gamma.ppf(q, m) / m for q in (COVERAGE_DELTA / 2, 1 - COVERAGE_DELTA / 2)
    )


def haar_sample(model, x, seed):
    return matmodel.sample_orbit(model, x, COVERAGE_DRAWS, seed=seed)


def kostant_coverage(n, x, draw):
    """Criterion 4 data for the n x n symmetric model at x.

    ``draw(model, x, seed)`` returns the OrbitSample for one seed.  Gives
    the hull, the vertex mass, the coverage radius r and one kostant_check
    record per seed, taken at vertex tolerance r.
    """
    model = matmodel.make_model("sym", n)
    hull = hull_for(f"A{n - 1}", x)
    mass = sym_vertex_mass(x)
    radius = coverage_radius(mass, len(hull.vertices))
    records = [
        matmodel.kostant_check(draw(model, x, seed), hull, vertex_tol=radius)
        for seed in COVERAGE_SEEDS
    ]
    return hull, mass, radius, records


def test_criterion_4_kostant_convexity_and_coverage():
    start = time.monotonic()
    violation_ok = True
    coverage_ok = True
    details = []
    for n, x in COVERAGE_CASES:
        scale = math.sqrt(sum(c * c for c in x))
        hull, mass, radius, records = kostant_coverage(n, x, haar_sample)
        waits = []
        for seed, record in zip(COVERAGE_SEEDS, records):
            violation_ok &= record["max_violation"] <= 1e-9 * scale
            coverage_ok &= record["coverage"] == 1.0
            waits += [
                COVERAGE_DRAWS * mass.c * d ** (mass.k / 2)
                for d in record["vertex_distances"]
            ]
            details.append(
                f"sym{n} seed {seed}: violation {record['max_violation']:.1e}, "
                f"farthest vertex's nearest approach "
                f"{max(record['vertex_distances']):.3f} (r {radius:.3f})"
            )
        low, high = waiting_time_band(len(hull.vertices))
        mean = sum(waits) / len(waits)
        coverage_ok &= low <= mean <= high
        needed = math.log(2) / (mass.c * (1e-3 * scale) ** (mass.k / 2))
        details.append(
            f"sym{n}: mean N c d^(k/2) {mean:.2f} in [{low:.2f}, {high:.2f}], "
            f"1e-3 |x| needs N ~ {needed:.1e} at the median vertex"
        )
    elapsed = time.monotonic() - start
    ok = violation_ok and coverage_ok and elapsed < 30.0
    verdict(4, ok, "; ".join(details) + f"; {elapsed:.1f}s")
    assert violation_ok, "facet violations exceeded 1e-9 * |x|: " + "; ".join(details)
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"
    assert coverage_ok, "vertex coverage failed at N = 10^4: " + "; ".join(details)


def fixed_e1_sample(model, x, seed):
    """Haar draws from the SO(n-1) that fixes e_1: a sampler that misses vertices."""
    n = model.n
    g = np.zeros((COVERAGE_DRAWS, n, n))
    g[:, 0, 0] = 1.0
    g[:, 1:, 1:] = special_ortho_group.rvs(
        n - 1, size=COVERAGE_DRAWS, random_state=seed
    )
    base = matmodel.embed(model, x)
    points = g @ base @ g.transpose(0, 2, 1)
    return matmodel.OrbitSample(
        model=model,
        x_cartan=tuple(Fraction(c) for c in x),
        base_point=base,
        projections=matmodel.project(model, points),
        seed=seed,
        n_haar=COVERAGE_DRAWS,
        forced=(),
        max_deviation=math.nan,  # kostant_check reads only the projections
    )


def test_criterion_4_coverage_rejects_sampler_fixing_e1():
    # The control's projections keep x_1 as their first coordinate, so they
    # stay inside the polytope but never come near a vertex whose first
    # coordinate differs (those are at distance >= 2 > r).
    for n, x in COVERAGE_CASES:
        scale = math.sqrt(sum(c * c for c in x))
        hull, _, radius, records = kostant_coverage(n, x, fixed_e1_sample)
        unreachable = {v for v in hull.vertices if v[0] != x[0]}
        assert len(unreachable) == len(hull.vertices) - math.factorial(n - 1)
        for seed, record in zip(COVERAGE_SEEDS, records):
            assert record["max_violation"] <= 1e-9 * scale
            missed = {
                v
                for v, d in zip(hull.vertices, record["vertex_distances"])
                if d > radius
            }
            assert missed == unreachable, (n, seed, len(missed))


def test_criterion_5_local_max_agreement():
    model = matmodel.make_model("sym", 3)
    group = generate(model.root_system)
    rng = random.Random(515151)
    pairs = []
    for k in range(100):
        x = [rng.randint(-4, 4) for _ in range(3)]
        beta = [rng.randint(-4, 4) for _ in range(3)]
        sx, sb = sum(x), sum(beta)
        x = [3 * c - sx for c in x]
        beta = [3 * c - sb for c in beta]
        if all(c == 0 for c in x):
            x = [1, 0, -1]
        xd = to_dominant(group, tuple(Fraction(c) for c in x)).vector
        pairs.append((xd, beta, k))
    records = matmodel.local_max_test(model, pairs)
    disagreements = [
        (xd, beta, record)
        for (xd, beta, _), record in zip(pairs, records)
        if not record["agree"]
    ]
    ok = not disagreements
    verdict(5, ok, f"100 pairs, {100 - len(disagreements)}/100 agree")
    assert not disagreements, disagreements[:2]


def test_criterion_6_hessian_formula():
    sym2 = matmodel.make_model("sym", 2)
    xi = np.array([[0.0, 1.0], [-1.0, 0.0]])
    closed = matmodel.hessian_closed_form(sym2, (1, -1), (1, -1), xi)
    fd = matmodel.hessian_fd(sym2, (1, -1), (1, -1), xi)
    closed_ok = abs(closed + 8.0) <= 1e-6
    fd_ok = abs(fd + 8.0) <= 1e-6
    sym3 = matmodel.make_model("sym", 3)
    x, beta = (2, 0, -2), (3, 0, -3)
    scale = math.sqrt(8.0) * math.sqrt(18.0)
    record = matmodel.hessian_check(sym3, x, beta, 100, seed=0)
    sweep_ok = record["max_abs_error"] <= 1e-5 * scale
    ok = closed_ok and fd_ok and sweep_ok
    verdict(
        6,
        ok,
        f"closed form {closed}, finite difference {fd:.9f}, "
        f"sweep max error {record['max_abs_error']:.2e} <= {1e-5 * scale:.2e}",
    )
    assert closed_ok and fd_ok and sweep_ok


def test_criterion_7_extreme_orbit_dimensions():
    cases = []
    for n in (3, 4):
        rs = matmodel.make_model("sym", n).root_system
        for mask in range(1 << rs.rank):
            subset = frozenset(i for i in range(rs.rank) if mask >> i & 1)
            if subset == frozenset(range(rs.rank)):
                continue  # the full wall set has no traceless representative
            rep = dominant_with_walls(rs, subset)
            cases.append((n, rep))
    mismatches = []
    checked = 0
    for n, x in cases:
        model = matmodel.make_model("sym", n)
        rs = model.root_system
        group = generate(rs)
        for d in facelab.classify_faces(rs, group, x):
            result = matmodel.ext_face_dim_check(model, x, d)
            checked += 1
            if result.numeric_dim != result.predicted_dim:
                mismatches.append((n, x, sorted(d.I), result))
    ok = not mismatches
    verdict(
        7,
        ok,
        f"{checked} descriptors across {len(cases)} base points, "
        f"{len(mismatches)} mismatches",
    )
    assert not mismatches, mismatches


def test_criterion_8_max_locus_prediction():
    model = matmodel.make_model("sym", 3)
    rs = model.root_system
    group = generate(rs)
    x = (2, 0, -2)
    hull = poly.hull(orbit(group, x))
    descriptors = facelab.classify_faces(rs, group, x)
    sample = matmodel.sample_orbit(
        model, x, 10000, seed=42, forced_cartan_points=list(hull.vertices)
    )
    x_norm = math.sqrt(8.0)
    failures = []
    for d in descriptors:
        beta_norm = math.sqrt(sum(float(c) ** 2 for c in d.beta))
        tol = 1e-6 * x_norm * beta_norm
        record = matmodel.argmax_height(sample, d.beta)
        sub = poly.hull([tuple(v) for v in d.sigma_vertices])
        geom = matmodel._float_geometry(sub)
        worst = float(matmodel._distances_to(sub, geom, record["projections"]).max())
        if worst > tol:
            failures.append((sorted(d.I), worst, tol))
    ok = not failures
    verdict(
        8,
        ok,
        f"{len(descriptors)} descriptors at N=10000, "
        f"{len(failures)} outside tolerance",
    )
    assert not failures, failures


def test_criterion_9_deterministic_reports(tmp_path):
    configs = (
        ["verify", "--model", "sym3", "--x", "2,0,-2", "--n-samples", "10000", "--seed", "42"],
        ["verify", "--system", "g2", "--x=-1,-2,3"],
    )
    identical = True
    for i, argv in enumerate(configs):
        a = tmp_path / f"run{i}a.json"
        b = tmp_path / f"run{i}b.json"
        status_a = main(argv + ["--out", str(a)])
        status_b = main(argv + ["--out", str(b)])
        if a.read_bytes() != b.read_bytes() or status_a != status_b:
            identical = False
    verdict(9, identical, f"{len(configs)} configs, reruns byte-identical: {identical}")
    assert identical
