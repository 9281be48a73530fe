"""Command-line interface: subcommands, formats, exit codes."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import orbitope_lab
from orbitope_lab import polytope as poly
from orbitope_lab.cli import main


def run_json(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, json.loads(out)


def test_describe_normalizes_to_dominant(capsys):
    status, report = run_json(
        capsys, ["describe", "--system", "a2", "--x", "0,2,-2"]
    )
    assert status == 0
    assert report["schema"] == "orbitope-lab/1"
    assert report["command"] == "describe"
    assert report["x_dominant"] == ["2", "0", "-2"]
    assert report["wall_set"] == []
    assert report["x_connected_subset_count"] == 4
    assert report["system"]["weyl_order"] == 6
    assert report["orbit_size"] == 6


def test_describe_wall_set(capsys):
    status, report = run_json(capsys, ["describe", "--system", "B2", "--x", "1,1"])
    assert status == 0
    assert report["wall_set"] == [1]


def test_describe_a1_order(capsys):
    status, report = run_json(capsys, ["describe", "--system", "A1", "--x", "1,-1"])
    assert status == 0
    assert report["system"]["weyl_order"] == 2


def test_weight_coordinates(capsys):
    status, report = run_json(
        capsys,
        ["describe", "--system", "g2", "--coords", "weights", "--x", "1,1"],
    )
    assert status == 0
    assert report["x_dominant"] == ["-1", "-2", "3"]
    assert report["wall_set"] == []


def test_polytope_counts(capsys):
    status, report = run_json(capsys, ["polytope", "--system", "a2", "--x", "2,0,-2"])
    assert status == 0
    assert report["dim"] == 2
    assert report["vertex_count"] == 6
    assert report["facet_count"] == 6
    assert report["face_count"] == 13
    assert report["faces_by_dim"] == {"0": 6, "1": 6, "2": 1}
    assert len(report["face_orbits"]) == 3
    assert len(report["vertices"]) == 6


def test_polytope_builds_the_face_lattice_once(capsys, monkeypatch):
    lattices = []
    face_lattice = poly.face_lattice

    def counted(*args, **kwargs):
        lattices.append(face_lattice(*args, **kwargs))
        return lattices[-1]

    monkeypatch.setattr(poly, "face_lattice", counted)
    status, report = run_json(capsys, ["polytope", "--system", "b3", "--x", "3,2,1"])
    assert status == 0
    assert len(lattices) == 1
    faces = lattices[0]
    assert report["face_count"] == len(faces) == 147
    by_dim = {}
    for face in faces:
        by_dim[str(face.dim)] = by_dim.get(str(face.dim), 0) + 1
    assert report["faces_by_dim"] == by_dim == {"0": 48, "1": 72, "2": 26, "3": 1}


# A1 in a plane whose Gram matrix couples the second axis to the root:
# the root vanishes on (1, -1), which is not a coordinate axis.
COUPLED_A1 = """ambient 2
gram 1 1 1 2
simple 1 0
root 1 0
"""


@pytest.mark.parametrize(
    "system, x",
    [("a2", "1,1,1"), ("a2", "0,0,0"), (COUPLED_A1, "1,-1")],
)
def test_points_every_root_vanishes_on(capsys, system, x):
    for command in ("polytope", "classify", "verify"):
        err = error_message(capsys, [command, "--system", system, "--x", x])
        assert "every root vanishes on x" in err
    status, report = run_json(capsys, ["describe", "--system", system, "--x", x])
    assert status == 0
    assert report["orbit_size"] == 1
    assert len(report["wall_set"]) == report["system"]["rank"]


def test_classify_counts(capsys):
    for x, expected in (("2,0,-2", 3), ("1,1,-2", 2)):
        status, report = run_json(capsys, ["classify", "--system", "a2", "--x", x])
        assert status == 0
        assert report["stratum_count"] == expected
        assert len(report["descriptors"]) == expected
    status, report = run_json(capsys, ["classify", "--system", "a1", "--x", "1,-1"])
    assert report["stratum_count"] == 1
    record = report["descriptors"][0]
    assert record["I"] == []
    assert record["beta"] == ["1/2", "-1/2"]


def test_verify_without_model(capsys):
    status, report = run_json(capsys, ["verify", "--system", "g2", "--x=-1,-2,3"])
    assert status == 0
    assert report["passed"] is True
    assert report["first_counterexample"] is None
    assert [s["name"] for s in report["stages"]] == ["bijection"]


def test_verify_with_model(capsys):
    status, report = run_json(
        capsys,
        ["verify", "--model", "sym3", "--x", "2,0,-2", "--n-samples", "150"],
    )
    assert status == 0
    assert report["passed"] is True
    names = [s["name"] for s in report["stages"]]
    assert names == ["bijection", "model"]
    model_stage = report["stages"][1]
    assert model_stage["report"]["passed"] is True


def test_verify_normalizes_x(capsys):
    # a W-moved x is verified at its dominant representative
    _, report = run_json(capsys, ["verify", "--system", "a2", "--x", "2,0,-2"])
    status, moved = run_json(capsys, ["verify", "--system", "a2", "--x", "0,2,-2"])
    assert status == 0
    assert moved["x_dominant"] == report["x_dominant"] == ["2", "0", "-2"]
    assert moved["stages"] == report["stages"]
    assert moved["stages"][0]["descriptor_count"] == 3


def test_model_selector_is_case_insensitive(capsys):
    argv = ["describe", "--x", "2,0,-2"]
    _, report = run_json(capsys, argv + ["--model", "sym3"])
    status, upper = run_json(capsys, argv + ["--model", "SYM3"])
    assert status == 0
    assert upper == report


def test_verify_corrupt_descriptor_fails(capsys):
    status, report = run_json(
        capsys,
        [
            "verify",
            "--system",
            "a2",
            "--x",
            "2,0,-2",
            "--corrupt-descriptor",
            "1",
        ],
    )
    assert status == 1
    assert report["passed"] is False
    assert report["first_counterexample"]["kind"] == "witness-mismatch"
    kinds = {c["kind"] for c in report["stages"][0]["counterexamples"]}
    assert "witness-mismatch" in kinds


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    argv = [
        "verify",
        "--model",
        "skew4",
        "--x",
        "3,1",
        "--n-samples",
        "120",
        "--seed",
        "9",
    ]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    status = main(
        ["describe", "--system", "a2", "--x", "2,0,-2", "--out", str(target)]
    )
    capsys.readouterr()
    assert status == 0
    report = json.loads(target.read_text())
    assert report["command"] == "describe"


def test_table_format(capsys):
    status = main(
        ["verify", "--system", "a2", "--x", "2,0,-2", "--format", "table"]
    )
    out = capsys.readouterr().out
    assert status == 0
    assert "passed: yes" in out
    assert "schema: orbitope-lab/1" in out


def error_message(capsys, argv):
    status = main(argv)
    err = capsys.readouterr().err
    assert status == 1
    assert err.startswith("error:")
    return err


def test_domain_errors(capsys):
    error_message(capsys, ["classify", "--system", "a2", "--x", "1,2"])
    error_message(capsys, ["classify", "--system", "a2", "--x", "0,0,0"])
    error_message(capsys, ["classify", "--x", "1,0,-1"])
    error_message(capsys, ["verify", "--model", "sym9x", "--x", "1"])
    error_message(capsys, ["verify", "--model", "skew2", "--x", "1"])
    error_message(
        capsys, ["classify", "--model", "sym3", "--system", "a2", "--x", "1,0,-1"]
    )
    error_message(capsys, ["describe", "--system", "a2"])
    error_message(capsys, ["describe", "--system", "a2", "--x", "1,,2"])
    error_message(capsys, ["describe", "--system", "nosuch9", "--x", "1"])
    error_message(
        capsys,
        [
            "verify",
            "--system",
            "a2",
            "--x",
            "2,0,-2",
            "--corrupt-descriptor",
            "99",
        ],
    )
    error_message(
        capsys,
        ["describe", "--system", "a2", "--coords", "weights", "--x", "1,2,3"],
    )


def run_python(*argv):
    """Run a fresh interpreter where this process finds the package."""
    src = os.path.dirname(os.path.dirname(orbitope_lab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def run_module(*argv):
    """Run ``python -m orbitope_lab`` where this process finds the package."""
    return run_python("-m", "orbitope_lab", *argv)


NUMPY_GUARD = """
import os, sys
from orbitope_lab.cli import main

for argv in (
    ["describe", "--system", "a2", "--x", "0,2,-2"],
    ["polytope", "--system", "B3", "--x", "3,2,1"],
    ["classify", "--system", "b2", "--x", "2,1"],
    ["verify", "--system", "B3", "--coords", "weights", "--x", "1,1,1"],
):
    assert main(argv + ["--out", os.devnull]) == 0, argv
assert "numpy" not in sys.modules
argv = ["verify", "--model", "sym2", "--x", "1,-1", "--n-samples", "200"]
assert main(argv + ["--out", os.devnull]) == 0
assert "numpy" in sys.modules
"""


def test_only_the_numeric_path_loads_numpy():
    proc = run_python("-c", NUMPY_GUARD)
    assert proc.returncode == 0, proc.stderr


def test_malformed_system_text_is_a_clean_error(capsys):
    proc = run_module("describe", "--system", "ambient\nsimple 1", "--x", "1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: root system text, line 1: ")
    assert "Traceback" not in proc.stderr
    err = error_message(
        capsys, ["describe", "--system", "ambient 1\ncentralizer\nsimple 1", "--x", "1"]
    )
    assert err.startswith("error: root system text, line 2: ")


def test_group_past_the_order_cap_is_a_clean_error():
    # |W(A9)| = 10! is refused while the order is walked
    proc = run_module("describe", "--system", "A9", "--x", "1,0,0,0,0,0,0,0,0,-1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: group order exceeds the cap of 51840; ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_bad_paths_are_clean_errors(capsys, tmp_path):
    error_message(capsys, ["verify", "--system", str(tmp_path), "--x", "1,1"])
    missing = tmp_path / "no" / "such" / "dir" / "r.json"
    error_message(
        capsys,
        ["describe", "--system", "A2", "--x", "1,0,-1", "--out", str(missing)],
    )
    assert not missing.exists()


def test_face_budget_flag(capsys):
    status = main(
        ["polytope", "--system", "b3", "--x", "3,2,1", "--face-budget", "10"]
    )
    err = capsys.readouterr().err
    assert status == 1
    assert "budget" in err


def test_hull_face_budget_is_a_clean_error(capsys):
    # A4 at a regular point has 30 facets; the hull stops past 20
    err = error_message(
        capsys,
        ["verify", "--system", "a4", "--coords", "weights", "--x", "1,1,1,1",
         "--face-budget", "20"],
    )
    assert err == "error: face budget of 20 exceeded\n"


def test_root_system_size_cap_is_a_clean_error(capsys):
    # A60 has 1830 positive roots; the build stops before constructing them
    err = error_message(capsys, ["describe", "--system", "A60", "--x", "1"])
    assert err == "error: root system A60 has 1830 positive roots, past the cap of 64\n"


def test_lattice_face_budget_is_a_clean_error(capsys):
    # B3 at a regular point has 26 facets and 147 faces
    err = error_message(
        capsys, ["verify", "--system", "B3", "--x", "3,2,1", "--face-budget", "100"]
    )
    assert err == "error: face budget of 100 exceeded\n"


@pytest.mark.parametrize("command", ["polytope", "verify"])
def test_face_budget_counts_every_face_under_the_letters(capsys, command):
    # the hull wraps one facet per orbit and closes the faces under the
    # letters; regular B3 still counts 147 faces, the polytope included
    argv = [command, "--system", "B3", "--x", "3,2,1", "--face-budget"]
    err = error_message(capsys, argv + ["146"])
    assert err == "error: face budget of 146 exceeded\n"
    status, report = run_json(capsys, argv + ["147"])
    assert status == 0
    if command == "polytope":
        assert report["face_count"] == 147


def test_negative_seed_is_a_clean_error(capsys):
    err = error_message(
        capsys, ["verify", "--model", "sym2", "--x", "1,-1", "--seed", "-1"]
    )
    assert "--seed" in err and "-1" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--face-budget", "-3"), ("--face-budget", "0"), ("--n-samples", "0")],
)
def test_nonpositive_counts_are_clean_errors(capsys, flag, value):
    err = error_message(
        capsys, ["verify", "--model", "sym2", "--x", "1,-1", flag, value]
    )
    assert err == f"error: {flag} must be a positive integer, got {value}\n"


def assert_model_passes(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert json.loads(captured.out)["stages"][1]["report"]["failed_stages"] == []


# The stages run at unit scale, so an x far outside the float range passes
# like any other; these x were once refused with a float-range error.
@pytest.mark.parametrize(
    "model, x",
    [("sym2", "1e400,-1e400"), ("sym3", "1e200,0,-1e200"), ("skew5", "1e400,-1e400")],
)
def test_model_x_out_of_float_range_is_a_clean_error(capsys, model, x):
    assert_model_passes(capsys, ["verify", "--model", model, "--x", x])


@pytest.mark.parametrize(
    "model, x", [("sym2", "1e150,-1e150"), ("skew5", "2e105,1e105")]
)
def test_model_x_overflowing_a_stage_is_a_clean_error(capsys, model, x):
    # x itself is a float, but at this scale the Hessian stage's values
    # would overflow
    assert_model_passes(
        capsys, ["verify", "--model", model, "--x", x, "--n-samples", "200"]
    )


@pytest.mark.parametrize(
    "model, x",
    [("sym2", "1e-400,-1e-400"), ("sym3", "2e-170,0,-2e-170"), ("skew5", "2e-200,1e-200")],
)
def test_model_x_underflowing_is_a_clean_error(capsys, model, x):
    # at this scale the float norm of x would be zero
    assert_model_passes(
        capsys, ["verify", "--model", model, "--x", x, "--n-samples", "200"]
    )


def test_model_x_at_1e_minus_120_passes_the_hessian_stage(capsys):
    # at this scale lambda(x) |[x, xi]|^2 underflowed in the closed form
    assert_model_passes(capsys, ["verify", "--model", "sym2", "--x", "1e-120,-1e-120"])


def test_oversized_skew_model_is_refused_before_it_is_built(capsys):
    # skew100000 would have 2,499,950,000 roots of (e_i +- e_j) / 2
    err = error_message(capsys, ["verify", "--model", "skew100000", "--x", "1"])
    assert err == (
        "error: root system skew100000 has 2499950000 positive roots, "
        "past the cap of 64\n"
    )


def test_one_process_runs_a_corrupt_verify_then_a_clean_one(capsys):
    # the parser is built once per process: no flag of one call carries over
    argv = ["verify", "--system", "A2", "--coords", "weights", "--x", "1,1"]
    assert main(argv + ["--corrupt-descriptor", "0"]) == 1
    capsys.readouterr()
    status, report = run_json(capsys, argv)
    assert status == 0
    assert report["passed"]
    assert report["first_counterexample"] is None


@pytest.mark.parametrize("label", ["a4", "d4"])
def test_verify_at_a_regular_rank4_point(capsys, label):
    status, report = run_json(
        capsys, ["verify", "--system", label, "--coords", "weights", "--x", "1,1,1,1"]
    )
    assert status == 0
    assert report["passed"]
    assert report["stages"][0]["face_orbit_count"] == 15


def test_module_entry_point():
    proc = run_module("describe", "--system", "a1", "--x", "1,-1")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["system"]["weyl_order"] == 2


def model_verify(capsys, extra):
    argv = ["verify", "--model", "sym3", "--x", "1,1,-2", "--n-samples", "10000"]
    return run_json(capsys, argv + extra)


def test_verify_sym3_edge_face_passes_at_seed_42(capsys):
    """The face tolerance allows for the edge's distance factor of sqrt(2)."""
    status, report = model_verify(capsys, ["--seed", "42"])
    assert status == 0
    faces = report["stages"][1]["report"]["stages"][2]
    assert faces["passed"]
    edge = next(rec for rec in faces["descriptors"] if rec["I"] == [2])
    assert edge["distance_factor"] == pytest.approx(2**0.5, rel=1e-12)
    # at unit scale, |x| = sqrt(6)/2 and |beta| = sqrt(6)/3: beyond the
    # height window 1e-6 |x| |beta| = 1e-6 that used to be the tolerance
    assert edge["max_face_distance"] > 1e-6
    assert edge["face_margin"] < 1.0


def test_verify_model_corrupt_descriptor_fails_the_faces_stage(capsys):
    status, report = model_verify(capsys, ["--seed", "42", "--corrupt-descriptor", "0"])
    assert status == 1
    numeric = report["stages"][1]["report"]
    assert "faces" in numeric["failed_stages"]
    assert not numeric["stages"][2]["descriptors"][0]["passed"]


# sha256 of a handful of exact reports, so that the suite checks that they
# stay byte-identical; a change to one of them is a named report change.
# Model reports are left out: their floats depend on the BLAS build.
GOLDEN_REPORTS = (
    ("verify --system B3 --coords weights --x 1,1,1", 0,
     "56315611cc9a61f6292cadad6891f001028ad6fa87d2ef9168af0b9aae3308a7"),
    # not full-dimensional: the orbit spans a hyperplane of R^4
    ("verify --system A3 --coords weights --x 1,1,1", 0,
     "f32ef664122c94912521668ad9b5f4d564020d8a73ba6617b5ffe4ec2dfdc97c"),
    ("verify --system F4 --coords weights --x 1,0,0,0", 0,
     "b5eddd79562aebfe49c40b81220ce2975b959c9172479014822ed2a676841324"),
    ("verify --system G2 --coords weights --x 1,1", 0,
     "0b858418fd949acacb5288ba6cc6f8d1f30244e0c2cabbd57de35157b833f938"),
    ("verify --system C3 --coords weights --x 2,0,0 --corrupt-descriptor 0", 1,
     "d541231feae65f1e84f35d4fc38490a2ac203b54249257f8a692d5c9481fbea0"),
    ("polytope --system A3 --coords weights --x 1,1,1", 0,
     "e6fa373010cb8e252d41748d3bf511fc65922b123b9992223f1d42799eb85d3f"),
    # regular B4: |W| = 384 and 384 vertices
    ("verify --system B4 --coords weights --x 1,1,1,1", 0,
     "edd15bce7defb01ff527f045668464f55ce34defc167360f7a16773ce135c087"),
    ("polytope --system D4 --coords weights --x 1,1,0,1", 0,
     "269825ceba4c7510abee2eb570411083121cee8a3191bf3c28447b06b8d1e6ec"),
)


@pytest.mark.parametrize(("argv", "status", "digest"), GOLDEN_REPORTS)
def test_exact_reports_are_byte_identical(capsys, argv, status, digest):
    assert main(argv.split()) == status
    captured = capsys.readouterr()
    assert captured.err == ""
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest
