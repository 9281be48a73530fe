"""What the verify benchmark's layer trace needs from the program.

``verifybench/tracer.py`` wraps the functions named in its ``LAYERS``
table, in every ``orbitope_lab`` module namespace, and binds some of
their parameters by name to count work.  These tests read that table
(the file itself is left as it is) and check that every name resolves,
that the bound parameters exist, and that a traced verify makes one call
per verify to the stages the benchmark counts.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "verifybench"
SRC = ROOT / "src"


def load_layers():
    spec = importlib.util.spec_from_file_location(
        "verifybench_tracer", BENCH / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_layer_resolves():
    layers = load_layers()
    assert len(layers) == 24
    for module, function in layers:
        target = getattr(importlib.import_module(f"orbitope_lab.{module}"), function)
        assert callable(target), f"{module}.{function}"


def test_bound_parameter_names_exist():
    from orbitope_lab import matmodel
    from orbitope_lab import polytope as poly

    assert "points" in inspect.signature(poly.hull).parameters
    assert "n_directions" in inspect.signature(matmodel.local_max_test).parameters
    assert "trials" in inspect.signature(matmodel.hessian_check).parameters


TRACED_RUN = """
import json, os, sys, traceback
sys.path[:0] = [{src!r}, {bench!r}]
import orbitope_lab
from orbitope_lab import cli, matmodel
from tracer import Tracer

loaded = ["numpy" in sys.modules, "scipy.linalg" in sys.modules,
          "orbitope_lab.matmodel" in sys.modules]
tracer = Tracer()
tracer.install()
expm, expm_stages = matmodel.expm, []


def counting_expm(a):
    frames = {{frame.name for frame in traceback.extract_stack()}}
    expm_stages.append(sorted(frames & {{"local_max_test", "hessian_check"}}))
    return expm(a)


matmodel.expm = counting_expm
out = {{"loaded": loaded, "expm_stages": expm_stages}}
cases = {{
    "b2": ["verify", "--system", "B2", "--x", "2,1"],
    "sym2": ["verify", "--model", "sym2", "--x", "1,-1", "--n-samples", "200"],
}}
for case, argv in cases.items():
    tracer.case = case
    status = cli.main(argv + ["--out", os.devnull])
    out[case] = dict(tracer.case_layers(case), status=status)
    loaded.append("numpy" in sys.modules)
out["scipy_after"] = "scipy.linalg" in sys.modules
print(json.dumps(out))
"""


def test_traced_verify_calls_each_stage_once():
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN.format(src=str(SRC), bench=str(BENCH))],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    # numpy is loaded by the first numeric call, not by the import or by
    # an exact verify
    assert out["loaded"] == [False, False, True, False, True]
    assert not out["scipy_after"]
    for case, order, kostant in (("b2", 8, 0), ("sym2", 2, 1)):
        layers = out[case]
        assert layers["status"] == 0
        assert layers["weyl.generate.calls"] == 1
        assert layers["weyl.group_order"] == order
        assert layers["polytope.vertex_permutations.calls"] == 1
        assert layers["matmodel.kostant_check.calls"] == kostant
    assert out["b2"]["polytope.hull.calls"] == 1
    assert out["b2"]["polytope.face_lattice.calls"] == 1
    # the octagon's 8 vertices, 8 edges and itself; its orbits of proper
    # faces are the vertices and the two classes of edges
    assert out["b2"]["polytope.faces_up_to_group.calls"] == 1
    assert out["b2"]["polytope.face_orbits"] == 3
    assert out["b2"]["polytope.faces"] == 17
    assert out["b2"]["weyl.to_dominant.calls"] == 1
    # the two simple reflections' letters on the octagon's 8 vertices
    assert out["b2"]["polytope.vertex_images"] == 16
    # the local-max stage is one stacked call over its 100 pairs; x and
    # each pair's dominant point make 101 to_dominant calls, and each pair
    # one chamber test
    assert out["sym2"]["matmodel.local_max_test.calls"] == 1
    # 200 Haar draws and the segment's 2 forced vertices
    assert out["sym2"]["matmodel.samples"] == 202
    assert out["sym2"]["weyl.to_dominant.calls"] == 101
    assert out["sym2"]["rootsys.share_closed_chamber.calls"] == 100
    # every expm call is the Hessian stage's, one per descriptor and one for
    # beta = x: the local-max stage reads exact second derivatives
    hessians = out["sym2"]["facelab.descriptors"] + 1
    assert out["sym2"]["matmodel.hessian_check.calls"] == hessians
    assert out["expm_stages"] == [["hessian_check"]] * hessians


def test_sample_length_draws_nothing(monkeypatch):
    """The tracer counts ``len(sample_orbit(...).points)`` as
    ``matmodel.samples``: the Haar draws plus the forced points, read
    without opening a Haar stream."""
    from orbitope_lab import matmodel

    model = matmodel.make_model("sym", 3)
    forced = [(2, 0, -2), (0, 2, -2)]
    sample = matmodel.sample_orbit(
        model, (2, 0, -2), matmodel._CHUNK + 5, seed=1, forced_cartan_points=forced
    )
    opened, stream = [], matmodel._stream
    monkeypatch.setattr(
        matmodel, "_stream", lambda *key: opened.append(key) or stream(*key)
    )
    assert len(sample.points) == matmodel._CHUNK + 5 + len(forced)
    assert opened == []
