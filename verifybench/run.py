"""Verify benchmark for orbitope-lab: verdict latency, throughput, layer trace.

Usage (from the repository root):

    python3 verifybench/run.py --workload exact-rank3 --seed 42 --seconds 25 --trace 0
    python3 verifybench/run.py --workload all

Each pass over a workload's case list runs in a fresh interpreter
(``worker.py``), so no ``lru_cache`` or other in-process state carries
over from one pass to the next.  Inside a pass the cases run one at a
time through ``orbitope_lab.cli.main``: a closed loop with one caller.
Passes repeat until about ``--seconds`` of cases have been measured.

Case costs are reported in reference loops (``ref``): from set-up to the
end of a pass the worker times a short fixed pure-Python loop every 25 ms,
and a case's cost is its wall time times the loops per second sampled
while it ran.  A shared host's speed drifts by tens of percent within
seconds; the cost cancels that drift, the wall time does not.  Set-up is
measured the same way and reported in seconds at a nominal host speed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs about
``--seconds / 2`` of untraced passes, then as much of traced passes, and
prints the per-layer metrics plus ``trace.overhead_frac``.  A
human-readable table precedes the last line, which is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".verifybench")

# A case shorter than this many speed samples is measured against the
# samples nearest to it.
MIN_SAMPLES = 5
# setup_s is set-up time at a nominal host speed: the one at which the
# reference loop takes this long (its median on a 2-vCPU x86 host).
REF_LOOP_S = 0.0008
# Set-up-only interpreters per untraced run, besides one per pass.
SETUP_EXTRA = 4
SETUP_LIMIT_S = 60.0
CASE_LIMIT_S = 40.0
RUN_BUDGET_S = 150.0
# One caller, small matrices: more BLAS threads only add noise.
BLAS_THREADS = "1"

END_TO_END = (
    ("setup_s", "s"),
    ("pass_ref", "ref"),
    ("case_p50_ref", "ref"),
    ("case_p90_ref", "ref"),
    ("peak_rss_mb", "MB"),
)
# In the order of the layer table in README.md.  Names ending in .self_s
# are medians over traced passes; the last two are derived; the rest are
# exact counts.
PER_LAYER = (
    "polytope.hull.self_s",
    "polytope.hull.calls",
    "polytope.hull.subsets",
    "polytope.hull.facets",
    "polytope.hull.facet_yield",
    "polytope.face_lattice.self_s",
    "polytope.faces",
    "weyl.generate.self_s",
    "weyl.group_order",
    "weyl.orbit.self_s",
    "weyl.orbit_points",
    "polytope.vertex_permutations.self_s",
    "polytope.vertex_permutations.calls",
    "polytope.vertex_images",
    "polytope.faces_up_to_group.self_s",
    "polytope.face_orbits",
    "polytope.exposed_face.self_s",
    "facelab.classify_faces.self_s",
    "facelab.parabolic_subgroup.self_s",
    "facelab.descriptors",
    "facelab.verify_bijection.self_s",
    "weyl.to_dominant.self_s",
    "weyl.to_dominant.calls",
    "rootsys.share_closed_chamber.self_s",
    "rootsys.share_closed_chamber.calls",
    "matmodel.sample_orbit.self_s",
    "matmodel.samples",
    "matmodel.kostant_check.self_s",
    "matmodel.kostant_check.calls",
    "matmodel.local_max_test.self_s",
    "matmodel.local_max_test.calls",
    "matmodel.fd_expm_calls",
    "matmodel.hessian_check.self_s",
    "matmodel.hessian_check.trials",
    "matmodel.ext_face_dim_check.self_s",
    "matmodel.spectrum_deviation.self_s",
    "matmodel.argmax_height.self_s",
    "matmodel.verification_report.self_s",
    "rootsys.build_root_system.self_s",
    "matmodel.make_model.self_s",
    "cli.main.self_s",
    "jsonio.dump_report.self_s",
    "jsonio.report_bytes",
    "trace.overhead_frac",
)
# Trace counts that must equal an exact invariant of the case.
TRACE_INVARIANTS = {
    "weyl.group_order": "weyl_order",
    "polytope.faces": "faces",
    "polytope.face_orbits": "face_orbits",
    "facelab.descriptors": "descriptors",
}


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


class _Lines:
    """JSON lines from a worker's stdout, each awaited with a time limit."""

    def __init__(self, stream):
        self.fd = stream.fileno()
        self.buf = b""
        self.selector = selectors.DefaultSelector()
        self.selector.register(self.fd, selectors.EVENT_READ)

    def next(self, limit):
        deadline = time.monotonic() + limit
        while b"\n" not in self.buf:
            left = deadline - time.monotonic()
            if left <= 0 or not self.selector.select(left):
                return None
            chunk = os.read(self.fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def close(self):
        self.selector.close()


def _worker_env():
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    return env


def _run_pass(job, spans_path=None):
    """One fresh interpreter over job["cases"]; returns the pass record."""
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="pass-", dir=OUT_DIR)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), SRC, tmp]
    if spans_path is not None:
        cmd.append(spans_path)
    err_path = os.path.join(tmp, "stderr.txt")
    try:
        return _drive(cmd, job, err_path)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _drive(cmd, job, err_path):
    cases = []
    samples = []
    aborted = None
    with open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=err, env=_worker_env(), cwd=ROOT)
        lines = _Lines(proc.stdout)
        try:
            proc.stdin.write(json.dumps(job).encode())
            proc.stdin.close()
            msg = lines.next(SETUP_LIMIT_S)
            if not msg or msg.get("event") != "ready":
                raise BenchError("worker did not start")
            setup_wall_s = last = time.monotonic() - start
            if not msg["speed"]:
                raise BenchError("set-up took no speed samples")
            setup_s = setup_wall_s * _speed(msg["speed"]) * REF_LOOP_S
            for case_id, _ in job["cases"]:
                msg = lines.next(CASE_LIMIT_S)
                if msg is None:
                    # The case's time is a lower bound; the pass ends here.
                    aborted = ("timed out after %.0f s" % CASE_LIMIT_S
                               if proc.poll() is None else "worker died")
                    cases.append({"id": case_id, "error": aborted,
                                  "seconds": time.monotonic() - start - last})
                    break
                last = time.monotonic() - start
                samples += msg.pop("speed")
                cases.append(msg)
            done = None if aborted else lines.next(CASE_LIMIT_S)
            if not aborted and (not done or done.get("event") != "done"):
                raise BenchError("worker ended without its summary")
            if done:
                samples += done["speed"]
        except BenchError as exc:
            proc.kill()
            proc.wait()
            with open(err_path, "rb") as fh:
                tail = fh.read()[-2000:].decode(errors="replace")
            raise BenchError(f"{exc}: {tail.strip()}") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
            lines.close()
    return {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "cases": cases,
        "samples": samples,
        "aborted": aborted,
        "wall_s": done["wall_s"] if done else sum(c["seconds"] for c in cases),
        "elapsed_s": time.monotonic() - start,
    }


def _phase(job, seconds, run_start, spans_base=None):
    """Fresh-interpreter passes until about ``seconds`` of cases are measured."""
    passes = []
    measured = 0.0
    while time.monotonic() - run_start < RUN_BUDGET_S:
        spans = None if spans_base is None else f"{spans_base}-pass{len(passes)}.jsonl"
        p = _run_pass(job, spans)
        passes.append(p)
        if p["aborted"]:
            break
        measured += p["wall_s"]
        # Start another pass only if it should end within 10 % of the budget.
        if measured + p["wall_s"] > 1.1 * seconds:
            break
        if time.monotonic() - run_start + p["elapsed_s"] > RUN_BUDGET_S:
            break
    return passes


def _judge(rec, exp, traced):
    """Why a case's outcome differs from its expectation, or None."""
    if rec.get("error"):
        return rec["error"]
    for key in ("exit", "passed", "first_kind", "failed_stages"):
        if key in exp and rec.get(key) != exp[key]:
            said = rec.get("output", "").strip().splitlines()
            return (f"{key} is {rec.get(key)!r}, expected {exp[key]!r}"
                    + (f" ({said[-1]})" if said else ""))
    for key, value in rec.get("invariants", {}).items():
        if exp.get(key) != value:
            return f"{key} is {value}, expected {exp.get(key)}"
    if traced:
        for metric, key in TRACE_INVARIANTS.items():
            if rec["layers"].get(metric, 0) != exp[key]:
                return f"trace {metric} is {rec['layers'].get(metric)}, expected {exp[key]}"
    return None


def _evaluate(workload, phases, expected):
    """Mark every case execution right or wrong; returns (correct, failures).

    Besides the expected answers, a case is wrong when its report digest
    differs from the case's first untraced execution (determinism and trace
    neutrality) or when its trace counts differ from its first traced
    execution (count self-check).  A known wrong verdict that reproduces
    exactly as recorded in ``known_wrong`` still counts as failed, but
    leaves ``correct`` true; any other failure makes it false.
    """
    exp_cases = expected["workloads"][workload]
    known = expected["known_wrong"].get(workload, {})
    digests = {}
    counts = {}
    failures = []
    unexplained = 0
    for traced, passes in phases:
        for p in passes:
            for rec in p["cases"]:
                cid = rec["id"]
                outcome = exp_cases[cid]
                if cid in known and _judge(rec, {**outcome, **known[cid]}, traced) is None:
                    outcome = {**outcome, **known[cid]}
                reason = _judge(rec, outcome, traced)
                if reason is None and digests.setdefault(cid, rec["digest"]) != rec["digest"]:
                    reason = "report digest differs from the first untraced run"
                if reason is None and traced:
                    tally = {k: v for k, v in rec["layers"].items()
                             if not k.endswith(".self_s")}
                    if counts.setdefault(cid, tally) != tally:
                        reason = "trace counts differ from the first traced pass"
                if reason is not None:
                    unexplained += 1
                    failures.append((cid, reason))
                elif outcome is not exp_cases[cid]:
                    failures.append((cid, "known wrong verdict: " + known[cid]["why"]))
    return unexplained == 0, failures


def _q90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _speed(samples):
    """Reference loops per second over the given samples."""
    return statistics.fmean(1.0 / s for _, s in samples)


def _costs(p):
    """A pass's case times in reference loops (ref).

    A case is measured against the speed samples taken while it ran or,
    if it ran for fewer than MIN_SAMPLES of them, against the MIN_SAMPLES
    samples nearest to its middle.  A case that ended its pass has no end
    time; it is measured against the whole pass.
    """
    samples = p["samples"]
    if not samples:
        raise BenchError("a pass took no speed samples")
    costs = []
    for c in p["cases"]:
        if "start" not in c:
            costs.append(c["seconds"] * _speed(samples))
            continue
        inside = [s for s in samples if c["start"] <= s[0] <= c["end"]]
        if len(inside) < MIN_SAMPLES:
            mid = (c["start"] + c["end"]) / 2
            inside = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_SAMPLES]
        costs.append(c["seconds"] * _speed(inside))
    return costs


def _pass_ref(passes):
    """Median over passes of the cost of one pass over the case list."""
    return statistics.median(sum(_costs(p)) for p in passes)


def _end_to_end(passes, setups):
    costs = [x for p in passes for x in _costs(p)]
    peaks = [c["peak_rss_kb"] for p in passes for c in p["cases"] if "peak_rss_kb" in c]
    if not peaks:
        raise BenchError("no case completed")
    times = [c["seconds"] for p in passes for c in p["cases"]]
    loops = [s for p in passes for _, s in p["samples"]]
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "pass_ref": _pass_ref(passes),
        "case_p50_ref": statistics.median(costs),
        "case_p90_ref": _q90(costs),
        "peak_rss_mb": max(peaks) / 1024,
    }
    samples = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "pass_ref": f"median of {len(passes)} passes of {len(passes[0]['cases'])} cases",
        "case_p50_ref": f"{len(costs)} case costs",
        "case_p90_ref": f"{len(costs)} case costs",
        "peak_rss_mb": f"max over {len(passes)} pass processes",
    }
    # Wall-clock figures, for reading only: they move with the host.
    wall = {
        "reference loop": (statistics.median(loops) * 1000, "ms", f"median of {len(loops)}"),
        "setup_wall_s": (statistics.median(p["setup_wall_s"] for p in setups), "s",
                         f"median of {len(setups)} fresh interpreters"),
        "cases_per_s": (len(times) / sum(times), "1/s", f"{len(times)} cases, {sum(times):.2f} s"),
        "case_p50_s": (statistics.median(times), "s", f"{len(times)} case times"),
        "case_p90_s": (_q90(times), "s", f"{len(times)} case times"),
    }
    return values, samples, wall


def _per_layer(traced_passes, untraced_passes):
    totals = []
    for p in traced_passes:
        total = {}
        for rec in p["cases"]:
            for key, value in rec.get("layers", {}).items():
                total[key] = total.get(key, 0) + value
        totals.append(total)
    if not totals:
        raise BenchError("no traced pass was measured")
    values = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            values[name] = statistics.median(t.get(name, 0.0) for t in totals)
        else:
            values[name] = totals[0].get(name, 0)
    subsets = values["polytope.hull.subsets"]
    values["polytope.hull.facet_yield"] = (
        values["polytope.hull.facets"] / subsets if subsets else 0.0)
    values["trace.overhead_frac"] = (
        _pass_ref(traced_passes) / _pass_ref(untraced_passes) - 1.0)
    return values, len(totals)


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_yield"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def run_workload(workload, seed, seconds, trace):
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    job = {"warmup": workloads.WARMUP[workload], "cases": workloads.cases(workload, seed)}
    run_start = time.monotonic()
    setup_only = {"warmup": job["warmup"], "cases": []}
    # Set-up alone, half before and half after the passes, so the samples
    # span the run rather than one moment of it.
    setups = [] if trace else [_run_pass(setup_only)
                               for _ in range(SETUP_EXTRA // 2)]
    # A traced run splits its time between untraced and traced passes.
    untraced = _phase(job, seconds / 2 if trace else seconds, run_start)
    setups += untraced
    if trace:
        spans_base = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}")
        traced = _phase(job, seconds / 2, run_start, spans_base)
    else:
        traced = []
        setups += [_run_pass(setup_only)
                   for _ in range(SETUP_EXTRA - SETUP_EXTRA // 2)]
    phases = [(False, untraced)] + ([(True, traced)] if trace else [])
    correct, failures = _evaluate(workload, phases, expected)
    attempted = sum(len(p["cases"]) for _, ps in phases for p in ps)

    lines = [f"== {workload}  seed {seed}  {'traced' if trace else 'untraced'}  "
             f"{len(untraced)} untraced + {len(traced)} traced passes, "
             f"one fresh interpreter each"]
    if trace:
        values, n = _per_layer(traced, untraced)
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
        for k, v in values.items():
            lines.append(f"  {k:42s} {v:.6g} {_unit(k)}  (per pass, {n} traced passes)")
    else:
        values, samples, wall = _end_to_end(untraced, setups)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            lines.append(f"  {name:20s} {values[name]:.6g} {unit}  ({samples[name]})")
        lines.append("  wall clock, not bounded (moves with the host's speed):")
        for name, (value, unit, sample) in wall.items():
            lines.append(f"  {name:20s} {value:.6g} {unit}  ({sample})")
    lines.append(f"  {'wrong_verdict_frac':20s} {len(failures) / attempted:.4g}  "
                 f"({len(failures)} of {attempted} cases)")
    for (cid, reason), n in Counter(failures).items():
        lines.append(f"    wrong x{n}: {cid}: {reason}")
    print("\n".join(lines), flush=True)
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "orbitope_lab", "cli.py")):
        print(f"error: no orbitope_lab sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    else:
        result = results[args.workload]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
