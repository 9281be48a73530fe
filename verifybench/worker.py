"""One pass of a case list in a fresh interpreter.

Started by ``run.py``; reads ``{"warmup": argv, "cases": [[id, argv], ...]}``
as JSON on stdin and writes one JSON object per line on stdout:

* ``{"event": "ready", ...}`` once ``orbitope_lab`` is imported (and
  traced, when asked) and the warm-up case has run, with the speed
  samples taken so far; timing begins here;
* ``{"event": "case", ...}`` after each case, with its exit status, start,
  end and wall time, report digest, verdict fields, the process's peak RSS
  so far and the speed samples taken since the last line (and its layer
  figures, traced);
* ``{"event": "done", ...}`` with the pass's wall time and the last speed
  samples.

From set-up to the last case, a timer signal runs a short fixed
pure-Python loop every ``SAMPLE_INTERVAL_S`` and records ``[time,
seconds]`` of each run: the host's speed over the pass, from which
``run.py`` expresses set-up and every case's time in reference loops.

Usage: python3 verifybench/worker.py SRC_DIR TMP_DIR [SPANS_PATH]
Tracing is on exactly when SPANS_PATH is given.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

# The reference loop takes about 0.8 ms on a 2-vCPU x86 host, so sampling
# costs the cases about 3 % of their time.  The host's speed changes
# within a tenth of a second, hence the short interval.
REF_STEPS = 200
SAMPLE_INTERVAL_S = 0.025


def _emit(stream, obj) -> None:
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


class _SpeedSampler:
    """Times a fixed pure-Python loop on every tick of a timer signal.

    Exact rational arithmetic plus tuple hashing, like the program's exact
    layers.  The speed of a shared host drifts by tens of percent within
    seconds; the loop, run all through a case, slows with the case, so the
    case's time over the loop's cancels the drift.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        start = time.perf_counter()
        acc = Fraction(0)
        seen = set()
        for i in range(1, REF_STEPS):
            acc += Fraction(i % 89 - 44, i % 13 + 1)
            seen.add((i % 251, acc.numerator % 1009))
        self.samples.append([start, time.perf_counter() - start])

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def take(self):
        taken, self.samples = self.samples, []
        return taken


def _invariants(report: dict) -> dict:
    """Exact counts read back from a verify report."""
    bijection = report["stages"][0]
    out = {
        "descriptors": bijection["descriptor_count"],
        "face_orbits": bijection["face_orbit_count"],
    }
    records = bijection["records"]
    if records and all(r["orbit_size"] is not None for r in records):
        top = max(r["dim_sigma"] for r in records)
        out["vertices"] = sum(r["orbit_size"] for r in records if r["dim_sigma"] == 0)
        out["facets"] = sum(r["orbit_size"] for r in records if r["dim_sigma"] == top)
        out["faces"] = sum(r["orbit_size"] for r in records) + 1
    return out


def _run_case(main, argv, out_path) -> dict:
    """Run one case in process; never raises."""
    captured = io.StringIO()
    error = None
    status = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            status = main(argv + ["--out", out_path])
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
        error = f"SystemExit({exc.code!r})"
    except Exception as exc:  # a raise is a wrong verdict, not a crash
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    text = captured.getvalue()
    if error is None and "Traceback" in text:
        error = "traceback printed"
    rec = {"exit": status, "start": start, "end": end, "seconds": end - start,
           "error": error, "output": text[-2000:]}
    try:
        with open(out_path, "rb") as handle:
            data = handle.read()
        os.remove(out_path)
    except OSError:
        rec["error"] = rec["error"] or "no report written"
        return rec
    rec["digest"] = hashlib.sha256(data).hexdigest()
    try:
        report = json.loads(data)
        rec["passed"] = report["passed"]
        rec["first_kind"] = (report["first_counterexample"] or {}).get("kind")
        rec["failed_stages"] = (
            report["first_counterexample"] or {}).get("failed_stages")
        rec["invariants"] = _invariants(report)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        rec["error"] = rec["error"] or f"unreadable report: {exc}"
    return rec


def main() -> int:
    src, tmp = sys.argv[1], sys.argv[2]
    spans_path = sys.argv[3] if len(sys.argv) > 3 else None
    job = json.loads(sys.stdin.read())
    proto = sys.stdout
    sampler = _SpeedSampler()
    sampler.start()
    sys.path.insert(0, src)
    import orbitope_lab  # import time counts towards setup_s
    from orbitope_lab import cli

    if not os.path.abspath(orbitope_lab.__file__).startswith(os.path.abspath(src)):
        print(f"orbitope_lab imported from {orbitope_lab.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.case = "warmup"
    out_path = os.path.join(tmp, "report.json")
    warm = _run_case(cli.main, job["warmup"], out_path)
    if warm["exit"] not in (0, 1) or warm["error"]:
        print(f"warm-up case failed: {warm}", file=sys.stderr)
        return 2
    _emit(proto, {"event": "ready", "speed": sampler.take()})

    pass_start = time.perf_counter()
    for case_id, argv in job["cases"]:
        if tracer is not None:
            tracer.case = case_id
        rec = _run_case(cli.main, argv, out_path)
        rec.update(event="case", id=case_id)
        if tracer is not None:
            rec["layers"] = tracer.case_layers(case_id)
        rec["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rec["speed"] = sampler.take()
        _emit(proto, rec)
    wall = time.perf_counter() - pass_start
    sampler.stop()
    if tracer is not None:
        tracer.dump(spans_path)
    _emit(proto, {"event": "done", "wall_s": wall, "speed": sampler.take()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
