"""Command-line front end.

Four subcommands over the same configuration surface:

* ``describe``: root system summary plus the dominant representative,
  wall set, and x-connected subset count of a chosen point.
* ``polytope``: exact orbit polytope with face counts and face orbits.
* ``classify``: the face descriptors and the stratum count.
* ``verify``: the descriptor/face-orbit bijection check, followed by the
  numeric matrix-model suite when a model is configured; exits 0 only
  when every stage passes.

Reports are JSON by default (schema "orbitope-lab/1"), rendered
deterministically: dictionaries keep insertion order, floats print with
17 significant digits, and exact rationals appear as "p/q" strings.  The
``--format table`` view is a flat indented rendering of the same data.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
import sys
from fractions import Fraction

from . import facelab, jsonio, matmodel
from . import polytope as poly
from . import rootsys, weyl

SCHEMA = "orbitope-lab/1"

_MODEL_PATTERN = re.compile(r"^(sym|skew)(\d+)$")


class CliError(Exception):
    """A configuration or domain error reported on stderr with exit 1."""


def _parse_vector(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise CliError(f"could not parse vector {text!r}")
    try:
        return tuple(Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"could not parse vector {text!r}: {exc}") from None


def _resolve_system(args):
    """Return (root system, model or None) from --system / --model."""
    model = None
    if args.model is not None:
        m = _MODEL_PATTERN.match(args.model)
        if not m:
            raise CliError(
                f"model {args.model!r} does not match sym<n> or skew<n>"
            )
        try:
            model = matmodel.make_model(m.group(1), int(m.group(2)))
        except ValueError as exc:
            raise CliError(str(exc)) from None
        if args.system is not None:
            raise CliError("--model fixes the root system; drop --system")
        return model.root_system, model
    if args.system is None:
        raise CliError("one of --system or --model is required")
    try:
        return rootsys.build_root_system(args.system), None
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _resolve_x(args, rs: rootsys.RootSystem) -> tuple:
    if args.x is None:
        raise CliError("--x is required")
    coords = _parse_vector(args.x)
    if args.coords == "weights":
        if len(coords) != rs.rank:
            raise CliError(
                f"weight coordinates need {rs.rank} entries, got {len(coords)}"
            )
        coweights = rs.fundamental_coweights
        x = [Fraction(0)] * rs.ambient_dim
        for c, w in zip(coords, coweights):
            for i, wi in enumerate(w):
                x[i] += c * wi
        return tuple(x)
    if len(coords) != rs.ambient_dim:
        raise CliError(
            f"ambient coordinates need {rs.ambient_dim} entries, "
            f"got {len(coords)}"
        )
    return tuple(coords)


def _config_block(args, rs: rootsys.RootSystem, x) -> dict:
    return {
        "system": rs.label,
        "model": args.model,
        "x": list(x),
        "coords": args.coords,
        "n_samples": args.n_samples,
        "seed": args.seed,
        "face_budget": args.face_budget,
    }


def _count_x_connected(rs: rootsys.RootSystem, x) -> int:
    """Number of x-connected subsets of the simple roots, Pi included."""
    count = 0
    for mask in range(1 << rs.rank):
        subset = [i for i in range(rs.rank) if mask >> i & 1]
        if facelab.is_x_connected(rs, subset, x):
            count += 1
    return count


def cmd_describe(args) -> tuple[int, dict]:
    rs, _ = _resolve_system(args)
    x = _resolve_x(args, rs)
    group = weyl.generate(rs)
    dom = weyl.to_dominant(group, x)
    walls = rootsys.wall_set(rs, dom.vector)
    report = {
        "schema": SCHEMA,
        "command": "describe",
        "config": _config_block(args, rs, x),
        "system": {
            "label": rs.label,
            "rank": rs.rank,
            "ambient_dim": rs.ambient_dim,
            "positive_root_count": len(rs.positive_roots),
            "root_count": 2 * len(rs.positive_roots),
            "weyl_order": group.order,
        },
        "x_dominant": list(dom.vector),
        "word": [i + 1 for i in dom.word],
        "wall_set": sorted(i + 1 for i in walls),
        "orbit_size": len(weyl.orbit(group, x)),
        "x_connected_subset_count": _count_x_connected(rs, dom.vector),
    }
    return 0, report


def _moved_dominant(rs, group, x):
    """The dominant representative of an x that the group moves.

    Every simple root vanishes on x = 0 and on an x orthogonal to the
    roots; the group fixes such an x, so its orbit polytope is one point
    with no proper faces, and it is rejected.
    """
    dom = weyl.to_dominant(group, x)
    if len(rootsys.wall_set(rs, dom.vector)) == rs.rank:
        raise CliError("every root vanishes on x; its orbit polytope is a single point")
    return dom


def _orbit_polytope(rs, group, x, budget):
    """The dominant x, the hull of its orbit, wrapped up to symmetry, and
    the simple reflections' letters on the hull's vertex indices."""
    dom = _moved_dominant(rs, group, x)
    points = weyl.orbit(group, dom.vector)
    letters = poly.vertex_permutations(points, group)
    hull = poly.hull(points, letters=letters, budget=budget)
    # every orbit point is a vertex, and the hull sorts them
    order = sorted(range(len(points)), key=points.__getitem__)
    at = {k: j for j, k in enumerate(order)}
    return dom, hull, tuple(tuple(at[s[k]] for k in order) for s in letters)


def cmd_polytope(args) -> tuple[int, dict]:
    rs, _ = _resolve_system(args)
    x = _resolve_x(args, rs)
    group = weyl.generate(rs)
    dom, hull, perms = _orbit_polytope(rs, group, x, args.face_budget)
    orbits = poly.faces_up_to_group(hull, perms)
    # the proper faces, orbit by orbit, then the polytope itself
    by_dim = {hull.dim: 1}
    for face, size in orbits:
        by_dim[face.dim] = by_dim.get(face.dim, 0) + size
    report = {
        "schema": SCHEMA,
        "command": "polytope",
        "config": _config_block(args, rs, x),
        "x_dominant": list(dom.vector),
        "dim": hull.dim,
        "vertex_count": len(hull.vertices),
        "facet_count": len(hull.facets),
        "face_count": sum(by_dim.values()),
        "faces_by_dim": {str(d): by_dim[d] for d in sorted(by_dim)},
        "face_orbits": [
            {
                "dim": face.dim,
                "orbit_size": size,
                "vertex_indices": [i + 1 for i in face.vertex_indices],
            }
            for face, size in orbits
        ],
        "vertices": [list(v) for v in hull.vertices],
    }
    return 0, report


def cmd_classify(args) -> tuple[int, dict]:
    rs, _ = _resolve_system(args)
    x = _resolve_x(args, rs)
    group = weyl.generate(rs)
    dom = _moved_dominant(rs, group, x)
    descriptors = facelab.classify_faces(rs, group, dom.vector)
    report = {
        "schema": SCHEMA,
        "command": "classify",
        "config": _config_block(args, rs, x),
        "x_dominant": list(dom.vector),
        "stratum_count": len(descriptors),
        "descriptors": [facelab.descriptor_record(d) for d in descriptors],
    }
    return 0, report


def cmd_verify(args) -> tuple[int, dict]:
    rs, model = _resolve_system(args)
    x = _resolve_x(args, rs)
    group = weyl.generate(rs)
    dom, hull, perms = _orbit_polytope(rs, group, x, args.face_budget)
    descriptors = list(facelab.classify_faces(rs, group, dom.vector))
    if args.corrupt_descriptor is not None:
        if not 0 <= args.corrupt_descriptor < len(descriptors):
            raise CliError(
                f"descriptor index {args.corrupt_descriptor} out of range "
                f"(have {len(descriptors)})"
            )
        target = descriptors[args.corrupt_descriptor]
        descriptors[args.corrupt_descriptor] = dataclasses.replace(
            target, beta=tuple(-c for c in target.beta)
        )
    bijection = facelab.verify_bijection(rs, hull, perms, descriptors)
    stages = [
        {
            "name": "bijection",
            "passed": bijection.passed,
            "descriptor_count": bijection.descriptor_count,
            "face_orbit_count": bijection.face_orbit_count,
            "records": list(bijection.records),
            "counterexamples": list(bijection.counterexamples),
        }
    ]
    if model is not None:
        numeric = matmodel.verification_report(
            model,
            dom.vector,
            args.n_samples,
            args.seed,
            group=group,
            orbit_polytope=hull,
            descriptors=descriptors,
        )
        stages.append({"name": "model", "passed": numeric["passed"], "report": numeric})
    passed = all(stage["passed"] for stage in stages)
    first = None
    if not bijection.passed and bijection.counterexamples:
        first = bijection.counterexamples[0]
    elif not passed:
        numeric = stages[1]["report"]
        first = {
            "kind": "model-stage-failure",
            "failed_stages": numeric["failed_stages"],
        }
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "config": _config_block(args, rs, x),
        "x_dominant": list(dom.vector),
        "passed": passed,
        "first_counterexample": first,
        "stages": stages,
    }
    return 0 if passed else 1, report


def _table_lines(value, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list, tuple)) and v:
                out.append(f"{pad}{k}:")
                _table_lines(v, indent + 1, out)
            else:
                out.append(f"{pad}{k}: {_table_scalar(v)}")
    elif isinstance(value, (list, tuple)):
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            out.append(pad + ", ".join(_table_scalar(v) for v in value))
        else:
            for i, v in enumerate(value):
                out.append(f"{pad}[{i}]")
                _table_lines(v, indent + 1, out)
    else:
        out.append(pad + _table_scalar(value))


def _table_scalar(value) -> str:
    if value is None:
        return "-"
    if value is True:
        return "yes"
    if value is False:
        return "no"
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (list, tuple)) and not value:
        return "[]"
    if isinstance(value, dict) and not value:
        return "{}"
    return str(value)


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return jsonio.dump_report(report)
    lines = []
    _table_lines(report, 0, lines)
    return "\n".join(lines) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="orbitope-lab",
        description=(
            "Exact momentum polytopes, face classification, and numeric "
            "verification for polar orbit models."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "describe": "summarize a root system and a chosen point",
        "polytope": "build the exact orbit polytope and its face data",
        "classify": "list the face descriptors and the stratum count",
        "verify": "check descriptors against the polytope and the model",
    }
    handlers = {
        "describe": cmd_describe,
        "polytope": cmd_polytope,
        "classify": cmd_classify,
        "verify": cmd_verify,
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--system",
            help="root system label (a2, b3, ...), inline text, or a file path",
        )
        p.add_argument(
            "--model",
            type=str.lower,
            help="matrix model selector: sym<n> or skew<n>",
        )
        p.add_argument("--x", help="comma-separated rational coordinates")
        p.add_argument(
            "--coords",
            choices=("ambient", "weights"),
            default="ambient",
            help="interpret --x in ambient or fundamental-weight coordinates",
        )
        p.add_argument("--n-samples", type=int, default=10000)
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--face-budget", type=int, default=poly.DEFAULT_FACE_BUDGET)
        p.add_argument("--format", choices=("json", "table"), default="json")
        p.add_argument("--out", help="write the report to this path")
        if name == "verify":
            p.add_argument(
                "--corrupt-descriptor",
                type=int,
                default=None,
                help="negate the witness of descriptor #N (failure-path hook)",
            )
        p.set_defaults(handler=handlers[name])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise CliError(f"--seed must be a nonnegative integer, got {args.seed}")
        counts = {"--face-budget": args.face_budget, "--n-samples": args.n_samples}
        for flag, value in counts.items():
            if value < 1:
                raise CliError(f"{flag} must be a positive integer, got {value}")
        status, report = args.handler(args)
        text = render_report(report, args.format)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status
