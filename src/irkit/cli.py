"""Command-line experiment harness.

One subcommand per study type; every run writes a CSV (when ``--out`` is
given) plus a JSON manifest sidecar, and the process exits nonzero when any
cell failed.  A stored manifest can be replayed with ``--manifest``.

Examples::

    irkit convergence --problem dahlquist --scheme gauss --stages 2 \
        --dt 0.2,0.1,0.05,0.025 --t-final 1.0 --out conv.csv
    irkit gamma-compare --problem heat1d --scheme gauss --stages 4 \
        --dt 0.01,0.1,1.0 --t-final 0.03 --out gamma.csv
    irkit condition --problem advection1d --scheme lobatto_iiic --stages 2,3,4,5 \
        --dt 0.1,1.0 --out cond.csv
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigurationError, IrkitError
from .experiments import RUNNERS, RunManifest, any_failed, run
from .problems import problem_names
from .tableau import SDIRK_FAMILIES, canonical_family, make_tableau


def _parse_floats(text):
    return tuple(float(x) for x in text.split(",") if x.strip())


def _parse_ints(text):
    return tuple(int(x) for x in text.split(",") if x.strip())


def _parse_gamma(text):
    if text in ("eta", "star"):
        return text
    return float(text)


def _schemes_from_args(args):
    families = [canonical_family(f) for f in args.scheme.split(",") if f.strip()]
    stages = _parse_ints(args.stages) if args.stages else ()
    schemes = []
    for fam in families:
        if fam in SDIRK_FAMILIES:
            schemes.append((fam, make_tableau(fam).s))
        elif not stages:
            raise ConfigurationError(f"{fam} needs --stages")
        else:
            schemes.extend((fam, s) for s in stages)
    return tuple(schemes)


def _add_common(parser):
    parser.add_argument("--problem", help=f"one of: {', '.join(problem_names())}")
    parser.add_argument(
        "--problem-param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="builder parameter override (repeatable)",
    )
    parser.add_argument("--scheme", help="comma-separated families")
    parser.add_argument("--stages", help="comma-separated stage counts")
    parser.add_argument("--dt", help="comma-separated time steps")
    parser.add_argument("--t-final", type=float)
    parser.add_argument("--variant", type=int, choices=(0, 1, 2, 3))
    parser.add_argument("--gamma", type=_parse_gamma, help="eta, star, or a number")
    parser.add_argument("--newton-rtol", type=float)
    parser.add_argument("--krylov-rtol", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--manifest", help="replay a stored manifest JSON")


# RunManifest fields taken from the flag of the same name when it is given; these
# flags have no default of their own, so a flag left out keeps RunManifest's
SCALAR_FLAGS = ("t_final", "variant", "gamma", "newton_rtol", "krylov_rtol", "out", "seed")


def _param_value(text):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _manifest_from_args(experiment, args):
    if args.manifest:
        manifest = RunManifest.from_json(Path(args.manifest).read_text())
        if manifest.experiment != experiment:
            raise ConfigurationError(
                f"{args.manifest} is for {manifest.experiment!r}, not {experiment!r}"
            )
        if args.out:
            manifest = RunManifest.from_dict({**manifest.to_dict(), "out": args.out})
        return manifest
    if not args.problem or not args.scheme or not args.dt:
        raise ConfigurationError("--problem, --scheme and --dt are required")
    params = {}
    for item in args.problem_param:
        key, _, value = item.partition("=")
        if not _:
            raise ConfigurationError(f"bad --problem-param {item!r}")
        params[key] = _param_value(value)
    given = {k: v for k, v in vars(args).items() if k in SCALAR_FLAGS and v is not None}
    return RunManifest(experiment=experiment, problem=args.problem, problem_params=params,
                       schemes=_schemes_from_args(args), dts=_parse_floats(args.dt), **given)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="irkit", description="fully implicit Runge-Kutta experiment harness"
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in sorted(RUNNERS):
        p = sub.add_parser(name, help=f"run the {name} study")
        _add_common(p)
    args = parser.parse_args(argv)
    try:
        manifest = _manifest_from_args(args.experiment, args)
        rows = run(manifest)
    except (IrkitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        print(",".join(str(v) for v in row.values()))
    return 1 if any_failed(rows) else 0


if __name__ == "__main__":
    sys.exit(main())
