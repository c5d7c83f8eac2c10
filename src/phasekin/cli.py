"""Command-line entry point.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 runtime guard violation.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import TOOL_NAME, keys_help, load_config
from .errors import ConfigError, PhasekinError
from .runner import prepare_output_dir, run_scenario
from .serialization import write_manifest, write_resolved_config
from .verification import run_verification

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_GUARD = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Phase-space kinetics: joint-distribution builders, Wigner transport, "
        "and cross-cumulant analysis with bit-exact outputs.",
        epilog=keys_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"{TOOL_NAME} {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("simulate", "propagate the phase-space distribution and write snapshots"),
        ("joint", "build the joint distribution with both builders and write residuals"),
        ("cumulants", "write the cross-cumulant and uncertainty report"),
        ("verify", "run the full verification suite; exit 0 iff every check passes"),
    ):
        p = sub.add_parser(name, help=desc, description=desc)
        p.add_argument("--config", metavar="PATH", default=None, help="JSON config file (defaults apply if omitted)")
        p.add_argument("--output-dir", metavar="PATH", default=None, help="override the outputs directory")
        p.add_argument("--hbar", type=float, default=None, help="override the hbar key")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, {"hbar": args.hbar})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "verify":
            directory = prepare_output_dir(config, args.output_dir)
            report = run_verification(config)
            paths = [report.write(directory)]
            paths.append(write_resolved_config(directory, config.to_dict()))
            status = "complete" if report.overall_pass else "failed"
            write_manifest(directory, "verify", config.to_dict(), status, paths, TOOL_NAME, __version__)
            for name, measured, tolerance, status_word, _ in report.rows():
                print(f"{status_word:4s}  {name}  measured={measured:.6g}  tol={tolerance:.6g}")
            print("overall:", "pass" if report.overall_pass else "fail")
            return EXIT_OK if report.overall_pass else EXIT_VERIFY_FAIL
        run_scenario(config, args.command, args.output_dir)
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PhasekinError as exc:
        print(f"runtime guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
