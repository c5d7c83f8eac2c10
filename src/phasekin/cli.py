"""Command-line entry point: argument parsing and exit codes.

Every command runs through :func:`phasekin.runner.run_scenario`, which
writes the outputs and the manifest.  Exit codes: 0 success, 1
verification failure (manifest status ``failed``), 2 configuration
error, 3 any other guard violation or a failed write (manifest status
``aborted``; none if the manifest's own write failed).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import TOOL_NAME, keys_help, load_config
from .errors import ConfigError, PhasekinError
from .runner import run_scenario

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
        status = run_scenario(config, args.command, args.output_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PhasekinError, OSError) as exc:  # OSError: an output write that failed
        print(f"runtime guard violation: {exc}", file=sys.stderr)
        return EXIT_GUARD
    return EXIT_VERIFY_FAIL if status == "failed" else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
