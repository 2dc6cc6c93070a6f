"""Command line front end: execute a scenario file into an output directory.

Exit codes: 0 run succeeded and expectations held, 2 the run finished but
an expectation in the scenario did not hold, 3 a solve or burgers run
ended with status failed (no window could be certified, or the Picard
iteration failed inside a certified window or contracted more slowly than
certified, which means a false Lipschitz certificate) and the scenario
does not expect status "failed" (outputs are written), 1 configuration
or runtime error (nothing written in that case), reported on stderr as
"error: <section>: <message>".
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .scenario import ScenarioError, load_scenario, run_scenario


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="semiflow",
        description="Run a scenario (solve, burgers, props, admissibility, bcs) "
                    "described by a JSON file.",
    )
    p.add_argument("scenario", help="path to the scenario JSON file")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory for the output files (created if missing)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario's sampling seed")
    p.add_argument("--substeps", type=int, default=None,
                   help="override substeps_per_window in the solver config")
    p.add_argument("--modes", type=int, default=None,
                   help="override the mode count of family-built systems")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the one-line run summary on stdout")
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        sc = load_scenario(args.scenario)
        return run_scenario(sc, args.out, seed=args.seed,
                            substeps=args.substeps, modes=args.modes,
                            quiet=args.quiet)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
