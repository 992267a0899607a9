"""Command-line front end for the extract/embed/reconstruct/semantic/report pipeline.

Exit codes: 0 success, 1 usage error, 2 total pipeline failure, 3 partial
failure (the per-cell error ledger is non-empty).
"""
from __future__ import annotations

import argparse
import logging
import sys

from .config import load_manifest
from .ingest import EDGE_FORMATS
from .pipeline import (
    PipelineError,
    run_all,
    run_embed,
    run_extract,
    run_reconstruct,
    run_report,
    run_semantic,
)

log = logging.getLogger("restore")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_TOTAL_FAILURE = 2
EXIT_PARTIAL_FAILURE = 3

_STAGES = {
    "extract": run_extract,
    "embed": run_embed,
    "reconstruct": run_reconstruct,
    "semantic": run_semantic,
    "report": run_report,
    "run-all": run_all,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are 1
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="restore", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _STAGES:
        p = sub.add_parser(name, help=f"run the {name} stage")
        p.add_argument("--config", required=True, help="manifest file path")
        p.add_argument("--output", default="restore_out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the manifest seed")
        p.add_argument("--workers", type=int, default=1, help="worker pool size")
        p.add_argument("--dot", action="store_true", help="emit DOT renders during reconstruct")
        p.add_argument("--threshold", type=float, default=None,
                       help="override the edge prediction threshold")
        p.add_argument("--format", choices=EDGE_FORMATS, default=None,
                       help="override the graph edge-list format")
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cfg = load_manifest(
            args.config,
            output_dir=args.output,
            seed=args.seed,
            threshold=args.threshold,
            workers=args.workers,
            dot=args.dot,
            graph_format=args.format,
        )
    except (OSError, ValueError) as exc:
        print(f"restore: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    stage = _STAGES[args.command]
    try:
        errors = stage(cfg)
    except (PipelineError, OSError, ValueError) as exc:
        print(f"restore: pipeline failure: {exc}", file=sys.stderr)
        return EXIT_TOTAL_FAILURE
    if errors:
        for entry in errors:
            log.warning("cell %s failed during %s: %s",
                        entry["cell"], entry["stage"], entry["error"])
        print(f"restore: {len(errors)} cell(s) failed; see errors_*.json", file=sys.stderr)
        return EXIT_PARTIAL_FAILURE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
