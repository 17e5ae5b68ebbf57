"""``python -m repro lint`` — the reprolint command.

Kept separate from :mod:`repro.cli`, which forwards the ``lint``
arguments here and imports this module only when that command runs:
the linter stays importable without numpy, and a serving process
(``python -m repro gateway serve``) never loads it.
"""

from __future__ import annotations

import argparse
import subprocess
from pathlib import Path

from repro.lint.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.lint.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.lint.engine import default_jobs, discover_files, lint_paths
from repro.lint.reporters import (
    EXIT_ERROR,
    render_json,
    render_sarif,
    render_text,
)
from repro.lint.rules import all_rules, rules_by_name

__all__ = [
    "add_lint_arguments",
    "changed_files",
    "run_lint",
    "run_lint_safely",
    "main",
]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the lint options on ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json", "sarif"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="write the report to PATH instead of stdout (summary still prints)",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="lint only files changed vs the git REF (default when bare: HEAD), "
        "plus untracked files, intersected with the given paths",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help=f"memoise per-file results under {DEFAULT_CACHE_DIR}/ keyed on "
        "content + rule set; unchanged files are not re-analysed",
    )
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"cache location when --cache is on (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=f"parallel analysis threads (default: {default_jobs()})",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE_NAME,
        metavar="PATH",
        help=f"baseline file (default: {DEFAULT_BASELINE_NAME}; missing = empty)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file entirely",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline to acknowledge every current finding, then exit 0",
    )
    parser.add_argument(
        "--rules",
        default=None,
        metavar="RULE[,RULE]",
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )


def _select_rules(spec: str | None) -> tuple:
    registry = rules_by_name()
    if spec is None:
        return all_rules()
    chosen = []
    for name in spec.split(","):
        name = name.strip()
        if not name:
            continue
        if name not in registry:
            known = ", ".join(sorted(registry))
            raise SystemExit(f"reprolint: unknown rule {name!r} (known: {known})")
        chosen.append(registry[name])
    if not chosen:
        raise SystemExit("reprolint: --rules selected nothing")
    return tuple(chosen)


def changed_files(ref: str, root: Path | None = None) -> set[Path]:
    """Files changed vs ``ref`` plus untracked files, as resolved paths.

    Raises ``SystemExit(2)`` when git cannot answer (not a repository,
    unknown ref): a silent empty diff would report "clean" for a run
    that never looked at anything.
    """
    base = root if root is not None else Path.cwd()
    commands = (
        ["git", "diff", "--name-only", "-z", ref, "--"],
        ["git", "ls-files", "--others", "--exclude-standard", "-z"],
    )
    names: set[str] = set()
    for command in commands:
        try:
            proc = subprocess.run(
                command,
                cwd=base,
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            detail = ""
            if isinstance(exc, subprocess.CalledProcessError):
                detail = (exc.stderr or "").strip()
            raise SystemExit(
                f"reprolint: --changed could not run {' '.join(command)}: "
                f"{detail or exc}"
            ) from exc
        names.update(name for name in proc.stdout.split("\0") if name)
    return {(base / name).resolve() for name in names}


def _narrow_to_changed(paths: list[Path], ref: str) -> list[Path]:
    changed = changed_files(ref)
    return [f for f in discover_files(paths) if f.resolve() in changed]


def run_lint(args: argparse.Namespace) -> int:
    """Execute a lint run from parsed arguments; returns the exit code."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name:18} {rule.summary}")
        return 0
    if args.jobs is not None and args.jobs < 1:
        raise SystemExit("reprolint: --jobs must be >= 1")

    rules = _select_rules(args.rules)
    baseline_path = Path(args.baseline)
    baseline = Baseline() if args.no_baseline else Baseline.load(baseline_path)
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        raise SystemExit(f"reprolint: no such path: {', '.join(map(str, missing))}")
    if args.changed is not None:
        paths = _narrow_to_changed(paths, args.changed)
    cache = ResultCache(Path(args.cache_dir)) if args.cache else None

    if args.update_baseline:
        # Findings still suppressed inline stay suppressed; the baseline
        # only absorbs what would otherwise be reported.
        result = lint_paths(paths, rules=rules, baseline=Baseline(), jobs=args.jobs)
        Baseline.from_diagnostics(result.diagnostics).save(baseline_path)
        print(
            f"reprolint: baseline {baseline_path} updated "
            f"({len(result.diagnostics)} findings acknowledged)"
        )
        return 0

    result = lint_paths(
        paths, rules=rules, baseline=baseline, jobs=args.jobs, cache=cache
    )
    if args.format == "json":
        report = render_json(result)
    elif args.format == "sarif":
        report = render_sarif(result, rules)
    else:
        report = render_text(result)
    if args.output is not None:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
        print(result.summary())
    else:
        print(report)
    return result.exit_code


def run_lint_safely(args: argparse.Namespace) -> int:
    """:func:`run_lint` with internal faults mapped to exit code 2.

    CI keys off the exit code: 1 means "the code broke policy", 2 means
    "the linter itself did not produce a verdict" (crash, unreadable
    input). A traceback leaking out as a generic nonzero exit would make
    a tooling failure look like a finding.
    """
    try:
        return run_lint(args)
    except SystemExit:
        raise  # usage errors keep argparse semantics
    except Exception as exc:  # reprolint: disable=except-hygiene
        print(f"reprolint: internal error: {type(exc).__name__}: {exc}")
        return EXIT_ERROR


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro lint`` and ``python -m repro.lint.cli``."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST-based invariant checker for the BlinkRadar reproduction.",
    )
    add_lint_arguments(parser)
    return run_lint_safely(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
