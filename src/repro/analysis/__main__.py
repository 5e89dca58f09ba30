"""CLI: ``python -m repro.analysis [paths...]``.

Exit status 0 when the tree is clean, 1 when any finding is reported,
2 on usage errors. Default paths are ``src`` and ``tests`` relative to
the current working directory (the repo root in CI).

Flags::

    --rules CODES        comma-separated rule codes to run (default: all)
    --json               emit findings as JSON
    --list-rules         print the rule catalog and exit
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .engine import analyze_paths, rule_code
from .rules import ALL_RULES, RULE_DOCS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="InterEdge determinism & datapath-invariant checks",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to scan (default: src tests)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json", help="emit JSON findings"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, doc in sorted(RULE_DOCS.items()):
            print(f"{code}  {doc}")
        return 0

    paths = args.paths or [
        p for p in (Path("src"), Path("tests")) if p.is_dir()
    ]
    if not paths:
        print("no paths to scan (run from the repo root or pass paths)", file=sys.stderr)
        return 2

    rules = ALL_RULES
    if args.rules:
        wanted = {code.strip().upper() for code in args.rules.split(",")}
        unknown = wanted - set(RULE_DOCS)
        if unknown:
            print(f"unknown rule(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        rules = tuple(rule for rule in ALL_RULES if rule_code(rule) in wanted)

    findings = analyze_paths(paths, rules=rules)

    if args.as_json:
        print(
            json.dumps(
                [
                    {
                        "path": f.path,
                        "line": f.line,
                        "col": f.col,
                        "code": f.code,
                        "message": f.message,
                    }
                    for f in findings
                ],
                indent=2,
            )
        )
    else:
        for finding in findings:
            print(finding.render())
        summary = f"{len(findings)} finding(s)"
        print(summary if findings else "clean: 0 findings", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
