"""Print ROADMAP aim 2's three yardsticks of a source tree as one JSON line.

    python3 scripts/design_metrics.py [ROOT]

ROOT is a checkout of this repository (default: the one holding this
script).  The line holds:

- src_lines: the lines of every .py file under ROOT/src;
- branch_sites: the lines of ROOT/src/semiflow/*.py that branch on the
  working order (analytic_alpha) or on DenseGenerator, by BRANCH_SITES;
- public_names: the distinct names in the __all__ lists of those modules,
  so a name the package re-exports counts once.
"""

import argparse
import ast
import json
import re
from pathlib import Path

BRANCH_SITES = re.compile(
    r"alpha (>|==|!=) 0\.0|\ba > 0\.0|isinstance\([^)]*DenseGenerator|analytic_alpha (is|==)")


def _all_names(source: str) -> set:
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


def measure(root: Path) -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in (root / "src").rglob("*.py"))
    branch_sites, public = 0, set()
    for path in sorted((root / "src" / "semiflow").glob("*.py")):
        text = path.read_text()
        branch_sites += sum(1 for line in text.splitlines() if BRANCH_SITES.search(line))
        public |= _all_names(text)
    return {"src_lines": src_lines, "branch_sites": branch_sites,
            "public_names": len(public)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", nargs="?", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    print(json.dumps(measure(ap.parse_args().root), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
