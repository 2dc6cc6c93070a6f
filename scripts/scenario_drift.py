"""Run the six scenario files and report how far their outputs drifted.

    python3 scripts/scenario_drift.py OUT [BASE]

Every scenarios/*.json runs in-process into OUT/<name>/, and each output
file is listed with its sha256, a diagnostics.json also with the number of
solver windows it records.  Given BASE, the OUT of an earlier run,
each file is then reported as "identical" or with the largest absolute
and relative difference over its floats (JSON floats, CSV cells, and
whitespace-separated fields of text files); JSON integers are counts, so
the ones that differ are counted apart ("N integer fields differ") rather
than read as a relative drift.  The window counts of BASE and OUT follow,
one line per diagnostics.json.  The exit code is 1 when a
scenario run fails, when the two file sets differ, or when a non-numeric
field differs; otherwise 0.
"""

import argparse
import hashlib
import json
import math
from pathlib import Path

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_all(out: Path) -> bool:
    """Run every scenario into out/<name>/; False if any run exits nonzero."""
    from semiflow.scenario import load_scenario, run_scenario

    ok = True
    for path in sorted(SCENARIOS.glob("*.json")):
        code = run_scenario(load_scenario(str(path)), str(out / path.stem), quiet=True)
        if code != 0:
            print(f"{path.stem}: exit {code}")
            ok = False
    return ok


def output_files(root: Path) -> dict:
    """Relative path -> sha256 of every file under root."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def window_count(path: Path):
    """Number of solver windows a diagnostics.json records; None for any
    other file."""
    if path.name != "diagnostics.json":
        return None
    windows = json.loads(path.read_text()).get("windows")
    return len(windows) if isinstance(windows, list) else None


def listing(root: Path) -> list:
    """One line per file under root: sha256, path, and the window count of
    a diagnostics.json."""
    lines = []
    for name, digest in output_files(root).items():
        n = window_count(root / name)
        lines.append(f"{digest}  {name}" + (f"  windows={n}" if n is not None else ""))
    return lines


def window_lines(out: Path, base: Path) -> list:
    """Window counts of BASE and OUT for every diagnostics.json in both."""
    lines = []
    for name in sorted(output_files(out).keys() & output_files(base).keys()):
        n_out, n_base = window_count(out / name), window_count(base / name)
        if n_out is not None and n_base is not None:
            lines.append(f"{name}: windows BASE {n_base}, OUT {n_out}")
    return lines


def _field(s: str):
    try:
        return float(s)
    except ValueError:
        return s


def _json_fields(obj):
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield k
            yield from _json_fields(obj[k])
    elif isinstance(obj, list):
        yield len(obj)
        for v in obj:
            yield from _json_fields(v)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj
    else:
        yield repr(obj)


def fields(path: Path) -> list:
    """The file's fields in order: JSON integers as ints, other numbers as
    floats and the rest as strings."""
    text = path.read_text()
    if path.suffix == ".json":
        return list(_json_fields(json.loads(text)))
    sep = "," if path.suffix == ".csv" else None
    return [_field(c) for line in text.splitlines() for c in line.split(sep)]


def drift(a: Path, b: Path):
    """(max absolute, max relative difference over the floats, number of
    differing integers) of two files, or None when a non-numeric field or
    the field count differs."""
    fa, fb = fields(a), fields(b)
    if len(fa) != len(fb):
        return None
    d_abs = d_rel = 0.0
    n_int = 0
    for x, y in zip(fa, fb):
        if isinstance(x, str) or isinstance(y, str):
            if x != y:
                return None
        elif isinstance(x, int) and isinstance(y, int):
            n_int += x != y
        elif x != y and not (math.isnan(x) and math.isnan(y)):
            d = abs(x - y)
            d_abs = max(d_abs, d)
            d_rel = max(d_rel, d / max(abs(x), abs(y)))
    return d_abs, d_rel, n_int


def compare(out: Path, base: Path):
    """One report line per file of out and base; the bool is False when the
    file sets differ or a non-numeric field differs."""
    new, old = output_files(out), output_files(base)
    lines, ok = [], True
    for name in sorted(new.keys() | old.keys()):
        if name not in old or name not in new:
            lines.append(f"{name}: only in {'OUT' if name in new else 'BASE'}")
            ok = False
        elif new[name] == old[name]:
            lines.append(f"{name}: identical")
        else:
            d = drift(out / name, base / name)
            if d is None:
                lines.append(f"{name}: non-numeric field differs")
                ok = False
            else:
                line = f"{name}: max abs {d[0]:.3e}, max rel {d[1]:.3e}"
                if d[2]:
                    line += f", {d[2]} integer fields differ"
                lines.append(line)
    return lines, ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="empty or new directory for the outputs")
    ap.add_argument("base", type=Path, nargs="?",
                    help="OUT of an earlier run to compare against")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    if any(args.out.iterdir()):
        ap.error(f"{args.out} is not empty")

    ok = run_all(args.out)
    print("\n".join(listing(args.out)))
    if args.base is not None:
        lines, same_files = compare(args.out, args.base)
        print("\n".join(lines + window_lines(args.out, args.base)))
        ok = ok and same_files
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
