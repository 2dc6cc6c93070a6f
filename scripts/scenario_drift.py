"""Run the six scenario files and report how far their outputs drifted.

    python3 scripts/scenario_drift.py OUT [BASE]

Every scenarios/*.json runs in-process into OUT/<name>/, and each output
file is listed with its sha256, a diagnostics.json also with the number of
solver windows it records.  Given BASE, the OUT of an earlier run,
each file is then reported as "identical" or with the largest absolute
and relative difference over its floats (JSON floats, CSV cells, and
whitespace-separated fields of text files); JSON integers are counts, so
the ones that differ are counted apart ("N integer fields differ") rather
than read as a relative drift.  Fields are matched by their key path in a
JSON file ($.windows[3].t1) and by line and column in any other.  A
non-numeric field that differs is reported at its place with both values,
and fields that only one file has are counted per side with the first of
each, so a JSON file that only gained fields reads "0 only in BASE".  The
window counts of BASE and OUT follow, one line per diagnostics.json.  The
exit code is 1 when a scenario run fails, when the two file sets differ,
or when a non-numeric field differs or exists in one file only;
otherwise 0.
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


def _json_fields(obj, path="$"):
    """(key path, leaf) of every leaf of a JSON value; an empty list or
    object is a leaf too."""
    if isinstance(obj, dict) and obj:
        for k in sorted(obj):
            yield from _json_fields(obj[k], f"{path}.{k}")
    elif isinstance(obj, list) and obj:
        for i, v in enumerate(obj):
            yield from _json_fields(v, f"{path}[{i}]")
    else:
        yield path, obj


def fields(path: Path) -> dict:
    """The file's fields by place, in order: a JSON file's leaves by key
    path (integers as ints, other numbers as floats), any other file's
    fields by line and column as floats where they parse, else strings."""
    text = path.read_text()
    if path.suffix == ".json":
        return dict(_json_fields(json.loads(text)))
    sep = "," if path.suffix == ".csv" else None
    return {f"line {i}, field {j}": _field(c)
            for i, line in enumerate(text.splitlines(), 1)
            for j, c in enumerate(line.split(sep), 1)}


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def drift(a: Path, b: Path) -> dict:
    """How file a differs from file b, field by field on the places both
    have: max_abs and max_rel over the floats, int_diffs (integers that
    differ), text (place, a's and b's value of the first non-numeric field
    that differs, or None), and only_a, only_b (places one file lacks)."""
    fa, fb = fields(a), fields(b)
    d = {"max_abs": 0.0, "max_rel": 0.0, "int_diffs": 0, "text": None,
         "only_a": [p for p in fa if p not in fb], "only_b": [p for p in fb if p not in fa]}
    for place, x in fa.items():
        if place not in fb:
            continue
        y = fb[place]
        if not (_number(x) and _number(y)):
            if d["text"] is None and (type(x) is not type(y) or x != y):
                d["text"] = (place, x, y)
        elif isinstance(x, int) and isinstance(y, int):
            d["int_diffs"] += x != y
        elif x != y and not (math.isnan(x) and math.isnan(y)):
            diff = abs(x - y)
            d["max_abs"] = max(d["max_abs"], diff)
            d["max_rel"] = max(d["max_rel"], diff / max(abs(x), abs(y)))
    return d


def _report(d: dict):
    """(report text, whether the difference is numeric only) for drift(OUT, BASE)."""
    if d["text"] is not None:
        place, x, y = d["text"]
        line = f"non-numeric field differs at {place}: OUT {x!r}, BASE {y!r}"
    else:
        line = f"max abs {d['max_abs']:.3e}, max rel {d['max_rel']:.3e}"
        if d["int_diffs"]:
            line += f", {d['int_diffs']} integer fields differ"
    only = [f"{len(d[k])} only in {side}" + (f" (first {d[k][0]})" if d[k] else "")
            for k, side in (("only_a", "OUT"), ("only_b", "BASE"))]
    if d["only_a"] or d["only_b"]:
        line += "; fields " + ", ".join(only)
    return line, d["text"] is None and not (d["only_a"] or d["only_b"])


def compare(out: Path, base: Path):
    """One report line per file of out and base; the bool is False when the
    file sets differ, or a non-numeric field differs or is in one file only."""
    new, old = output_files(out), output_files(base)
    lines, ok = [], True
    for name in sorted(new.keys() | old.keys()):
        if name not in old or name not in new:
            lines.append(f"{name}: only in {'OUT' if name in new else 'BASE'}")
            ok = False
        elif new[name] == old[name]:
            lines.append(f"{name}: identical")
        else:
            line, numeric = _report(drift(out / name, base / name))
            lines.append(f"{name}: {line}")
            ok = ok and numeric
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
