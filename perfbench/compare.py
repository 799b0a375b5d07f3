"""Compare two benchmark run records.

    python3 perfbench/compare.py BASE.json NEW.json

The records are the .perfbench_out/result-*.json files that run.py writes.
Records of different workloads, or made with different arithmetic backends
(``Fraction`` without gmpy2, ``mpq`` with it), are refused with exit code 2:
their timings measure different programs.  Otherwise each metric is printed
with both values and NEW/BASE, and an end-to-end metric that got worse by
more than its bound in BENCHMARK.json is marked.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    if base["workload"] != new["workload"]:
        print(f"refused: workloads differ ({base['workload']} vs {new['workload']})",
              file=sys.stderr)
        return 2
    if base["stamp"]["backend"] != new["stamp"]["backend"]:
        print(f"refused: arithmetic backends differ ({base['stamp']['backend']} vs "
              f"{new['stamp']['backend']})", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in declared["end_to_end"]}
    for label, rec in (("base", base), ("new", new)):
        s = rec["stamp"]
        print(f"{label}: {rec['workload']} seed {s['seed']} git {s['git_rev'][:12]}"
              f"{' (dirty)' if s['git_dirty'] else ''} python {s['python']} "
              f"backend {s['backend']} nproc {s['nproc']}")
    for section in ("metrics", "layers"):
        common = [k for k in base.get(section, {}) if k in new.get(section, {})]
        for name in common:
            (b, unit), (n, _) = base[section][name], new[section][name]
            ratio = f"{n / b:8.3f}x" if b else "        -"
            flag = ""
            if name in bounds:
                m = bounds[name]
                worse = n > b if m["better"] == "lower" else n < b
                if worse and b and abs(n - b) / abs(b) > m["bound"]:
                    flag = f"  WORSE beyond bound {m['bound']}"
            print(f"  {name:45s} {b:14.6g} {n:14.6g} {ratio} {unit}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
