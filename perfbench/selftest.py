"""The benchmark's own checks.

    python3 perfbench/selftest.py

1. A corrupted golden, a crashed repetition and changed inputs are each
   counted as failures.
2. The self times in a traced run, recomputed from its span file, sum to no
   more than its wall time.
3. The same seed regenerates byte-identical cross_oracle inputs, and a
   different seed changes them.

Takes about as long as one traced cross_oracle repetition.  Exits 1 if any
check fails.
"""

from __future__ import annotations

import copy
import json
import sys
import time

import run

failed = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failed.append(what)


def check_inputs(deadline: float) -> None:
    seed = run.DEFAULT_SEED
    first = run.generate_inputs(seed, deadline).read_bytes()
    again = run.generate_inputs(seed, deadline).read_bytes()
    other = run.generate_inputs(seed + 1, deadline).read_bytes()
    expect(first == again, "the same seed regenerates byte-identical inputs")
    expect(first != other, "a different seed changes the inputs")


def check_goldens(rep: dict, inputs_sha: str, golden: dict) -> None:
    seed = run.DEFAULT_SEED
    attempted, failures = run.check_cross_oracle(rep, inputs_sha, seed, golden)
    expect(attempted == 42 and not failures,
           f"cross_oracle matches its goldens ({attempted} items, {failures})")

    label = golden["labels"][3]
    bad = copy.deepcopy(golden)
    bad["seeds"][str(seed)]["dims"][3][0] += 1
    failures = run.check_cross_oracle(rep, inputs_sha, seed, bad)[1]
    expect([f[0] for f in failures] == [label],
           "a corrupted seeded dims golden is one failure")

    bad = copy.deepcopy(golden)
    bad["fixed"]["F5:free_nilpotent(3,3)"][2] += 1
    failures = run.check_cross_oracle(rep, inputs_sha, seed, bad)[1]
    expect([f[0] for f in failures] == ["F5:free_nilpotent(3,3)"],
           "a corrupted free nilpotent golden is one failure")

    failures = run.check_cross_oracle(rep, "0" * 64, seed, golden)[1]
    expect(len(failures) == 42, "inputs that differ from the golden fail every item")

    failures = run.check_cross_oracle({"crashed": "exit 1"}, inputs_sha, seed, golden)[1]
    expect(len(failures) == 42, "a crashed repetition fails every item")

    out = run.WORK / "selftest-report"
    out.mkdir(exist_ok=True)
    (out / "envelope.json").write_bytes(b"{}\n")
    fake = {"items": [{"label": "tensor_report", "exit_code": 0},
                      {"label": "abelian(16)", "dims": {"square_submodule": 136,
                                                        "tensor_square": 256}}]}
    good = {"report_sha256": run.sha256(b"{}\n"),
            "abelian16": {"square_submodule": 136, "tensor_square": 256}}
    expect(run.check_envelope(fake, out, good)[1] == [],
           "a report matching its digest passes")
    bad = dict(good, report_sha256="f" + good["report_sha256"][1:])
    expect(len(run.check_envelope(fake, out, bad)[1]) == 1,
           "a corrupted report digest golden is one failure")


def check_self_times(rep: dict, trace_path) -> None:
    spans = [json.loads(line) for line in trace_path.read_text().splitlines()]
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    total = sum(s["end"] - s["start"] - c for s, c in zip(spans, covered))
    expect(len(spans) > 0 and 0 < total <= rep["wall_s"],
           f"traced self times sum to {total:.3f} s <= wall_s {rep['wall_s']:.3f} s")


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    deadline = time.monotonic() + 600
    golden = json.loads((run.HERE / "goldens.json").read_text())["cross_oracle"]
    check_inputs(deadline)
    inputs = run.generate_inputs(run.DEFAULT_SEED, deadline)
    trace_path = run.WORK / "selftest.jsonl"
    rep = run.run_rep("cross_oracle", run.WORK / "selftest", deadline, inputs,
                      trace_path)
    expect("crashed" not in rep, "the traced repetition ran"
           + (f": {rep['crashed']}" if "crashed" in rep else ""))
    if "crashed" in rep:
        return 1
    check_goldens(rep, run.sha256(inputs.read_bytes()), golden)
    check_self_times(rep, trace_path)
    print(f"{len(failed)} check(s) failed" if failed else "all checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
