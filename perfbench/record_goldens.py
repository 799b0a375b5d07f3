"""Record perfbench/goldens.json from the current sources.

    python3 perfbench/record_goldens.py

Run this only at a commit whose answers are known to be right.  It records
the ``verify --catalog`` report digest and one digest per catalog entry, the
envelope report digest and the abelian(16) dims, and for the default seed
and seeds 0 to 31 the ``cross_oracle`` inputs digest and, in the order of
``labels``, both engines' exterior and multiplier dims per item.  A
recording in which an item fails or the two engines disagree is refused.
"""

from __future__ import annotations

import json
import re
import time

import run

FIXED_ITEMS = ("Q:free_nilpotent(3,3)", "F5:free_nilpotent(3,3)")
SEEDS = [run.DEFAULT_SEED, *range(32)]


def deadline() -> float:
    return time.monotonic() + 600


def checked(rep: dict) -> dict:
    if "crashed" in rep or rep.get("exit_code"):
        raise SystemExit(f"recording run failed: {rep.get('crashed', rep)}")
    return rep


def record_catalog() -> dict:
    out = run.WORK / "record-catalog"
    checked(run.run_rep("catalog", out, deadline()))
    data = (out / "catalog.json").read_bytes()
    entries = {f"{e['name']}@{run.field_name(e['field'])}":
               {"status": e["status"], "sha256": run.json_digest(e)}
               for e in json.loads(data)["entries"]}
    return {"report_sha256": run.sha256(data), "entries": entries}


def record_envelope() -> dict:
    out = run.WORK / "record-envelope"
    rep = checked(run.run_rep("envelope", out, deadline()))
    items = {i["label"]: i for i in rep["items"]}
    if items["tensor_report"]["exit_code"] != 0:
        raise SystemExit(f"envelope report failed: {items['tensor_report']}")
    return {"report_sha256": run.sha256((out / "envelope.json").read_bytes()),
            "abelian16": items["abelian(16)"]["dims"]}


def record_cross_oracle(seeds: list[int]) -> dict:
    golden = {"labels": None, "fixed": {}, "seeds": {}}
    for seed in seeds:
        inputs = run.generate_inputs(seed, deadline())
        rep = checked(run.run_rep("cross_oracle", run.WORK / "record-cross_oracle",
                                  deadline(), inputs))
        for item in rep["items"]:
            if "error" in item or item["dims"][0] != item["dims"][1] \
                    or item["dims"][2] != item["dims"][3]:
                raise SystemExit(f"seed {seed}: {item}")
        dims = {item["label"]: item["dims"] for item in rep["items"]}
        golden["labels"] = list(dims)
        golden["fixed"] = {label: dims[label] for label in FIXED_ITEMS}
        golden["seeds"][str(seed)] = {"inputs_sha256": run.sha256(inputs.read_bytes()),
                                      "dims": list(dims.values())}
        print(f"cross_oracle seed {seed}: recorded", flush=True)
    return golden


def main() -> None:
    run.WORK.mkdir(exist_ok=True)
    goldens = {
        "recorded_at": run.git_stamp()["git_rev"],
        "catalog": record_catalog(),
        "envelope": record_envelope(),
        "cross_oracle": record_cross_oracle(SEEDS),
    }
    text = json.dumps(goldens, indent=1, sort_keys=True)
    # One line per dims list keeps the file short enough to review.
    text = re.sub(r"\[\s*(\d+(?:,\s*\d+)*)\s*\]",
                  lambda m: "[" + ", ".join(x.strip() for x in m.group(1).split(",")) + "]",
                  text)
    (run.HERE / "goldens.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
