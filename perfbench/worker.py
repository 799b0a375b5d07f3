"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py WORKLOAD --out DIR [--inputs FILE] [--trace FILE]

``import lietensor`` is the first import, so the monotonic time at which it
returns marks the end of set-up.  Package functions are looked up on the
``lietensor`` modules at call time, so that a tracer installed after import
sees every call.  The worker writes its outputs and a ``result.json`` into
DIR; run.py checks them against the goldens.  Every process-wide cache
starts empty here, as it does for a user of the CLI.
"""

import time

import lietensor

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from lietensor import cli  # noqa: E402

from tracer import Tracer, cache_hits  # noqa: E402

ENVELOPE_ALGEBRA = "+".join(["heisenberg(1)"] * 5)


def run_catalog(out: Path, items: list) -> dict:
    verify = cli.verify_document

    def timed(L, source):
        started = time.perf_counter()
        doc = verify(L, source)
        items.append({"label": f"{source}@{L.field.name}",
                      "seconds": time.perf_counter() - started})
        return doc
    # catalog_document looks verify_document up at call time, once per entry.
    cli.verify_document = timed
    code = cli.main(["verify", "--catalog", "--out", str(out / "catalog.json")])
    return {"exit_code": code}


def run_envelope(out: Path, items: list) -> dict:
    started = time.perf_counter()
    code = cli.main(["tensor", ENVELOPE_ALGEBRA, "--out", str(out / "envelope.json")])
    items.append({"label": "tensor_report", "seconds": time.perf_counter() - started,
                  "exit_code": code})
    started = time.perf_counter()
    T = lietensor.build_tensor_square(lietensor.abelian(16))
    dims = {"tensor_square": T.dim, "square_submodule": T.square_submodule.dim}
    items.append({"label": "abelian(16)", "seconds": time.perf_counter() - started,
                  "dims": dims})
    return {}


def run_cross_oracle(out: Path, items: list, inputs: Path) -> dict:
    with open(inputs, encoding="ascii") as fh:
        docs = json.load(fh)["items"]
    for entry in docs:
        started = time.perf_counter()
        item = {"label": entry["label"]}
        try:
            L = cli.parse_algebra_document(entry["document"])
            T = lietensor.build_tensor_square(L)
            P = lietensor.presentation_of(L)
            ext, _ = lietensor.exterior_via_presentation(P, T)
            mult = lietensor.multiplier_via_presentation(P)
            item["dims"] = [T.exterior_square()[0].dim, ext.dim,
                            T.schur_multiplier().dim, mult.dim]
        except Exception as exc:  # noqa: BLE001 - a failed item, not a failed run
            item["error"] = f"{type(exc).__name__}: {exc}"
        item["seconds"] = time.perf_counter() - started
        items.append(item)
    return {}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload",
                        choices=("setup", "catalog", "envelope", "cross_oracle"))
    parser.add_argument("--out")
    parser.add_argument("--inputs")
    parser.add_argument("--trace")
    args = parser.parse_args()
    result = {"imported_at": IMPORTED,
              "lietensor_file": lietensor.__file__,
              "backend": lietensor.fields._rational.__name__,
              "python": sys.version.split()[0]}
    if args.workload == "setup":
        print(json.dumps(result))
        return 0
    out = Path(args.out)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    items: list = []
    started = time.perf_counter()
    if args.workload == "catalog":
        result.update(run_catalog(out, items))
    elif args.workload == "envelope":
        result.update(run_envelope(out, items))
    else:
        result.update(run_cross_oracle(out, items, Path(args.inputs)))
    result["wall_s"] = time.perf_counter() - started
    result["items"] = items
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["cache_hits"] = cache_hits()
    if tracer is not None:
        result["layers"] = tracer.metrics(result["wall_s"])
        result["stages"] = tracer.stage_table()
        tracer.write_jsonl(args.trace)
    with open(out / "result.json", "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
