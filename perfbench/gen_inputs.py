"""Generate the ``cross_oracle`` inputs from a seed, as algebra documents.

    python3 perfbench/gen_inputs.py --seed 20260810 --out inputs.json

The items, in order:

* 20 random quotients of free nilpotent algebras over Q, cycling
  (d, c) = (2,2), (2,3), (3,2), (3,3), (1,1) four times.  At seed 20260810
  these are the quotients of acceptance criterion 5;
* the same (d, c) cycle again over GF(5), drawn from the same random stream;
* the whole free nilpotent algebra on 3 generators of class 3, over Q and
  over GF(5).

The cost of a quotient grows steeply with its size, and a quotient equal to
an earlier one is a cache hit, so free draws would make the run time depend
on the seed more than on the code.  Each slot therefore keeps drawing from
the stream until its quotient has the lower central series dims of the same
slot at seed 20260810, and equals an earlier quotient exactly when that
slot's does.  That seed's first draws match, so it still gives the
criterion-5 quotients.

This runs in its own interpreter so that the ``free_nilpotent`` cache it
fills is not the one the measured process uses.  The output is canonical
JSON, so one seed always gives byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import random

from lietensor import GF, QQ, free_nilpotent, ideal_closure, quotient_algebra
from lietensor.cli import algebra_document

DEFAULT_SEED = 20260810
CYCLE = [(2, 2), (2, 3), (3, 2), (3, 3), (1, 1)] * 4
MAX_DRAWS = 1000


def random_nilpotent_quotient(rng: random.Random, d: int, c: int, field):
    """Quotient of the free nilpotent algebra on (d, c) by the ideal closure
    of one or two random homogeneous seeds of degree >= 2.  Draws from
    ``rng`` in the same order as the test suite's generator of that name, so
    a seed reproduces its quotients."""
    F = free_nilpotent(d, c, field)
    n = F.algebra.dim
    layers = {}
    for i, deg in enumerate(F.degrees):
        layers.setdefault(deg, []).append(i)
    seeds = []
    for _ in range(rng.randint(1, 2)):
        degree = rng.randint(2, c) if c >= 2 else 2
        positions = layers.get(degree, [])
        if not positions:
            continue
        v = [field.zero] * n
        chosen = rng.sample(positions, min(len(positions), rng.randint(1, 3)))
        for i in chosen:
            v[i] = field.scalar(rng.choice([-2, -1, 1, 2]))
        seeds.append(v)
    ideal = ideal_closure(F.algebra, seeds)
    quotient, _ = quotient_algebra(F.algebra, ideal)
    return quotient


def shape(L, earlier: list) -> tuple:
    """Lower central series dims, and the index of the first earlier
    algebra equal to L (None if there is none)."""
    same = next((i for i, E in enumerate(earlier) if E == L), None)
    return tuple(s.dim for s in L.lower_central_series()), same


def quotients(seed: int, shapes=None) -> list:
    """The 40 quotients; with ``shapes``, each slot draws until its quotient
    has the given shape."""
    rng = random.Random(seed)
    out = []
    for field in (QQ, GF(5)):
        for d, c in CYCLE:
            for _ in range(MAX_DRAWS):
                L = random_nilpotent_quotient(rng, d, c, field)
                if shapes is None or shape(L, out) == shapes[len(out)]:
                    break
            else:
                raise RuntimeError(f"seed {seed}: no quotient of shape "
                                   f"{shapes[len(out)]} in {MAX_DRAWS} draws")
            out.append(L)
    return out


def generate(seed: int) -> dict:
    reference = quotients(DEFAULT_SEED)
    shapes = [shape(L, reference[:i]) for i, L in enumerate(reference)]
    labels = [f"{field.name}:quotient({d},{c})#{number}"
              for field in (QQ, GF(5)) for number, (d, c) in enumerate(CYCLE)]
    items = [{"label": label, "document": algebra_document(L)}
             for label, L in zip(labels, quotients(seed, shapes))]
    for field in (QQ, GF(5)):
        items.append({"label": f"{field.name}:free_nilpotent(3,3)",
                      "document": algebra_document(free_nilpotent(3, 3, field).algebra)})
    return {"seed": seed, "items": items}


def encode(inputs: dict) -> bytes:
    return (json.dumps(inputs, sort_keys=True, separators=(",", ":"))
            + "\n").encode("ascii")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.out, "wb") as fh:
        fh.write(encode(generate(args.seed)))


if __name__ == "__main__":
    main()
