"""Regenerate the deviating oracles in data/ from the search.

Usage (from the repository root)::

    python3 bench/make_oracles.py

The selection is the one of the ``dev9_14`` fixture in tests/conftest.py:
standard-form presentations whose deviating centralizers are all Ex, most
deviations first.  Over GF(9) at class 14 that gives deviations 6, 9, 12;
over GF(25) at class 14 the only such presentation deviates at 10.  Both
fields use mu^2 = 2.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from thinlie import maxclass as mc  # noqa: E402
from thinlie.gf import make_ext_field  # noqa: E402


def most_deviating(field, class_n):
    best = []
    for pres in mc.search_sequences(field, class_n, 10**9):
        if not mc.is_standard(pres):
            continue
        seq = mc.two_step_centralizers(pres)
        devs = seq.deviations()
        if devs and all(seq.point(d) == mc.ex_point(field) for d in devs):
            best.append((-len(devs), len(best), pres))
    return min(best)[2]


def main():
    for name, p in (("dev9_14", 3), ("dev25_14", 5)):
        pres = most_deviating(make_ext_field(p, 0, 2), 14)
        print(name, mc.two_step_centralizers(pres).deviations())
        with open(os.path.join(HERE, "data", name + ".json"), "w", encoding="utf-8") as fh:
            json.dump(mc.to_json(pres), fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
