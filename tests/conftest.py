"""Shared fixtures: fields, ambient presentations, and searched oracles.

Search results are session-scoped because the depth-first enumeration is
the only moderately expensive step in the suite.
"""

from __future__ import annotations

import pytest

import paper_checks as pc
from thinlie import maxclass as mc
from thinlie import subfield as sf
from thinlie.gf import make_ext_field


@pytest.fixture(scope="session")
def f9():
    return make_ext_field(3, 0, 2)


@pytest.fixture(scope="session")
def f4():
    return make_ext_field(2, 1, 1)


@pytest.fixture(scope="session")
def f25():
    return make_ext_field(5, 0, 2)


@pytest.fixture(scope="session")
def search9_12(f9):
    return mc.search_sequences(f9, 12, 10**9)


@pytest.fixture(scope="session")
def search9_14(f9):
    return mc.search_sequences(f9, 14, 10**9)


@pytest.fixture(scope="session")
def search4_12(f4):
    return mc.search_sequences(f4, 12, 10**9)


@pytest.fixture(scope="session")
def search25_12(f25):
    return mc.search_sequences(f25, 12, 10**9)


@pytest.fixture(scope="session")
def search25_14(f25):
    return mc.search_sequences(f25, 14, 10**9)


def _standard_all_ex_deviating(field, found):
    """Standard-form presentations whose deviations are all Ex, most devs first."""
    out = []
    for p in found:
        if not mc.is_standard(p):
            continue
        seq = mc.two_step_centralizers(p)
        devs = seq.deviations()
        if devs and all(seq.point(d) == mc.ex_point(field) for d in devs):
            out.append((len(devs), p))
    out.sort(key=lambda t: -t[0])
    return [p for _, p in out]


@pytest.fixture(scope="session")
def dev9_14(f9, search9_14):
    """Class-14 presentation over GF(9) deviating at 6, 9, 12 (all Ex)."""
    cands = _standard_all_ex_deviating(f9, search9_14)
    best = cands[0]
    assert mc.two_step_centralizers(best).deviations() == [6, 9, 12]
    return best


@pytest.fixture(scope="session")
def dev9_12(dev9_14):
    return pc.quotient(dev9_14, 12)


@pytest.fixture(scope="session")
def dev4_12(f4, search4_12):
    """A standard-form deviating presentation over GF(4), class 12."""
    cands = _standard_all_ex_deviating(f4, search4_12)
    assert cands
    return cands[0]


@pytest.fixture(scope="session")
def dev25_12(f25, search25_12):
    cands = _standard_all_ex_deviating(f25, search25_12)
    assert cands
    return cands[0]


@pytest.fixture(scope="session")
def dev25_14(f25, search25_14):
    """Class-14 presentation over GF(25) deviating at 10 (Ex)."""
    best = _standard_all_ex_deviating(f25, search25_14)[0]
    assert mc.two_step_centralizers(best).deviations() == [10]
    return best


@pytest.fixture(scope="session")
def thin_pair_f9(f9):
    """X = x + y, Y = mu*x + (mu+1)*y."""
    return sf.GeneratorPair(((1, 0), (1, 0)), ((0, 1), (1, 1)))


@pytest.fixture(scope="session")
def maximal_pair(f9):
    """X = x, Y = y."""
    return sf.GeneratorPair(((1, 0), (0, 0)), ((0, 0), (1, 0)))


@pytest.fixture(scope="session")
def rc_pair(f9):
    """X = y, Y = x + mu*y."""
    return sf.GeneratorPair(((0, 0), (1, 0)), ((1, 0), (0, 1)))
