"""The structure table stored by total degree against the dict table it replaced.

``maxclass._Structure`` keeps the cells [v_i, v_{t-i}] as one row per
total degree t, so a retraction clears one row, and ``maxclass.validate``
evaluates the open Jacobi triples of each top in one loop and counts the
triples it checked in closed form.  The dict table with its per-triple
``jacobi``, its per-top ``check_new`` and the triple list ``new_triples``
is the oracle ``dict_structure``; ``test_lemma`` checks the lemmas on it.
Here the two layouts are compared: ``validate``'s reports on searched and
perturbed presentations over GF(4), GF(9) and GF(25); the tables of
valid and of ``apply_degree1_change``'s presentations; the cells, open triples,
lookups and search columns at every push of random tables and at every
node of two searches, whose leaves are the search's output in order; the
triple count; and ``reconstruct._top_bracket`` against the scan of every
cell.
"""

import random

import pytest

import dict_structure as ds
import paper_checks as pc
from test_lemma import _residue_pair, _table_key
from thinlie import maxclass as mc
from thinlie import reconstruct as rec
from thinlie.errors import ZeroPair
from thinlie.gf import make_ext_field

SEARCHED = ["search4_12", "search9_12", "search25_12"]


def assert_same_table(new, old):
    """The row table ``new`` holds what the dict table ``old`` holds, and
    nothing above its top."""
    assert _table_key(new) == _table_key(old)
    assert new.rows[new.top + 1:] == [None] * (new.class_n - new.top)


def twin_pushes(F, seed, tables):
    """Random tables of classes 4-16, pushed into both layouts in step.

    Yields (new, old) after every push; a probe push, retracted after its
    yield, comes before each kept push.
    """
    rng = random.Random(seed)
    for _ in range(tables):
        class_n = rng.randint(4, 16)
        new, old = mc._Structure(F, class_n), ds.DictStructure(F, class_n)
        for d in range(2, class_n):
            for keep in (False, True):
                pair = _residue_pair(F, rng)
                new.extend(d, pair)
                added = old.extend(d, pair)
                yield new, old
                if not keep:
                    new.retract(d)
                    old.retract(d, added)


@pytest.mark.parametrize(
    "p, u, v", [(2, 1, 1), (3, 0, 2), (5, 0, 2), (7, 0, 3), (1000003, 271828, 314159)],
    ids=["4", "9", "25", "49", "bigp"],
)
def test_pushes_match_dict_table(p, u, v):
    """At every push of random tables, valid or not, with c != 1 chain
    steps: the same pairs, chain steps and cells, nothing above the top,
    the same open triples, lookups [v_i, v_j] and columns of the next
    push.  At p = 1000003 a dropped or misplaced reduction would show."""
    F = make_ext_field(p, u, v)
    pushes = scaled = 0
    for new, old in twin_pushes(F, f"rows-{p}", tables=60):
        assert_same_table(new, old)
        assert new.open_triples() == old.open_triples()
        degrees = range(2, new.top + 2)
        assert [pc.vv(new, i, j) for i in degrees for j in degrees] == [
            old.get_vv(i, j) for i in degrees for j in degrees
        ]
        if new.top < new.class_n:
            assert new.linear_forms() == old.linear_forms()
        pushes += 1
        scaled += any(c_inv != F.one for c_inv, _ in new.step.values())
    assert pushes > 500 and scaled > 100


@pytest.mark.parametrize("found", SEARCHED)
def test_validate_matches_dict_oracle(request, found):
    """``validate`` gives the oracle's report (ok, first failure, triples
    checked) on every searched presentation and on three perturbations of
    each, with one or two pairs redrawn, and raises ZeroPair where it
    does.  It stores nothing on the presentation, and a passing one's
    table (``paper_checks.table``) is the oracle's."""
    rng = random.Random(f"validate-{found}")
    outcomes = set()
    for pres in request.getfixturevalue(found):
        F = pres.field
        elems = list(F.elements())
        cands = [pres.adjoint]
        for _ in range(3):
            adj = list(pres.adjoint)
            for d in rng.sample(range(len(adj)), rng.choice((1, 1, 2))):
                adj[d] = (rng.choice(elems), rng.choice(elems))
            cands.append(tuple(adj))
        for adj in cands:
            fresh, oracle = (mc.MaxClassPresentation(F, pres.class_n, adj) for _ in "ab")
            try:
                want = ds.validate(oracle)
            except ZeroPair:
                with pytest.raises(ZeroPair):
                    mc.validate(fresh)
                outcomes.add("zero")
                continue
            assert mc.validate(fresh) == want, adj
            assert set(vars(fresh)) == {"field", "class_n", "adjoint"}
            if want.ok:
                assert_same_table(pc.table(fresh), ds.table(fresh))
            outcomes.add(want.first_failure[0] if not want.ok else "ok")
    assert {"ok", "zero", "v2"} < outcomes and len(outcomes) > 6


@pytest.mark.parametrize("found", SEARCHED)
def test_degree1_change_table_matches_dict_oracle(request, found):
    """``apply_degree1_change`` pushes the base-changed pairs with
    ``extend`` alone; its table is the oracle's for those pairs, which
    pass the oracle's validator."""
    rng = random.Random(f"change-{found}")
    for pres in request.getfixturevalue(found)[:40]:
        F = pres.field
        elems = list(F.elements())
        for _ in range(3):
            xp, yp = (rng.choice(elems), rng.choice(elems)), (rng.choice(elems), rng.choice(elems))
            if F.is_zero(F.sub(F.mul(xp[0], yp[1]), F.mul(xp[1], yp[0]))):
                continue
            out = pc.apply_degree1_change(pres, xp, yp)
            assert ds.validate(out).ok
            assert_same_table(pc.table(out), ds.table(out))


@pytest.mark.parametrize("p, u, v, class_n", [(2, 1, 1, 14), (3, 0, 2, 14)], ids=["4_14", "9_14"])
def test_search_nodes_match_dict_table(p, u, v, class_n):
    """Both layouts pushed in step down the search tree (every pair of each
    node's projective kernel, every point of P^1(E) at a free node): the
    same table and columns at every node, and the leaves, in the order
    visited, are ``search_sequences``'s output."""
    F = make_ext_field(p, u, v)
    reps = [(F.one, t) for t in F.elements()] + [mc.ey_point(F)]
    new, old = mc._Structure(F, class_n), ds.DictStructure(F, class_n)
    leaves = []

    def walk(d, stack):
        if d == class_n:
            leaves.append(mc.MaxClassPresentation(F, class_n, stack))
            return
        assert_same_table(new, old)
        cols = new.linear_forms()
        assert cols == old.linear_forms()
        kernel = mc.projective_kernel(F, *cols)
        for pair in reps if kernel is None else kernel:
            new.extend(d, pair)
            added = old.extend(d, pair)
            walk(d + 1, stack + (pair,))
            new.retract(d)
            old.retract(d, added)

    walk(2, ())
    assert len(leaves) > 500
    assert mc.search_sequences(F, class_n, 10**9) == leaves


def test_triple_count_closed_form(f4):
    """(t >= 4) + 2*max(0, t//2 - 2) is the length of the oracle's triple
    list for t = 3..200, and ``validate`` of metabelian GF(4) of every
    class 4..200 counts that many triples per top."""
    for t in range(3, 201):
        assert (t >= 4) + 2 * max(0, t // 2 - 2) == len(ds.new_triples(t))
    total = len(ds.new_triples(3))
    for class_n in range(4, 201):
        total += len(ds.new_triples(class_n))
        report = mc.validate(mc.make_metabelian(f4, class_n))
        assert report.ok and report.triples_checked == total


def test_top_bracket_matches_scan(search9_12, search25_12, dev9_14, dev25_14):
    """``_top_bracket`` reads the rows of total degree <= window; it equals
    the scan of every cell of the oracle table at every window from 4 to
    the class, on searched and deviating presentations."""
    seen = set()
    for pres in [*search9_12, *search25_12[::7], dev9_14, dev25_14]:
        st, old = pc.table(pres), ds.table(pres)
        for window in range(4, pres.class_n + 1):
            m = rec._top_bracket(st, window)
            assert m == pc.top_bracket_scan(old, window), (pres.adjoint, window)
            seen.add((m, window < pres.class_n))
    assert {m for m, below in seen if below} == {1, 3, 5}
