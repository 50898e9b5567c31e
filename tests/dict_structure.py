"""The structure table before it was stored by total degree, kept as an oracle.

``maxclass._Structure`` keeps one list of cells per total degree and
``maxclass.validate`` evaluates the open Jacobi triples of each top in
one loop.  Before that, the cells were one dict keyed by (i, j), each
Jacobi form was a ``jacobi`` call and each top a ``check_new`` call over
the lru-cached list ``new_triples``.  That table is ``DictStructure``
here, with ``retract`` taking the keys ``extend`` returned, as it did, and
``validate`` is the validator on it.  The tests compare the reports, the
cells and the search's columns and output of the two layouts, and the
lemma tests of ``test_lemma`` run on this one.  ``cells`` reads either
table as the dict this one holds.
"""

from __future__ import annotations

from functools import lru_cache

from thinlie import maxclass as mc


class DictStructure:
    """Scalar multiplication table of a (partially built) presentation, one
    dict cell per (i, j).

    Basis degrees run from 1 (x and y) through ``top``.  Pairs are pushed
    one degree at a time; each push derives the bracket coefficients
    [v_i, v_j] of total degree top and exposes the Jacobi checks that
    become visible at that total degree.  Pushes can be retracted, which
    is what the depth-first search uses for backtracking.
    """

    def __init__(self, field: ExtField, class_n: int):
        self.field = field
        self.class_n = class_n
        self.top = 2
        self.a: Dict[int, EElem] = {}
        self.b: Dict[int, EElem] = {}
        self.vv: Dict[Tuple[int, int], EElem] = {}
        # degree d -> (c^{-1}, g's coefficients) with v_{d+1} = c^{-1}*[v_d, g]
        self.step: Dict[int, Tuple[EElem, Dict[int, EElem]]] = {}

    # -- coefficient lookups ------------------------------------------------

    def get_vv(self, i: int, j: int) -> EElem:
        """Coefficient of [v_i, v_j] in v_{i+j} (0 on overflow)."""
        if i == j:
            return self.field.zero
        if i < j:
            return self.vv.get((i, j), self.field.zero)
        return self.field.neg(self.vv.get((j, i), self.field.zero))

    # -- incremental construction -------------------------------------------

    def extend(self, d: int, pair: Pair) -> List[Tuple[int, int]]:
        """Push the adjoint pair of degree d; derive cells of total d+1.

        The chain is canonical: v_{d+1} = c^{-1}*[v_d, g] with g = x and
        c = a_d when a_d != 0, else g = y and c = b_d.  That choice is made
        here once and read by the cells of later degrees.  Every pair the
        search pushes is (1 : t) or (0 : 1), so c = 1 needs no inversion.
        The pair must be field elements (every caller pushes them).

        The table kernel (``extend``, ``jacobi``, ``linear_forms``) expands
        each product of GF(p^2) in place, with mu^2 = u*mu + v:
        (x0 + x1*mu)(y0 + y1*mu) = x0*y0 + v*x1*y1 + (x0*y1 + x1*y0 + u*x1*y1)*mu.
        The sums and differences of such products are taken over the
        integers and each coordinate of a result is reduced mod p once;
        Python ints are exact, so the residues are those of the field
        operations one at a time.
        """
        F = self.field
        zero, one = F.zero, F.one
        a, b, vv, step = self.a, self.b, self.vv, self.step
        a_d, b_d = pair
        if a_d == zero and b_d == zero:
            raise mc.ZeroPair(f"adjoint pair at degree {d} is (0, 0)")
        assert d == self.top, "pairs must be pushed in degree order"
        a[d], b[d] = pair
        c, g = (a_d, a) if a_d != zero else (b_d, b)
        step[d] = (c if c == one else F.inv(c), g)
        self.top = total = d + 1
        p, U, V = F.p, F.u, F.v
        added: List[Tuple[int, int]] = []
        for i in range(2, (total + 1) // 2):
            j = total - i
            if i == 2:
                # [v_2, v_j] = a_j*b_{j+1} - b_j*a_{j+1}, from v_2 = [y, x]:
                # [[y,x],v_j] = -[[x,v_j],y] - [[v_j,y],x]
                x0, x1 = a[j]
                y0, y1 = b[j + 1]
                z0, z1 = b[j]
                w0, w1 = a[j + 1]
                cross = x1 * y1 - z1 * w1
                r0 = x0 * y0 - z0 * w0 + V * cross
                r1 = x0 * y1 + x1 * y0 - z0 * w1 - z1 * w0 + U * cross
            else:
                # expand v_i = c^{-1} [v_{i-1}, g]:
                # [v_i, v_j] = c^{-1}( [v_{i-1},v_j]*g_{i+j-1} - g_j*[v_{i-1},v_{j+1}] ),
                # where [v_{i-1}, v_{j+1}] is the cell derived just before (r0, r1)
                c_inv, g = step[i - 1]
                s0, s1 = vv[(i - 1, j)]
                t0, t1 = g[total - 1]
                x0, x1 = g[j]
                cross = s1 * t1 - x1 * r1
                r0, r1 = (
                    s0 * t0 - x0 * r0 + V * cross,
                    s0 * t1 + s1 * t0 - x0 * r1 - x1 * r0 + U * cross,
                )
                if c_inv != one:
                    c0, c1 = c_inv
                    cross = c1 * r1
                    r0, r1 = c0 * r0 + V * cross, c0 * r1 + c1 * r0 + U * cross
            r0 %= p
            r1 %= p
            key = (i, j)
            vv[key] = (r0, r1)
            added.append(key)
        return added

    def retract(self, d: int, added: List[Tuple[int, int]]) -> None:
        for key in added:
            del self.vv[key]
        del self.a[d]
        del self.b[d]
        del self.step[d]
        self.top = d

    def jacobi(self, u: int, w: int, g: int) -> EElem:
        """Coefficient of J(u,w,g) = [[u,w],g] + [[w,g],u] + [[g,u],w] in v_top.

        Valid for the triples of ``new_triples(top)`` (ids: 0 = x, 1 = y,
        k = v_k), which have two shapes.  With [v_t, x] = a_t*v_{t+1},
        [v_t, y] = b_t*v_{t+1}, so [x, v_t] = -a_t*v_{t+1}, and
        [x, y] = -v_2:

        * J(v_m, x, y) = [a_m*v_{m+1}, y] + [-v_2, v_m] + [-b_m*v_{m+1}, x]
          = a_m*b_{m+1} - [v_2, v_m] - b_m*a_{m+1};
        * J(v_i, v_j, g), i < j and g_t = a_t for g = x or b_t for g = y:
          [v_i, v_j]*g_{i+j} + [g_j*v_{j+1}, v_i] + [-g_i*v_{i+1}, v_j]
          = [v_i, v_j]*g_{i+j} - g_j*[v_i, v_{j+1}] - g_i*[v_{i+1}, v_j].

        Each form is one sum of expanded products, reduced mod p once per
        coordinate (``extend``).
        """
        F = self.field
        p, U, V = F.p, F.u, F.v
        vv, zero = self.vv, F.zero  # vv holds no cell (i, i): .get gives 0 there
        if w == 0:
            a, b = self.a, self.b
            x0, x1 = a[u]
            y0, y1 = b[u + 1]
            z0, z1 = b[u]
            t0, t1 = a[u + 1]
            s0, s1 = vv.get((2, u), zero)
            cross = x1 * y1 - z1 * t1
            return (
                (x0 * y0 - z0 * t0 + V * cross - s0) % p,
                (x0 * y1 + x1 * y0 - z0 * t1 - z1 * t0 + U * cross - s1) % p,
            )
        gk = self.a if g == 0 else self.b
        # u < w, and every cell read has total degree top - 1 or top
        s0, s1 = vv[(u, w)]
        t0, t1 = gk[u + w]
        x0, x1 = gk[w]
        y0, y1 = vv[(u, w + 1)]
        z0, z1 = gk[u]
        q0, q1 = vv.get((u + 1, w), zero)
        cross = s1 * t1 - x1 * y1 - z1 * q1
        return (
            (s0 * t0 - x0 * y0 - z0 * q0 + V * cross) % p,
            (s0 * t1 + s1 * t0 - x0 * y1 - x1 * y0 - z0 * q1 - z1 * q0 + U * cross) % p,
        )

    # -- checks ---------------------------------------------------------------

    def open_triples(self, top: Optional[int] = None) -> List[Tuple[int, int, int, int]]:
        """The triples of ``new_triples(top)`` the table does not prove, in order.

        Each entry is (n, u, w, g) with n the 1-based position of (u, w, g)
        in ``new_triples(top)``.  By the chain lemma (``new_triples``) they
        are (v_2, x, y) at top = 4 only, then per 2 <= i < j = top - 1 - i
        both generators if j = i + 1, else the generator that is not the
        chain generator of degree i.  That reads the chain steps of degrees
        below top / 2 only, so ``top`` may be one above the table's
        (``linear_forms``); it defaults to the table's.
        """
        top = self.top if top is None else top
        out = [(1, 2, 0, 1)] if top == 4 else []
        b, step = self.b, self.step
        for i in range(2, top // 2):
            j, n = top - 1 - i, 2 * i - 2
            if j == i + 1:
                out += ((n, i, j, 0), (n + 1, i, j, 1))
            else:
                g = 0 if step[i][1] is b else 1
                out.append((n + g, i, j, g))
        return out

    def check_new(self):
        """Jacobi on the basis triples of total degree == top with a generator.

        Returns (first_failing_triple_labels_or_None, number_checked); a
        triple (u, w, g) is labelled with u, w in descending order, so
        (v_m, x, y) and (v_j, v_i, g) for i < j.  Only the open triples
        (``open_triples``) are evaluated: the others are zero by the chain
        lemma (``new_triples``), so the first failure and its position in
        ``new_triples(top)`` are those of the full list, and a pass counts
        the whole list as checked.
        """
        jacobi, zero = self.jacobi, self.field.zero
        for n, u, w, g in self.open_triples():
            if jacobi(u, w, g) != zero:
                return (mc.label(max(u, w)), mc.label(min(u, w)), mc.label(g)), n
        return None, len(new_triples(self.top))

    def linear_forms(self) -> Columns:
        """The forms of a push at degree d = top at (1, 0) and (0, 1), in one pass.

        With the pairs of degrees < d fixed, every cell of total degree d+1
        that ``extend(d, (a_d, b_d))`` would derive, and every Jacobi
        coefficient of an open triple at top d+1, is alpha*a_d + beta*b_d
        (linearity lemma, ``maxclass.search_sequences``).  This derives each such
        cell as its pair (alpha, beta) by ``extend``'s recurrence, where
        g_d is the pair (1, 0) or (0, 1), then evaluates ``jacobi``'s
        closed forms on those pairs, over ``open_triples(d + 1)``.  Returns
        the column of alphas and the column of betas, which are the forms
        after pushing (1, 0) and after pushing (0, 1).  Nothing is written
        into the table.  Products are expanded and each coordinate of a
        cell or form is reduced mod p once (``extend``).
        """
        F = self.field
        p, U, V, one = F.p, F.u, F.v, F.one
        a, b, vv, step = self.a, self.b, self.vv, self.step
        d = self.top
        total = d + 1
        # cell[i] = (alpha, beta) of [v_i, v_{total-i}]
        cell: Dict[int, Tuple[EElem, EElem]] = {}
        for i in range(2, (total + 1) // 2):
            j = total - i
            if i == 2:
                # a_{d-1}*b_d - b_{d-1}*a_d
                b0, b1 = b[j]
                cell[2] = ((-b0 % p, -b1 % p), a[j])
                continue
            c_inv, g = step[i - 1]
            # c^{-1}([v_{i-1}, v_j]*g_d - g_j*[v_{i-1}, v_{j+1}])
            x0, x1 = g[j]
            (m0, m1), (n0, n1) = cell[i - 1]
            cross_a, cross_b = x1 * m1, x1 * n1
            al0, al1 = -(x0 * m0 + V * cross_a), -(x0 * m1 + x1 * m0 + U * cross_a)
            be0, be1 = -(x0 * n0 + V * cross_b), -(x0 * n1 + x1 * n0 + U * cross_b)
            s0, s1 = vv[(i - 1, j)]
            if g is a:
                al0 += s0
                al1 += s1
            else:
                be0 += s0
                be1 += s1
            if c_inv != one:
                c0, c1 = c_inv
                cross_a, cross_b = c1 * al1, c1 * be1
                al0, al1 = c0 * al0 + V * cross_a, c0 * al1 + c1 * al0 + U * cross_a
                be0, be1 = c0 * be0 + V * cross_b, c0 * be1 + c1 * be0 + U * cross_b
            cell[i] = ((al0 % p, al1 % p), (be0 % p, be1 % p))
        at_x: List[EElem] = []
        at_y: List[EElem] = []
        for _, u, w, g in self.open_triples(total):
            if w == 0:
                # J(v_2, x, y) = a_2*b_3 - b_2*a_3 at top 4
                b0, b1 = b[2]
                at_x.append((-b0 % p, -b1 % p))
                at_y.append(a[2])
                continue
            # [v_u, v_w]*g_d - g_w*[v_u, v_{w+1}] - g_u*[v_{u+1}, v_w]
            gk = a if g == 0 else b
            x0, x1 = gk[w]
            (m0, m1), (n0, n1) = cell[u]
            cross_a, cross_b = x1 * m1, x1 * n1
            al0, al1 = x0 * m0, x0 * m1 + x1 * m0
            be0, be1 = x0 * n0, x0 * n1 + x1 * n0
            if u + 1 < w:
                z0, z1 = gk[u]
                (m0, m1), (n0, n1) = cell[u + 1]
                cross_a += z1 * m1
                cross_b += z1 * n1
                al0, al1 = al0 + z0 * m0, al1 + z0 * m1 + z1 * m0
                be0, be1 = be0 + z0 * n0, be1 + z0 * n1 + z1 * n0
            al0, al1 = -(al0 + V * cross_a), -(al1 + U * cross_a)
            be0, be1 = -(be0 + V * cross_b), -(be1 + U * cross_b)
            s0, s1 = vv[(u, w)]
            if g == 0:
                al0 += s0
                al1 += s1
            else:
                be0 += s0
                be1 += s1
            at_x.append((al0 % p, al1 % p))
            at_y.append((be0 % p, be1 % p))
        return at_x, at_y


@lru_cache(maxsize=None)
def new_triples(top: int) -> Tuple[Tuple[int, int, int], ...]:
    """The Jacobi triples that become visible when the top degree reaches ``top``.

    These are the basis triples (ids: 0 = x, 1 = y, k = v_k) of total
    degree top with a generator: (v_{top-2}, x, y), then (v_i, v_j, g) for
    2 <= i < j = top - 1 - i and g = x, y.  Triples of lower total degree
    were checked by earlier pushes, and triples with a repeated element
    vanish identically by the built-in antisymmetry of the tables.
    Triples (v_i, v_j, v_k) need no check: once every triple with x or y
    passes, Jacobi holds on all of them by the generator lemma (module
    docstring).

    Chain lemma: about half of these are zero by construction of the
    cells of total degree top (``DictStructure.extend``), whatever the pairs.

    * J(v_m, x, y) = a_m*b_{m+1} - b_m*a_{m+1} - [v_2, v_m]
      (``DictStructure.jacobi``), and for m = top - 2 >= 3 the cell [v_2, v_m]
      is defined as exactly a_m*b_{m+1} - b_m*a_{m+1}.  So J = 0.
    * Let g be the chain generator of degree u, v_{u+1} = c^{-1}*[v_u, g]
      with c = g_u, and w = top - 1 - u > u + 1.  The cell [v_{u+1}, v_w]
      is defined as c^{-1}*([v_u, v_w]*g_{u+w} - g_w*[v_u, v_{w+1}]), so
      J(v_u, v_w, g) = [v_u, v_w]*g_{u+w} - g_w*[v_u, v_{w+1}]
      - c*[v_{u+1}, v_w] = 0 exactly.

    The bound matters: with w = u + 1 the cell [v_{u+1}, v_{u+1}] is 0
    and not defined that way, and both generators can fail there.  The
    triples left are the open ones (``DictStructure.open_triples``).
    """
    head = ((top - 2, 0, 1),) if top >= 4 else ()
    return head + tuple((i, top - 1 - i, g) for i in range(2, top // 2) for g in (0, 1))


def validate(pres):
    """Derive the full multiplication table and check Jacobi on it.

    Jacobi is checked on the triples with a generator, which implies it
    on every triple (see ``new_triples``).  Only the open ones are
    evaluated, but ``triples_checked`` counts the triples the chain lemma
    proves as checked too (``DictStructure.check_new``).

    Raises ZeroPair when some adjoint pair is (0, 0).  It keeps every
    cell, where ``maxclass.validate`` keeps two rows.
    """
    st = DictStructure(pres.field, pres.class_n)
    checked = 0
    for d in range(2, pres.class_n):
        st.extend(d, pres.pair(d))
        fail, cnt = st.check_new()
        checked += cnt
        if fail is not None:
            return mc.JacobiReport(ok=False, first_failure=fail, triples_checked=checked)
    return mc.JacobiReport(ok=True, first_failure=None, triples_checked=checked)


def cells(st):
    """The cells of a table of either layout: {(i, j): [v_i, v_j]} for i < j."""
    if isinstance(st, DictStructure):
        return dict(st.vv)
    return {
        (i, t - i): c
        for t, row in enumerate(st.rows)
        if row is not None
        for i, c in enumerate(row)
        if i >= 2
    }


def table(pres):
    """The ``DictStructure`` of every pair of a presentation, unchecked."""
    st = DictStructure(pres.field, pres.class_n)
    for d in range(2, pres.class_n):
        st.extend(d, pres.pair(d))
    return st
