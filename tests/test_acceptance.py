"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import json
import random
from itertools import combinations_with_replacement

from cupone.algebra import TensorElement
from cupone.cli import main
from cupone.cup1 import Cup1Monomial, cup1_boundary
from cupone.groups import Z, check_hypotheses, tor, unitary_group_instance
from cupone.linalg import FGAbelianGroup, IntMatrix, smith_normal_form
from cupone.permutohedron import (
    Face,
    boundary_matrices,
    cellular_homology,
    default_letters,
    enumerate_faces,
)
from cupone.resolution import CgaPresentation, build_resolution, certify_resolution, build_rh_map
from cupone.twisting import GaugeElement, TwistingElement, gauge_act, is_twisting
from faces import face_of_monomial, monomial_of_face


def _report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_01_figure_one_reproduction(capsys):
    code = main(["--command", "permutohedron", "--n", "3", "--format", "machine"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    labels = {c["label"] for c in data["cells"]}
    expected = {
        "abc", "acb", "bac", "bca", "cab", "cba",
        "(a⌣₁b)c", "c(a⌣₁b)", "a(b⌣₁c)", "b(a⌣₁c)", "(a⌣₁c)b", "(b⌣₁c)a",
        "a⌣₁b⌣₁c",
    }
    ok = labels == expected and data["f_vector"] == [6, 6, 1]

    # transported boundary of the top cell, term for term against the
    # direct unshuffle boundary
    top = next(c for c in data["cells"] if c["dimension"] == 2)
    letters = default_letters(3)
    a, b, c = letters
    direct = cup1_boundary(Cup1Monomial((a, b, c)), {g: TensorElement.zero() for g in letters})
    transported = {}
    lookup = {"a": a, "b": b, "c": c}
    for term in top["boundary"]:
        face = Face.parse(term["face"])
        word = next(iter(monomial_of_face(face, letters).terms))
        transported[word] = transported.get(word, 0) + term["coefficient"]
    ok = ok and transported == direct.terms
    with capsys.disabled():
        _report("criterion 1: Fig.-1 hexagon labels and transported boundary", ok)


def test_criterion_02_unshuffle_cardinality():
    ok = True
    for n in range(2, 7):
        letters = default_letters(n)
        bundle = Cup1Monomial(tuple(letters))
        d = cup1_boundary(bundle, {g: TensorElement.zero() for g in letters})
        ok = ok and len(d.terms) == 2 ** n - 2
        faces = {face_of_monomial(word, letters) for word in d.terms}
        facets = set(enumerate_faces(n).get(n - 2, []))
        ok = ok and faces == facets and len(faces) == len(d.terms)
    _report("criterion 2: unshuffle boundary has 2^n−2 terms ↔ facets of P_n", ok)


def d_squared_vanishes(r, m):
    """d∘d = 0 on every letter of `r` of total degree <= m."""
    return all(r.d(r.d(TensorElement.of(g))).is_zero() for g in r.letters if g.total_degree <= m)


def test_criterion_03_d_squared_and_acyclicity_full_family():
    degree_choices = (2, 4, 6, 8)
    ok = True
    for size in range(1, 5):
        for degrees in combinations_with_replacement(degree_choices, size):
            gens = {f"g{i}": d for i, d in enumerate(degrees)}
            for m in range(1, 11):
                r = build_resolution(CgaPresentation.of(gens, m))
                if not d_squared_vanishes(r, m):
                    ok = False
                if not certify_resolution(r).ok:
                    ok = False
    _report("criterion 3: d²=0 and exactness for all ≤4-generator presentations, m ≤ 10", ok)


def test_criterion_04_permutohedron_contractibility():
    ok = True
    for n in range(2, 7):
        mats = boundary_matrices(n)
        for a, b in zip(mats, mats[1:]):
            prod = a.mul(b)
            if any(v for row in prod.entries for v in row):
                ok = False
        h = cellular_homology(n)
        ok = ok and str(h[0]) == "Z" and all(g.is_trivial for g in h[1:])
    _report("criterion 4: P_n contractible with ∂² = 0 exactly, n ≤ 6", ok)


def _random_diagonal_dga(rng):
    """Small validated dga with gauge slots u_r and closed twisting slots."""
    from cupone.dga import free_truncated_dga

    gens = []
    diffs = {}
    n_x3 = rng.randint(1, 2)
    x3 = [f"x3{chr(97 + i)}" for i in range(n_x3)]
    gens.extend((nm, 3, -2) for nm in x3)
    gens.append(("x2", 2, -1))
    n_u1 = rng.randint(1, 2)
    for i in range(n_u1):
        nm = f"u1{chr(97 + i)}"
        gens.append((nm, 1, -1))
        diffs[nm] = [(rng.randint(-2, 2), ("x2",))]
    gens.append(("u2", 2, -2))
    diffs["u2"] = [(rng.randint(-2, 2), (nm,)) for nm in x3]
    max_r = 3 if n_u1 > 1 else 4
    return free_truncated_dga(gens, diffs, max_r=max_r)


def test_criterion_05_gauge_calculus_randomized():
    rng = random.Random(1729)
    instances = 0
    ok = True
    while instances < 100:
        dga = _random_diagonal_dga(rng)
        N = 4
        for _ in range(10):
            instances += 1

            def rand_gauge():
                comps = {}
                for r in range(1, N):
                    basis = dga.basis_of(r, -r)
                    comps[r] = {l: rng.randint(-2, 2) for l in basis}
                return GaugeElement(dga, N, comps)

            a = gauge_act(TwistingElement.zero(dga, N), rand_gauge())
            p, q = rand_gauge(), rand_gauge()
            if not is_twisting(a).ok:
                ok = False
            if gauge_act(a, GaugeElement.one(dga, N)) != a:
                ok = False
            b = gauge_act(a, p)
            if not is_twisting(b).ok:
                ok = False
            if gauge_act(b, q) != gauge_act(a, p.multiply(q)):
                ok = False
            # additivity: a' vanishing below level 3, p = 1 + p^2; the
            # level-3 component must be a ∇-cocycle, drawn from the kernel
            from cupone.linalg import kernel_basis

            basis3 = dga.basis_of(3, -2)
            coeffs = [0] * len(basis3)
            for kv in kernel_basis(dga.differential_matrix(3, -2)):
                c = rng.randint(-2, 2)
                coeffs = [x + c * y for x, y in zip(coeffs, kv)]
            aprime = TwistingElement(dga, N, {3: {l: c for l, c in zip(basis3, coeffs) if c}})
            if not is_twisting(aprime).ok:
                ok = False
            pn = {l: rng.randint(-2, 2) for l in dga.basis_of(2, -2)}
            moved = gauge_act(aprime, GaugeElement(dga, N, {2: pn}))
            if moved.component(3) != aprime.component(3) + dga.element(pn).d():
                ok = False
    _report(f"criterion 5: gauge action laws on {instances} randomized instances", ok)


def test_criterion_06_homotopy_witness():
    from test_twisting import _homotopy_instance
    from cupone.twisting import homotopy_orbit_check

    ok = True
    for seed in range(8):
        _F, f, g, s_images, a = _homotopy_instance(seed=seed)
        report = homotopy_orbit_check(f, g, s_images, a)
        ok = ok and report.ok
    _report("criterion 6: p′ = −s(a) witnesses gauge equivalence for constructed triples", ok)


def test_criterion_07_rh_map_null_criterion():
    ok = True
    for degrees, m in ((
        {"x": 2, "y": 2}, 6), ({"a": 2, "b": 2, "c": 2}, 5), ({"w": 4, "x": 2, "y": 2}, 8)):
        r = build_resolution(CgaPresentation.of(degrees, m))
        f = build_rh_map({name: TensorElement.zero() for name in degrees}, r, r)
        for letter in r.letters:
            if not f.apply(TensorElement.of(letter)).is_zero():
                ok = False
        chain_ok, _ = f.verify_chain_map()
        ok = ok and chain_ok
    _report("criterion 7: zero generator map gives RH(f)|V = 0 with the chain check passing", ok)


def test_criterion_08_corollary_arithmetic():
    ok = True
    for n in range(1, 7):
        coh = {k: FGAbelianGroup.from_divisors([0, 7, 11]) for k in range(2, 2 * n + 1)}
        if not check_hypotheses(unitary_group_instance(n, coh)).ok:
            ok = False
    coh = {k: Z for k in range(2, 13)}
    coh[6] = FGAbelianGroup.from_divisors([0, 2])
    rep = check_hypotheses(unitary_group_instance(6, coh))
    failed = rep.first_failure()
    ok = ok and not rep.ok and failed is not None and failed.degree == 5
    _report("criterion 8: U(n) data passes for n ≤ 6; planted Z/2 in H⁶ fails at the named degree", ok)


def test_criterion_09_tor_oracle():
    ok = True
    for m in range(1, 25):
        for n in range(1, 25):
            t = tor(FGAbelianGroup.from_divisors([m]), FGAbelianGroup.from_divisors([n]))
            kernel = [x for x in range(n) if (m * x) % n == 0]
            order = t.order()
            ok = ok and order == len(kernel)
            if len(kernel) > 1:
                # the oracle kernel is cyclic generated by n/gcd
                ok = ok and len(t.torsion) == 1 and t.torsion[0] == len(kernel)
    _report("criterion 9: Tor agrees with the kernel oracle on cyclic groups of order ≤ 24", ok)


def test_criterion_10_snf_certification():
    from bareiss import det
    from test_linalg import minor_gcd

    rng = random.Random(4242)
    ok = True
    for _ in range(500):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = IntMatrix([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
        d, u, v = smith_normal_form(m)
        if u.mul(m).mul(v) != d or abs(det(u)) != 1 or abs(det(v)) != 1:
            ok = False
        diag = [d[i, i] for i in range(min(rows, cols))]
        if any(d[i, j] for i in range(d.rows) for j in range(d.cols) if i != j):
            ok = False
        nz = [x for x in diag if x]
        if any(b % a for a, b in zip(nz, nz[1:])) or any(x < 0 for x in diag):
            ok = False
        if min(rows, cols) <= 4:
            prod = 1
            for k in range(1, min(rows, cols) + 1):
                prod *= diag[k - 1]
                if abs(prod) != abs(minor_gcd(m, k)):
                    ok = False
    _report("criterion 10: 500 random SNF certificates with unimodular transforms and minor gcds", ok)
