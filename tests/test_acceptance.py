"""Acceptance suite: one test per criterion, each printing a verdict line.

Criterion 8's x-vs-(y,z) correlation clause checks the claimed bound delta
verbatim; the computed maximal correlation is sqrt(delta), so that clause
fails by design. A mixture that leaks one coordinate exactly has maximal
correlation sqrt(leak probability), witnessed by an explicit function pair.
"""
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from gadgetlab import boolfn, dto1, games, gf2, hadamard, longcode, ternary, verify
from gadgetlab.boolfn import CoordSpace, ProductFn
from gadgetlab.gf2 import Gf2Subspace


def _verdict(criterion: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {criterion}: {status}")
    assert not failures, "\n".join(str(f) for f in failures)


def test_criterion_01_folding_lemma():
    rng = random.Random(101)
    failures = []
    for trial in range(200):
        m = rng.randrange(2, 13)
        dim_cap = max(1, m // 2)
        sub = Gf2Subspace.span([rng.randrange(1, 1 << m) for _ in range(dim_cap)], m)
        folded = {r: rng.uniform(-1, 1) for r in sub.coset_reps()}
        table = gf2.unfold(gf2.FoldedTable(sub, folded))
        spec = gf2.fourier_transform(table)
        for alpha in spec.support(tol=1e-12):
            for b in sub.basis:
                if gf2.dot_bits(alpha, b) != 0:
                    failures.append((trial, m, alpha))
    _verdict("criterion 1 (folding lemma, 200 random folded tables)", failures)


def test_criterion_02_hadamard_yes():
    inst, sigma = games.gen_3lin(12, 12, 1021)
    gadget = hadamard.build(inst, r=1, triples=3, seed=2)
    res = hadamard.yes_coloring(gadget, sigma)
    failures = []
    if res.removed:
        failures.append(f"removed {len(res.removed)} vertices")
    if res.violations:
        failures.append(f"{len(res.violations)} parity violations")
    total = len(gadget.all_edges())
    if res.surviving_edges == 0 or total == 0:
        failures.append("no hyperedges enumerated")
    for edge in gadget.all_edges():
        parity = (res.colors[edge[0]] ^ res.colors[edge[1]]
                  ^ res.colors[edge[2]] ^ res.colors[edge[3]])
        if parity != 1:
            failures.append(f"edge {edge} parity {parity}")
    _verdict("criterion 2 (Hadamard YES: 0 removed, parity 1 on 100% of edges)", failures)


def test_criterion_03_hadamard_no_pipeline():
    inst, _ = games.gen_3lin(12, 12, 1021)
    gadget = hadamard.build(inst, r=1, triples=1, seed=5, distinct_blocks=True)
    is_res = verify.max_independent_set(gadget.to_hypergraph())
    failures = []
    if not is_res.optimal:
        failures.append("independent-set search exhausted its budget")
    report = hadamard.extract_strategies(gadget, is_res.vertices, 0)
    if not report.independent_on_triple:
        failures.append("oracle set is not independent on the triple")
    if report.lhs < report.rhs - 1e-10:
        failures.append(f"lhs {report.lhs} < rhs {report.rhs}")
    _verdict("criterion 3 (Hadamard NO: exact max IS satisfies the quadratic bound)",
             failures)


def test_criterion_04_russo_bracket():
    rng = random.Random(104)
    failures = []
    done = 0
    while done < 100:
        m = rng.randrange(2, 7)
        fam = ternary.random_monotone_family(m, 0.5, rng, density=rng.uniform(0.1, 0.5))
        for p in (0.5, 0.8, 0.9):
            res = ternary.russo_check(fam, p, h=1e-4)
            lo = res["as_p"] / 2.0 - 1e-3
            hi = res["as_p"] + 1e-3
            if not lo <= res["derivative"] <= hi:
                failures.append((done, p, res))
        done += 1
    _verdict("criterion 4 (Russo bracket on 100 monotone families)", failures)


def test_criterion_05_core_mass():
    rng = random.Random(105)
    delta = 0.1
    failures = []
    for trial in range(50):
        m = rng.randrange(2, 7)
        fam = ternary.random_monotone_family(m, 0.8, rng, density=rng.uniform(0.1, 0.6))
        core = ternary.find_core(fam, delta)
        if core.core_family_mass < ternary.measure(fam) - 3 * delta - 1e-12:
            failures.append((trial, core.core_family_mass, ternary.measure(fam)))
    _verdict("criterion 5 (core-family mass >= mu(F) - 3 delta on 50 families)", failures)


def test_criterion_06_two_element_witness():
    rng = random.Random(106)
    delta = 0.2
    failures = []
    retries = []
    done = 0
    while done < 50:
        m = rng.randrange(2, 7)
        fam = ternary.random_monotone_family(m, 0.8, rng, density=rng.uniform(0.15, 0.5))
        if ternary.measure(fam) < delta:
            continue
        wp = ternary.two_element_witness(fam, delta, rng.randrange(1 << 30))
        for j in range(m):
            if j in wp.subset:
                continue
            if (wp.first[j], wp.second[j]) in ((1, 1), (2, 2)):
                failures.append((done, j, wp))
        if not (fam.contains(wp.first) and fam.contains(wp.second)):
            failures.append((done, "member outside family"))
        retries.append(wp.retries)
        done += 1
    mean_retries = sum(retries) / len(retries)
    if mean_retries > 4.0:
        failures.append(f"mean retries {mean_retries} > 4")
    _verdict("criterion 6 (two-element witness valid, <= 4 retries on average)", failures)


def test_criterion_07_longcode_yes():
    pcp = games.gen_toy_mlpcp(2, 2, 3, 107)
    eps = Fraction(1, 10)
    gadget = longcode.build(pcp, eps)
    res = longcode.yes_partition(gadget, pcp.planted_labeling)
    failures = []
    if res.weights != ((1 - eps) / 2, (1 - eps) / 2, eps):
        failures.append(f"weights {res.weights}")
    if res.violations:
        failures.append(f"{len(res.violations)} monochromatic surviving edges")
    if res.coverage != "exhaustive":
        failures.append("certificate was not exhaustive")
    _verdict("criterion 7 (biased long-code YES: exact weights, clean partition)",
             failures)


def test_criterion_08_dist_facts_attainable_clauses():
    failures = []
    for delta in (0.1, 0.25):
        for r in (1, 2, 3):
            rep = dto1.correlation_suite(delta, r)
            if not rep["min_atom_regime"]:
                failures.append((delta, r, "outside the stated regime"))
            if rep["min_atom"] != delta / (r * 2**r):
                failures.append((delta, r, "min atom", rep["min_atom"]))
            cap = 1.0 - rep["xi"] ** 2 / 2.0
            if rep["rho_y_z"] > cap + 1e-9:
                failures.append((delta, r, "rho(Y,Z)", rep["rho_y_z"]))
    _verdict("criterion 8 (D facts: exact min atom, rho(Y,Z) cap)", failures)


def test_criterion_08_x_vs_yz_claimed_bound():
    # claimed bound: rho(X; (Y,Z)) <= delta. The computed maximal
    # correlation is sqrt(delta), so this clause fails; see the module
    # docstring.
    failures = []
    for delta in (0.1, 0.25):
        for r in (1, 2, 3):
            rep = dto1.correlation_suite(delta, r)
            if rep["rho_x_yz"] > delta + 1e-9:
                failures.append(
                    f"delta={delta} r={r}: computed rho {rep['rho_x_yz']:.6f} "
                    f"(= sqrt(delta)) exceeds the stated bound {delta}")
    _verdict("criterion 8 (D facts: rho(X;(Y,Z)) <= delta as stated)", failures)


def test_criterion_09_noise_and_influence_lemmas():
    rng = random.Random(109)
    nprng = np.random.default_rng(109)
    failures = []

    # Bonami-Beckner contraction at minimum Efron-Stein weight s
    for trial in range(100):
        n = rng.randrange(2, 5)
        spaces = []
        for _ in range(n):
            size = rng.choice((2, 3))
            w = np.array([rng.uniform(0.2, 1.0) for _ in range(size)])
            spaces.append(CoordSpace(tuple(range(size)), tuple(w / w.sum())))
        shape = tuple(len(s.atoms) for s in spaces)
        f = ProductFn(tuple(spaces), nprng.uniform(-1, 1, size=shape))
        es = boolfn.efron_stein(f)
        s = 2
        high = sum((arr for key, arr in es.parts.items() if len(key) >= s),
                   np.zeros(shape))
        g = ProductFn(tuple(spaces), high)
        rho = rng.uniform(0.1, 0.95)
        if boolfn.bonami_beckner(g, rho).l2_norm() > rho**s * g.l2_norm() + 1e-10:
            failures.append((trial, "contraction"))

    # product-function influence <= 4x factor influence on the pair space
    dist = dto1.dist_table(0.25, 1)
    yz = dist.joint.marginal((1, 2))
    pairs = [(ym, zm) for ym in range(2) for zm in range(2) if yz[ym, zm] > 0]
    pair_space = CoordSpace(tuple(pairs), tuple(float(yz[ym, zm]) for ym, zm in pairs))
    y_space = boolfn.uniform_space((0, 1))
    for trial in range(100):
        n_blocks = rng.randrange(2, 5)
        f_vals = nprng.uniform(0, 1, size=(2,) * n_blocks)
        f = ProductFn((y_space,) * n_blocks, f_vals)
        big = np.zeros((len(pairs),) * n_blocks)
        for combo in itertools.product(range(len(pairs)), repeat=n_blocks):
            ys = tuple(pairs[c][0] for c in combo)
            zs = tuple(pairs[c][1] for c in combo)
            big[combo] = f_vals[ys] * f_vals[zs]
        F = ProductFn((pair_space,) * n_blocks, big)
        for i in range(n_blocks):
            if boolfn.influence(F, i) > 4.0 * boolfn.influence(f, i) + 1e-10:
                failures.append((trial, "product influence", i))

    # block influence <= r * sum of fine influences
    for trial in range(100):
        n_bits = rng.randrange(2, 5)
        coeffs = dto1.cube_spectrum(nprng.uniform(0, 1, size=1 << n_bits))
        mask = rng.randrange(1, 1 << n_bits)
        r = bin(mask).count("1")
        fine = sum(
            float((coeffs**2)[(np.arange(1 << n_bits) >> j) & 1 == 1].sum())
            for j in range(n_bits) if (mask >> j) & 1
        )
        if dto1.block_influence(coeffs, mask) > r * fine + 1e-10:
            failures.append((trial, "block influence"))
    _verdict("criterion 9 (contraction, product-influence, block-influence lemmas)",
             failures)


def test_criterion_10_gamma_quadrature():
    failures = []
    lo, hi = boolfn.gamma_bounds(0.0, 0.3, 0.45)
    if abs(lo - 0.3 * 0.45) > 1e-8 or abs(hi - 0.3 * 0.45) > 1e-8:
        failures.append(("rho=0 product", lo, hi))
    for rho in [0.1 * k for k in range(1, 10)]:
        got, _ = boolfn.gamma_bounds(rho, 0.5, 0.5)
        want = 0.25 - math.asin(rho) / (2 * math.pi)
        if abs(got - want) > 1e-6:
            failures.append(("arcsin", rho, got, want))
    rng = random.Random(110)
    for _ in range(25):
        rho = rng.uniform(0.0, 0.95)
        mu = rng.uniform(0.05, 0.95)
        nu = rng.uniform(0.05, 0.95)
        lo, _ = boolfn.gamma_bounds(rho, mu, nu)
        _, hi = boolfn.gamma_bounds(rho, mu, 1.0 - nu)
        if abs(lo + hi - mu) > 1e-7:
            failures.append(("complement", rho, mu, nu))
    _verdict("criterion 10 (Gaussian quadrant quadrature identities)", failures)


def test_criterion_11_smooth_mlpcp_structure():
    failures = []
    for T in (1, 2):
        game = games.gen_toy_dto1_game(2, 2 * T + 3, 2, 2, 111 + T)
        pcp = games.build_smooth_mlpcp(game, 2, T)
        d = pcp.params["d"]
        for c in pcp.constraints:
            counts = [0] * pcp.label_sizes[c.to_layer]
            for t in c.projection:
                counts[t] += 1
            if set(counts) != {d ** (c.to_layer - c.from_layer)}:
                failures.append((T, "preimage sizes", sorted(set(counts))))
        res = games.check_smoothness(pcp)
        if not res["ok"]:
            failures.append((T, "smoothness", res["max_collision"]))
    _verdict("criterion 11 (smooth layered PCP: preimage law, smoothness <= 1/T)",
             failures)


def test_criterion_12_dto1_yes():
    game = games.gen_toy_dto1_game(2, 3, 1, 2, 112)
    pcp = games.build_smooth_mlpcp(game, 2, 1)
    gadget = dto1.build(pcp, 0.25)
    failures = []
    if gadget.mode != "enumerate":
        failures.append("gadget not enumerable at this size")
    res = dto1.yes_check(gadget, pcp.planted_labeling)
    if res.violations:
        failures.append(f"{len(res.violations)} monochromatic edges")
    for r in (1, 2, 3):
        if not dto1.support_safety(dto1.dist_table(0.25, r)):
            failures.append(("support safety", r))
    _verdict("criterion 12 (correlated-test YES: proper coloring, atom safety)",
             failures)


def test_criterion_13_end_to_end_decode():
    failures = []

    # biased long-code pipeline on a planted plain PCP
    pcp4 = games.gen_toy_mlpcp(2, 2, 3, 113)
    g4 = longcode.build(pcp4, Fraction(1, 10))
    sigma = pcp4.planted_labeling
    h1 = set()
    for l in range(pcp4.layers):
        for v in range(pcp4.var_counts[l]):
            for pt in range(3 ** pcp4.label_sizes[l]):
                if ternary.point_digits(pt, pcp4.label_sizes[l])[sigma[l][v]] == 1:
                    h1.add(g4.vertex_id(l, v, pt))
    out4 = longcode.decode(g4, h1, delta=0.4, seed=113)
    if out4.satisfied_fraction != 1 or out4.satisfied_fraction_all != 1:
        failures.append(("longcode", out4.satisfied_fraction))

    # correlated-test pipeline on a planted smooth PCP
    game = games.gen_toy_dto1_game(2, 3, 1, 2, 113)
    pcp5 = games.build_smooth_mlpcp(game, 2, 1)
    indicators = {}
    for l in range(pcp5.layers):
        for v in range(pcp5.var_counts[l]):
            j = pcp5.planted_labeling[l][v]
            masks = np.arange(1 << pcp5.label_sizes[l])
            indicators[(l, v)] = (((masks >> j) & 1) == 0).astype(float)
    params = dto1.DecodeParams(delta=0.25, eps=0.5, gamma=0.05,
                               tau=1e-4, s=3.0, T=1)
    out5 = dto1.decode(indicators, pcp5, params, seed=113)
    if out5.outcome != "ok" or out5.satisfied_fraction != 1:
        failures.append(("dto1", out5.outcome, out5.satisfied_fraction))
    _verdict("criterion 13 (dictator indicators decode to fraction 1.0)", failures)


def test_criterion_14_oracle_duality():
    rng = random.Random(114)
    failures = []
    for trial in range(100):
        n = rng.randrange(6, 17)
        k = rng.choice((2, 3))
        edges = set()
        for _ in range(rng.randrange(3, 13)):
            edges.add(tuple(sorted(rng.sample(range(n), k))))
        weights = {v: Fraction(rng.randrange(1, 9)) for v in range(n)}
        h = verify.GenericHypergraph(k, tuple(range(n)), tuple(edges), weights)
        is_res = verify.max_independent_set(h)
        if not is_res.optimal:
            failures.append((trial, "budget exhausted"))
            continue
        verts = list(h.vertices)
        edge_masks = [sum(1 << verts.index(v) for v in e) for e in h.edges]
        masks = np.arange(1 << n, dtype=np.int64)
        cover_ok = np.ones(1 << n, dtype=bool)
        for em in edge_masks:
            cover_ok &= (masks & em) != 0
        wvec = np.zeros(1 << n, dtype=np.int64)
        weight = {v: Fraction(w, h.scale) for v, w in zip(h.ids, h.weights)}
        for i, v in enumerate(verts):
            wvec[((masks >> i) & 1) == 1] += int(weight[v])
        min_cover = Fraction(int(wvec[cover_ok].min()))
        if is_res.weight + min_cover != h.total_weight:
            failures.append((trial, is_res.weight, min_cover, h.total_weight))
    _verdict("criterion 14 (max-IS + min-VC = total weight on 100 hypergraphs)",
             failures)
