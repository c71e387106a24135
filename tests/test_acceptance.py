"""Acceptance criteria, each at its stated tolerance with one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print.  The shared ``catalog_models`` fixture certifies all
five reference models once at budget 10^4, seed 0.
"""

import math
import time

import numpy as np

import rayvex as rx
from rayvex import envelope as env
from rayvex.errors import InfeasibleLP
from rayvex.geometry import lattice

from conftest import session_elapsed
from strategies import central_diff_gradient, region_interior_points


def report(number, passed, detail):
    line = f"[criterion {number:>2}] {'PASS' if passed else 'FAIL'}  {detail}"
    print(line)
    assert passed, line


def test_criterion_01_mccormick_reproduction():
    worst = 0.0
    elapsed = 0.0
    for lower, upper in (((0.0, 0.0), (1.0, 1.0)), ((-1.0, 0.5), (2.0, 3.0))):
        entry = rx.bilinear_neg(lower[0], lower[1], upper[0], upper[1])
        model = env.build(entry.field, entry.default_polytope, anchor=entry.default_anchor, budget=500)
        points = lattice(np.array([lower, upper]).T, 101)
        start = time.perf_counter()
        got = np.array([env.value(model, p) for p in points])
        elapsed += time.perf_counter() - start
        expect = np.array([entry.expected_envelope(p) for p in points])
        worst = max(worst, float(np.abs(got - expect).max()))
    passed = worst <= 1e-9 and elapsed < 1.0
    report(1, passed, f"max |eval - closed form| = {worst:.3e} on two 101x101 boxes, eval time {elapsed:.2f}s")


def test_criterion_02_fractional_reproduction():
    entry = rx.fractional()
    model = env.build(entry.field, entry.default_polytope, anchor=entry.default_anchor, budget=500)
    worst = 0.0
    used = 0
    for p in lattice(np.array([[1.0, 2.0], [0.0, 2.0]]), 101):
        if not entry.default_polytope.contains(p):
            continue
        worst = max(worst, abs(env.value(model, p) - entry.expected_envelope(p)))
        used += 1

    # two-branch agreement along the switching line y = 2(x - 1)
    branch_gap = 0.0
    for x in np.linspace(1.0, 2.0, 101)[1:]:
        y = 2.0 * (x - 1.0)
        upper = y * (1.0 - x + 2.0 * y) / (2.0 * (x + y - 1.0))
        branch_gap = max(branch_gap, abs(upper - 0.5 * y))
    passed = worst <= 1e-9 and branch_gap <= 1e-9
    report(2, passed, f"max lattice error {worst:.3e} over {used} points; switching-line gap {branch_gap:.3e}")


def test_criterion_03_reliability_concave_envelope():
    worst = 0.0
    for bounds in ((1.0, 1.0), (0.8, 0.6)):
        entry = rx.reliability(*bounds)
        model = env.build(
            entry.field, entry.default_polytope, sense="concave", anchor="origin-shift", budget=2000
        )
        for p in rx.sample_interior(entry.default_polytope, 0, 10_000):
            worst = max(worst, abs(env.value(model, p) - entry.expected_envelope(p)))

    # the switching ray y = (uy/ux) x cuts the box into two cells; its interior
    # points are subdivision boundary points that are not original box vertices
    ux, uy = 0.8, 0.6
    box = rx.Polytope.box([0.0, 0.0], [ux, uy])
    regions = rx.enumerate_regions_2d(box)
    two_cells = len(regions) == 2
    mid = 0.5 * np.array([ux, uy])
    corners = rx.vertices(box)
    new_point = min(float(np.linalg.norm(mid - w)) for w in corners) > 1e-6
    interior = box.margins(mid).min() > 1e-6
    perp = np.array([-uy, ux]) * 1e-7
    splits = rx.region_of(box, mid + perp) != rx.region_of(box, mid - perp)
    passed = worst <= 1e-9 and two_cells and new_point and interior and splits
    report(
        3,
        passed,
        f"max |eval - closed form| = {worst:.3e} on 2x10^4 samples; "
        f"switching ray adds a non-vertex boundary point: {two_cells and new_point and interior and splits}",
    )


def test_criterion_04_cubic_rational():
    entry = rx.cubic_rational()
    model = env.build(entry.field, entry.default_polytope, anchor="none", budget=2000)
    worst = 0.0
    for p in rx.sample_interior(entry.default_polytope, 0, 2000):
        worst = max(worst, abs(env.value(model, p) - p[1] ** 2 / p[0]))

    facet_gap = 0.0
    for x in np.linspace(0.01, 0.99, 100):
        facet_gap = max(facet_gap, abs(entry.field(np.array([x, 1.0 - x])) - (x - 1.0) ** 2 / x))
    for x in np.linspace(0.02, 1.98, 100):
        facet_gap = max(facet_gap, abs(entry.field(np.array([x, 2.0 - x])) - (x - 2.0) ** 2 / x))
    passed = worst <= 1e-9 and facet_gap <= 1e-9
    report(4, passed, f"max |eval - y^2/x| = {worst:.3e} on 2x10^3 samples; facet identities off by {facet_gap:.3e}")


def test_criterion_05_certification_suite(catalog_models):
    failures = []
    for name, (entry, model) in catalog_models.items():
        cert = model.certification
        for check in (cert.ray_concave, cert.facet_convex, cert.positively_homogeneous):
            if check.status != "pass" or check.worst_violation > 1e-7:
                failures.append(f"{name}.{check.name}={check.worst_violation:.2e}")

    # negative control: ray-convex field fails the ray check with a witness
    sumsq = rx.ScalarField(2, lambda p: p[0] ** 2 + p[1] ** 2)
    bad_ray = env.build(sumsq, rx.Polytope.box([0, 0], [1, 1]), budget=10_000, seed=0)
    ray = bad_ray.certification.ray_concave
    control_1 = ray.status == "fail" and ray.witness is not None

    # negative control: oversized reliability box fails certification; the
    # broken hypothesis is facet convexity (the x = 1.5 restriction is
    # concave), while ray-concavity still holds on [0,1.5]x[0,1]
    oversized = rx.reliability(1.5, 1.0)
    bad_box = env.build(
        oversized.field, oversized.default_polytope, sense="concave",
        anchor="origin-shift", budget=10_000, seed=0,
    )
    facet = bad_box.certification.facet_convex
    control_2 = (
        not bad_box.certified
        and facet.status == "fail"
        and facet.witness is not None
        and bad_box.certification.ray_concave.status == "pass"
    )

    # negative control: unshifted offset breaks homogeneity with witness v = 0
    lifted = rx.ScalarField(2, lambda p: -p[0] * p[1] + 1.0)
    bad_shift = env.build(lifted, rx.Polytope.box([0, 0], [1, 1]), anchor="none", budget=10_000, seed=0)
    hom = bad_shift.certification.positively_homogeneous
    control_3 = hom.status == "fail" and hom.witness is not None and np.allclose(hom.witness["v"], 0.0)

    passed = not failures and control_1 and control_2 and control_3
    report(
        5,
        passed,
        f"5 models certified at 10^4 samples (violations <= 1e-7): {not failures}; "
        f"controls ray/facet/homogeneity fail as intended: {control_1}/{control_2}/{control_3}"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_06_convexity_and_underestimation(catalog_models):
    worst_mid = 0.0
    worst_under = 0.0
    worst_vertex = 0.0
    worst_boundary = 0.0
    for name, (entry, model) in catalog_models.items():
        flip = model.sign
        pts = rx.sample_interior(model.polytope, 6, 20_000)
        for k in range(0, 20_000, 2):
            a = pts[k] + model.anchor
            b = pts[k + 1] + model.anchor
            mid = 0.5 * (a + b)
            g_mid = env.value(model, mid)
            at_a = env.eval(model, a)
            g_a = at_a.value
            g_b = env.value(model, b)
            worst_mid = max(worst_mid, flip * (g_mid - 0.5 * (g_a + g_b)))
            worst_under = max(worst_under, flip * (g_a - at_a.f))

        for vtx in rx.vertices(model.polytope):
            result = env.eval(model, vtx + model.anchor)
            if not math.isfinite(result.f):
                continue  # the cubic entry blows up on its x = 0 facet
            worst_vertex = max(worst_vertex, abs(result.value - result.f))

        # tightness at boundary points on facets avoiding the working origin
        boundary = []
        for v in rx.sample_interior(model.polytope, 7, 700):
            trace = rx.ray_intersect(model.polytope, v)
            if abs(model.polytope.offsets[trace.out_facet]) > 1e-9:
                boundary.append(trace.v_plus)
            if trace.in_facet is not None and abs(model.polytope.offsets[trace.in_facet]) > 1e-9:
                boundary.append(trace.v_minus)
            if len(boundary) >= 1000:
                break
        for v in boundary[:1000]:
            result = env.eval(model, v + model.anchor)
            worst_boundary = max(worst_boundary, abs(result.value - result.f))

    passed = worst_mid <= 1e-9 and worst_under <= 1e-12 and worst_vertex <= 1e-9 and worst_boundary <= 1e-9
    report(
        6,
        passed,
        f"midpoint {worst_mid:.3e} (<=1e-9), underestimation {worst_under:.3e} (<=1e-12), "
        f"vertex tightness {worst_vertex:.3e}, boundary tightness {worst_boundary:.3e}",
    )


def test_criterion_07_gradients(catalog_models):
    worst_rel = 0.0
    worst_sub = 0.0
    for name, (entry, model) in catalog_models.items():
        flip = model.sign
        pts = region_interior_points(model, 1000, margin=1e-3, seed=8)
        assert len(pts) == 1000, f"{name}: only {len(pts)} region-interior points"
        others = rx.sample_interior(model.polytope, 9, 1000)
        for k, v in enumerate(pts):
            x = v + model.anchor
            analytic = env.gradient(model, x)
            numeric = central_diff_gradient(lambda z: env.value(model, z), x)
            scale = max(1.0, float(np.linalg.norm(analytic)))
            worst_rel = max(worst_rel, float(np.linalg.norm(analytic - numeric)) / scale)

            w = others[k] + model.anchor
            gap = flip * (env.value(model, w) - env.value(model, x) - analytic @ (w - x))
            worst_sub = max(worst_sub, -gap)
    passed = worst_rel <= 1e-6 and worst_sub <= 1e-8
    report(7, passed, f"gradient vs FD relative {worst_rel:.3e} (<=1e-6); subgradient slack {worst_sub:.3e} (<=1e-8)")


def test_criterion_08_oracle_sandwich(catalog_models):
    # (a) sandwich for every certified model at density 10
    worst_sandwich = -np.inf
    for name, (entry, model) in catalog_models.items():
        oracle = rx.oracle_build(model.field, model.polytope, grid_density=10)
        usable = 0
        for q in rx.sample_interior(model.polytope, 4, 150):
            try:
                o_val = rx.oracle_eval(oracle, q)
            except InfeasibleLP:
                continue  # outside the finite-sample hull (cubic near x = 0)
            usable += 1
            worst_sandwich = max(worst_sandwich, env.secant_raw(model, q) - o_val)
        assert usable >= 100, f"{name}: only {usable} usable oracle queries"
    sandwich_ok = worst_sandwich <= 1e-8

    # (b) exact polyhedral case: vertices-only oracle equals the envelope
    entry, model = catalog_models["bilinear"]
    oracle = rx.oracle_build(model.field, model.polytope, grid_density=0)
    grid = lattice(np.array([[0.0, 1.0], [0.0, 1.0]]), 21)
    exact_gap = max(abs(rx.oracle_eval(oracle, q) - env.value(model, q)) for q in grid)
    exact_ok = exact_gap <= 1e-8

    # (c) smooth cases: the max gap never grows as the nested lattice doubles
    monotone_ok = True
    for name in ("reliability", "cubic"):
        entry, model = catalog_models[name]
        queries = []
        probe = rx.oracle_build(model.field, model.polytope, grid_density=10)
        for q in rx.sample_interior(model.polytope, 5, 120):
            try:
                rx.oracle_eval(probe, q)
                queries.append(q)
            except InfeasibleLP:
                continue
        previous = None
        for density in (10, 20, 40):
            oracle = rx.oracle_build(model.field, model.polytope, grid_density=density)
            gap = max(rx.oracle_eval(oracle, q) - env.secant_raw(model, q) for q in queries)
            if previous is not None and gap > previous + 1e-9:
                monotone_ok = False
            previous = gap

    passed = sandwich_ok and exact_ok and monotone_ok
    report(
        8,
        passed,
        f"sandwich slack {worst_sandwich:.3e} (<=1e-8); bilinear vertices-only gap {exact_gap:.3e}; "
        f"gap non-increasing under density doubling: {monotone_ok}",
    )


def test_criterion_09_corollary_cobb_douglas():
    entry = rx.cobb_douglas()
    result = rx.check_corollary_convexity(
        entry.field, entry.default_polytope, sense="concave", tol=1e-9, seed=0, n_samples=10_000
    )
    hom = result.details["homogeneity_violation"]
    glob = result.details["global_violation"]
    passed = result.status == "pass" and hom <= 1e-9 and glob <= 1e-9
    report(9, passed, f"status={result.status}; homogeneity {hom:.3e}, midpoint concavity {glob:.3e} (<=1e-9)")


def test_criterion_10_runtime_budget():
    elapsed = session_elapsed()
    passed = elapsed < 60.0
    report(10, passed, f"full suite (acceptance last) at {elapsed:.1f}s of the 60s budget")
