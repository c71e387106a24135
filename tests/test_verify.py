"""Hypothesis certifiers, the sampled-envelope oracle, and determinism."""

import math
import re

import numpy as np
import pytest
from reference_fields import negate_field
from reference_simplex import exact_lp
from strategies import bits, hull_lp

import rayvex as rx
from rayvex import envelope as env
from rayvex import verify
from rayvex.errors import InfeasibleLP, InvalidInput
from rayvex.geometry import lattice

UNIT_BOX = rx.Polytope.box([0.0, 0.0], [1.0, 1.0])


def _field(fn, grad=None, name="anon"):
    return rx.ScalarField(2, fn, grad=grad, name=name)


class TestRayConcavity:
    def test_bilinear_passes(self):
        result = rx.check_ray_concavity(_field(lambda p: -p[0] * p[1]), UNIT_BOX, n_rays=200, seed=0)
        assert result.status == "pass"
        assert result.worst_violation <= 1e-12

    def test_negated_reliability_passes(self):
        entry = rx.reliability(1.0, 1.0)
        negated = negate_field(entry.field)
        result = rx.check_ray_concavity(negated, entry.default_polytope, n_rays=200, seed=0)
        assert result.status == "pass"

    def test_bilinear_not_ray_concave_when_origin_interior(self):
        # -x*y flips curvature sign across quadrants, so on a box straddling
        # the origin the ray restriction turns convex; the corner-translation
        # anchor exists precisely to avoid this configuration.
        wide = rx.Polytope.box([-1.0, -1.0], [1.0, 1.0])
        result = rx.check_ray_concavity(_field(lambda p: -p[0] * p[1]), wide, n_rays=300, seed=0)
        assert result.status == "fail"
        # translating the same box to the corner restores ray-concavity
        entry = rx.bilinear_neg(-1.0, -1.0, 1.0, 1.0)
        model = env.build(entry.field, entry.default_polytope, anchor=entry.default_anchor, budget=1000)
        assert model.certified

    def test_sum_of_squares_fails_with_witness(self):
        result = rx.check_ray_concavity(_field(lambda p: p[0] ** 2 + p[1] ** 2), UNIT_BOX, n_rays=200, seed=0)
        assert result.status == "fail"
        assert result.worst_violation > 1e-3
        assert result.witness is not None
        mid = np.array(result.witness["midpoint"])
        p = np.array(result.witness["p"])
        q = np.array(result.witness["q"])
        # the witness genuinely violates midpoint concavity
        f = lambda z: z[0] ** 2 + z[1] ** 2  # noqa: E731
        assert 0.5 * (f(p) + f(q)) - f(mid) > 1e-3


class TestFacetConvexity:
    def test_bilinear_linear_facets(self):
        result = rx.check_facet_convexity(_field(lambda p: -p[0] * p[1]), UNIT_BOX, n_pairs_per_facet=100, seed=0)
        assert result.status == "pass"
        assert result.worst_violation <= 1e-12
        # the two facets through the origin are unreachable by ray traces
        assert sorted(result.details["unsampled_facets"]) == [1, 3]

    def test_concave_restriction_fails(self):
        result = rx.check_facet_convexity(_field(lambda p: -p[0] ** 2), UNIT_BOX, n_pairs_per_facet=100, seed=0)
        assert result.status == "fail"
        assert result.witness["facet"] in (0, 2)  # x = 1 or y = 1

    def test_oversized_reliability_box(self):
        # u_x = 1.5 leaves ray-concavity intact but breaks convexity on the
        # facet x = 1.5 (the facet restriction turns concave there).
        entry = rx.reliability(1.5, 1.0)
        negated = negate_field(entry.field)
        facet = rx.check_facet_convexity(negated, entry.default_polytope, n_pairs_per_facet=200, seed=0)
        assert facet.status == "fail"
        assert facet.worst_violation > 0.05
        assert facet.witness["facet"] == 0  # x <= 1.5
        ray = rx.check_ray_concavity(negated, entry.default_polytope, n_rays=300, seed=0)
        assert ray.status == "pass"


class TestPositiveHomogeneity:
    def test_bilinear_passes(self):
        entry = rx.bilinear_neg(0, 0, 1, 1)
        model = env.build(entry.field, entry.default_polytope, anchor="origin-shift", budget=300)
        assert model.certification.positively_homogeneous.status == "pass"

    def test_unshifted_constant_fails_at_zero(self):
        field = _field(lambda p: -p[0] * p[1] + 1.0)
        model = env.build(field, UNIT_BOX, anchor="none", budget=300)
        check = model.certification.positively_homogeneous
        assert check.status == "fail"
        assert np.allclose(check.witness["v"], [0.0, 0.0])
        # the origin shift repairs it
        repaired = env.build(field, UNIT_BOX, anchor="origin-shift", budget=300)
        assert repaired.certification.positively_homogeneous.status == "pass"
        assert repaired.offset == 1.0

    def test_two_sided_products_for_origin_outside(self):
        entry = rx.cubic_rational()
        model = env.build(entry.field, entry.default_polytope, anchor="none", budget=300)
        check = model.certification.positively_homogeneous
        assert check.status == "pass"
        assert check.worst_violation <= 1e-7
        # spot check both products equal y^2/x at the diagonal point
        v = np.array([0.75, 0.75])
        trace = rx.ray_intersect(model.polytope, v)
        a_in = rx.normalize_facet(model.polytope, trace.in_facet)
        a_out = rx.normalize_facet(model.polytope, trace.out_facet)
        lhs = (a_in @ v) * entry.field(trace.v_minus)
        rhs = (a_out @ v) * entry.field(trace.v_plus)
        assert lhs == pytest.approx(0.75, abs=1e-12)
        assert rhs == pytest.approx(0.75, abs=1e-12)

    def test_a_ray_whose_endpoint_is_named_on_a_facet_through_the_origin_is_tested(self):
        # a sample at this seed has x = 8.0e-10: the endpoint tie-break names x >= 0, whose b = 0;
        # the identity reads the trace's alphas, not that facet's normal, so the ray is tested
        entry = rx.cubic_rational()
        model = env.build(entry.field, entry.default_polytope, sense=entry.build_sense, anchor=entry.default_anchor,
                          budget=10_000, seed=1198431844)
        check = model.certification.positively_homogeneous
        assert model.certified and check.samples == 10_000

    def test_a_thin_domain_reads_each_product_at_the_facet_the_ray_crosses(self):
        # x + y is positively homogeneous; at v = (7.9e-9, 1.728) the tie-break names x <= 1e-8,
        # whose normal is 9% off the crossing, and the identity read from it failed at 0.055
        thin = rx.Polytope.from_inequalities([[-1, 0], [1, 0], [0, -1], [0, 1]], [0, 1e-8, -1, 2])
        model = env.build(_field(lambda p: float(p[0] + p[1])), thin, anchor="none", budget=100)
        check = model.certification.positively_homogeneous
        assert check.status == "pass" and check.samples == 100
        assert check.worst_violation <= 1e-15


class TestCorollaryWorkflow:
    def test_cobb_douglas_concave(self):
        entry = rx.cobb_douglas()
        result = rx.check_corollary_convexity(
            entry.field, entry.default_polytope, sense="concave", tol=1e-9, seed=0, n_samples=2000
        )
        assert result.status == "pass"
        assert result.details["homogeneity_violation"] <= 1e-9
        assert result.details["global_violation"] <= 1e-9

    def test_linear_passes_trivially(self):
        field = _field(lambda p: p[0] + p[1])
        result = rx.check_corollary_convexity(field, UNIT_BOX, sense="convex", seed=0, n_samples=500)
        assert result.status == "pass"

    def test_non_homogeneous_is_inapplicable(self):
        field = _field(lambda p: p[0] ** 2 + p[1])
        result = rx.check_corollary_convexity(field, UNIT_BOX, sense="convex", seed=0, n_samples=500)
        assert result.status == "inapplicable"
        assert result.details["homogeneity_violation"] > 1e-3

    def test_a_non_finite_global_sample_fails_with_its_triple(self):
        # x + y, but inf at the midpoint of the first global pair (seed + 2), which no other phase samples
        pairs = rx.sample_interior(UNIT_BOX, 2, 2 * 500)
        midpoint = 0.5 * (pairs[0] + pairs[1])
        field = _field(lambda p: math.inf if bits(p) == bits(midpoint) else p[0] + p[1])
        result = rx.check_corollary_convexity(field, UNIT_BOX, sense="convex", seed=0, n_samples=500)
        assert result.status == "fail"
        assert result.witness["non_finite_point"] == midpoint.tolist()

    def test_a_non_finite_facet_witness_fails_even_an_inapplicable_check(self):
        # x^2 + y is not homogeneous, and inf on the facet x = 2, which is not through the origin: the
        # facet phase names a point there, which fails the check rather than leaving it inapplicable
        box = rx.Polytope.box([1.0, 1.0], [2.0, 2.0])
        field = _field(lambda p: math.inf if p[0] >= 2.0 - 1e-12 else p[0] ** 2 + p[1])
        result = rx.check_corollary_convexity(field, box, sense="convex", seed=0, n_samples=500)
        assert result.status == "fail"
        assert result.details["homogeneity_violation"] > 1e-3
        assert result.witness["non_finite_point"][0] >= 2.0 - 1e-12


class TestOracle:
    def test_vertices_only_build(self):
        oracle = rx.oracle_build(_field(lambda p: -p[0] * p[1]), UNIT_BOX, grid_density=0)
        assert len(oracle.values) == 4
        assert oracle.skipped == 0

    def test_density_counts_lattice_intervals(self):
        oracle = rx.oracle_build(_field(lambda p: 0.0), UNIT_BOX, grid_density=3)
        assert len(oracle.values) == 16  # 4x4 lattice; corners coincide with vertices

    def test_fractional_vertices_present(self):
        entry = rx.fractional()
        oracle = rx.oracle_build(entry.field, entry.default_polytope, grid_density=0)
        rows = {tuple(np.round(p, 8)) for p in oracle.points}
        assert (1.0, 1.5) in rows

    def test_cubic_skips_non_finite_closure_points(self):
        entry = rx.cubic_rational()
        oracle = rx.oracle_build(entry.field, entry.default_polytope, grid_density=0)
        assert oracle.skipped == 2  # the two vertices on the x = 0 facet
        assert np.all(np.isfinite(oracle.values))

    def test_no_finite_point_gives_an_empty_oracle(self):
        """reliability is inf on [-2, -1]^2, where x + y - xy < 0: an empty (0, 2) sample, not (0,)."""
        entry = rx.reliability()
        box = rx.Polytope.box([-2.0, -2.0], [-1.0, -1.0])
        oracle = rx.oracle_build(entry.field, box, grid_density=4)
        assert oracle.points.shape == (0, 2) and oracle.values.shape == (0,)
        assert oracle.skipped == 25
        with pytest.raises(InfeasibleLP):
            rx.oracle_eval(oracle, [-1.5, -1.5])

    @pytest.mark.parametrize("name", sorted(rx.CATALOG_BUILDERS))
    @pytest.mark.parametrize("density", [0, 10, 20])
    def test_the_sample_is_the_rows_np_unique_keeps(self, name, density):
        """The rows and values of ``np.unique(axis=0)``, up to the sign of a zero coordinate: oracle_build keeps
        the first row stacked (vertices, then lattice), np.unique either."""
        entry = rx.CATALOG_BUILDERS[name]()
        polytope = entry.default_polytope
        stacked = rx.vertices(polytope)
        if density:
            mesh = lattice(np.stack([stacked.min(axis=0), stacked.max(axis=0)], axis=1), density + 1)
            stacked = np.vstack([stacked, mesh[polytope.contains(mesh)]])
        unique = np.unique(stacked, axis=0)
        values = np.array([float(entry.field.eval(p)) for p in unique])
        finite = np.isfinite(values)
        oracle = rx.oracle_build(entry.field, polytope, grid_density=density)
        assert oracle.points.shape == unique[finite].shape  # == below: equal values, a zero of either sign
        assert (oracle.points == unique[finite]).all() and (oracle.values == values[finite]).all()
        first = {}
        for row in stacked:
            first.setdefault(tuple(row.tolist()), row)
        assert all(bits(first[tuple(p.tolist())]) == bits(p) for p in oracle.points)

    @pytest.mark.parametrize("density", [-1, -(10**11), 316, 10**20])  # -10^11 ran a vertices-only oracle
    def test_a_density_out_of_range_is_rejected_before_any_evaluation(self, density):
        message = (f"grid density must be at least 0, got {density}" if density < 0
                   else f"grid density {density} gives more than 100000 oracle lattice points in 2-D")
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            rx.oracle_build(_field(lambda p: pytest.fail("evaluated past a size check")), UNIT_BOX, grid_density=density)

    def test_bilinear_vertex_oracle_value(self):
        field = _field(lambda p: -p[0] * p[1])
        oracle = rx.oracle_build(field, UNIT_BOX, grid_density=0)
        value = rx.oracle_eval(oracle, [0.5, 0.5])
        assert value == pytest.approx(-0.5, abs=1e-12)
        assert value == pytest.approx(float(exact_lp(*hull_lp(oracle.points, oracle.values, [0.5, 0.5]))[1]), abs=1e-9)

    def test_sample_point_upper_bound(self):
        field = _field(lambda p: (p[0] - 0.3) ** 2 + p[1])
        oracle = rx.oracle_build(field, UNIT_BOX, grid_density=4)
        for p in oracle.points[::5]:
            assert rx.oracle_eval(oracle, p) <= field(p) + 1e-9

    def test_two_point_secant_on_cubic_ray(self):
        # hand-built oracle on the diagonal chord of the slab polytope
        entry = rx.cubic_rational()
        points = np.array([[0.5, 0.5], [1.0, 1.0]])
        values = np.array([entry.field(points[0]), entry.field(points[1])])
        assert values == pytest.approx([0.5, 1.0], abs=1e-12)
        oracle = rx.SampledOracle(points, values)
        assert rx.oracle_eval(oracle, [0.7, 0.7]) == pytest.approx(0.7, abs=1e-12)

    def test_query_outside_hull(self):
        oracle = rx.oracle_build(_field(lambda p: 0.0), UNIT_BOX, grid_density=0)
        with pytest.raises(InfeasibleLP):
            rx.oracle_eval(oracle, [1.5, 0.5])

    def test_monotone_refinement(self):
        entry = rx.reliability(1.0, 1.0)
        negated = negate_field(entry.field)  # working field of the concave model
        queries = rx.sample_interior(UNIT_BOX, 2, 40)
        previous = None
        for density in (2, 4, 8):
            oracle = rx.oracle_build(negated, UNIT_BOX, grid_density=density)
            values = np.array([rx.oracle_eval(oracle, q) for q in queries])
            if previous is not None:
                assert np.all(values <= previous + 1e-9)
            previous = values


class TestCertify:
    @pytest.mark.parametrize("budget, message", [(0, "at least 1"), (-3, "at least 1"), (10**6 + 1, "at most 1000000"),
                                                 (10**20, "at most 1000000")])  # 10^20: numpy's bare ValueError
    def test_a_budget_out_of_range_is_rejected_before_anything_is_drawn(self, budget, message, monkeypatch):
        entry = rx.cubic_rational()
        model = env.build(entry.field, entry.default_polytope, anchor="none", run_certification=False)
        monkeypatch.setattr(verify, "sample_interior", lambda *args: pytest.fail("drew samples past a budget check"))
        with pytest.raises(InvalidInput, match=f"^certification budget must be {message}, got {budget}$"):
            rx.certify(model, budget=budget)
        with pytest.raises(InvalidInput, match=f"budget must be {message}"):
            env.build(entry.field, entry.default_polytope, anchor="none", budget=budget)

    def test_reports_are_bit_identical(self):
        entry = rx.reliability(1.0, 1.0)
        model = env.build(
            entry.field, entry.default_polytope, sense="concave",
            anchor="origin-shift", budget=500, seed=3, run_certification=False,
        )
        first = rx.certify(model, budget=500, seed=3)
        second = rx.certify(model, budget=500, seed=3)
        assert first.to_dict() == second.to_dict()

    def test_report_serialization_shape(self):
        entry = rx.bilinear_neg(0, 0, 1, 1)
        model = env.build(entry.field, entry.default_polytope, anchor=entry.default_anchor, budget=300, seed=1)
        data = model.certification.to_dict()
        assert data["all_passed"] is True
        assert set(data["checks"]) == {"ray_concave", "facet_convex", "positively_homogeneous"}
        for block in data["checks"].values():
            assert {"status", "worst_violation", "witness", "samples", "tolerance", "seed"} <= set(block)
        assert data["sample_counts"]["ray_concave"] == data["checks"]["ray_concave"]["samples"]
