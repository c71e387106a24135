"""Why f(0) = 0 decides homogeneity when the origin is in P.

With every working offset b_i >= 0 the secant satisfies
g(lambda v) = lambda g(v) + (1 - lambda) f(0) for any field, so
``check_positive_homogeneity`` evaluates f at 0 and nothing else.  These
tests hold the identity itself to a few ulps, and pin anchors whose
working offset rounds to just below 0.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import origin_in_polytopes

import rayvex as rx
from rayvex import envelope as env
from rayvex import verify

ULPS = 32 * np.finfo(float).eps

# fields bounded by about 10 on the boxes below, none of them ray-concave in
# general; c holds six coefficients in [-2, 2]
FIELDS = (
    lambda c: lambda p: c[0] + c[1] * p[0] + c[2] * p[1] + c[3] * p[0] ** 2 + c[4] * p[0] * p[1] + c[5] * p[1] ** 3,
    lambda c: lambda p: c[0] + c[1] * math.sin(3.0 * c[2] * p[0] + c[3]) * math.cos(3.0 * c[4] * p[1]),
    lambda c: lambda p: c[0] * math.exp(0.5 * c[1] * p[0] + 0.5 * c[2] * p[1]) + c[3],
    lambda c: lambda p: c[0] + abs(p[0]) ** 0.3 - c[1] * p[1] ** 3,
)


@settings(max_examples=200, deadline=None)
@given(
    origin_in_polytopes(),
    st.sampled_from(range(len(FIELDS))),
    st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6),
    st.integers(0, 2**32 - 1),
    st.lists(st.one_of(st.sampled_from([1.0, 0.5, 1e-3, 1e-250]), st.floats(1e-250, 1.0)), min_size=1, max_size=4),
)
def test_secant_scales_by_lambda_up_to_f0(polytope, which, coeffs, seed, lams):
    field = rx.ScalarField(2, FIELDS[which](coeffs), name="any")
    model = env.build(field, polytope, anchor="none", run_certification=False)
    assert model.origin_in_P and np.all(polytope.offsets >= 0.0)
    f0 = float(field.eval(np.zeros(2)))
    for v in rx.sample_interior(polytope, seed, 4):
        g = env.secant_raw(model, v)
        for lam in lams:
            want = lam * g + (1.0 - lam) * f0
            assert abs(env.secant_raw(model, lam * v) - want) <= ULPS * (1.0 + abs(g)), (v, lam)


# the unit box cut by 0.1x + 0.7y <= C; translating to its vertex on x = 1
# leaves the cut's working offset at -1.1e-16, inside validate's tolerance
C = 0.5545012
BAND = rx.Polytope.from_inequalities(
    [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.1, 0.7]], [1.0, 1.0, 0.0, 0.0, C]
)


@pytest.mark.parametrize("entry", [rx.bilinear_neg(), rx.fractional(), rx.reliability()], ids=lambda e: e.name)
def test_anchor_in_the_tolerance_band_passes_on_one_evaluation(entry):
    anchor = next(v for v in rx.vertices(BAND) if v[0] == 1.0 and v[1] > 0.5)
    model = env.build(entry.field, BAND, anchor=anchor, run_certification=False)
    assert model.validation.origin_location == "boundary"
    assert -rx.geometry.GEOM_TOL <= model.polytope.offsets[4] < 0.0
    result = verify.check_positive_homogeneity(model, n_samples=10_000, seed=2)
    assert (result.status, result.samples, result.worst_violation) == ("pass", 1, 0.0)
    report = verify.certify(model, budget=2000).to_dict()
    assert report["sample_counts"]["positively_homogeneous"] == 1


def test_an_anchor_that_contains_accepts_is_the_working_origin():
    """P - t's offsets are t's margins: the anchor check and the working report cannot disagree.

    Numpy's a @ t once put the tilted row's working offset at -1.000000082740371e-09,
    past GEOM_TOL, so the origin read "outside" and the product identity failed at 0.3.
    """
    t = np.array([0.04209497566114795, -2.373472765629156])
    box = rx.Polytope.box(t - 1.0, t + 1.0)
    tilt = [-1.054498971952105, -1.6250971219763803]
    polytope = rx.Polytope(np.vstack([box.matrix, tilt]), np.append(box.offsets, 3.812734650954232))
    assert polytope.contains(t)
    assert polytope.margins(t)[-1] == polytope.translate(t).offsets[-1] == -9.999996386511611e-10
    model = env.build(rx.ScalarField(2, lambda p: p[0] * p[1]), polytope, anchor=t, budget=2000)
    assert model.validation.origin_location == "boundary"
    result = model.certification.positively_homogeneous
    assert (result.status, result.samples, result.worst_violation) == ("pass", 1, 0.0)
