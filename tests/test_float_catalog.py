"""The catalog fields on plain floats give the bits of their numpy-scalar forms,
and their column forms give the bits of the per-point field.

``tests/reference_fields.py`` keeps the forms that unpacked each point into
numpy float64 scalars.  Every catalog field must return the same value for
every input, non-finite and out-of-domain ones included (same NaN-ness,
same sign of zero and of inf), for arrays, lists and tuples alike, without
raising and without a warning.  A batch through ``functions._eval_rows``,
which uses a catalog field's column form, must give the per-point
``eval``'s bits on the same rows, NaN-ness for a NaN, also without a warning.
"""

import functools
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayvex as rx
import reference_fields as ref
from rayvex.functions import _eval_rows
from strategies import bits

SUBNORMAL = 2.2250738585072014e-308 / 2**20
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, SUBNORMAL, -SUBNORMAL, 1e-300, 1.0, -1.0, 2.0, 1e200, -1e200, math.inf, -math.inf, math.nan)

PLANAR = {  # catalog field -> its numpy-scalar form
    "bilinear": (rx.bilinear_neg().field, ref.bilinear),
    "fractional": (rx.fractional().field, ref.fractional),
    "reliability": (rx.reliability().field, ref.reliability),
    "cubic": (rx.cubic_rational().field, ref.cubic),
}
COBB_DOUGLAS = (
    (rx.cobb_douglas().field, ref.cobb_douglas(1.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)),
    (rx.cobb_douglas(2.5, 0.2, 0.5, 0.3).field, ref.cobb_douglas(2.5, 0.2, 0.5, 0.3)),
    (rx.cobb_douglas(1.0, 5.0, 0.5, 0.5).field, ref.cobb_douglas(1.0, 5.0, 0.5, 0.5)),  # overflows at 1e200
)
CONTAINERS = (np.array, list, tuple)


def _same_bits(got, want) -> bool:
    got, want = float(got), float(want)
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return got == want and math.copysign(1.0, got) == math.copysign(1.0, want)


def _check(field, reference, coords, container) -> None:
    with np.errstate(all="ignore"):
        want = reference(np.array(coords, dtype=float))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = field.eval(container(coords))
    assert _same_bits(got, want), (coords, got, want)


coordinate = st.one_of(st.sampled_from(SPECIAL), st.floats(-3.0, 3.0), st.floats())


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(sorted(PLANAR)), coordinate, coordinate, st.sampled_from(CONTAINERS))
def test_planar_fields_match_their_numpy_scalar_forms(name, x, y, container):
    field, reference = PLANAR[name]
    _check(field, reference, [x, y], container)


@pytest.mark.parametrize("name", sorted(PLANAR))
def test_planar_fields_on_every_pair_of_special_values(name):
    # zero, subnormal, huge and non-finite coordinates: fractional at x = 0,
    # reliability with den <= 0 and cubic with x <= 0 among them
    field, reference = PLANAR[name]
    for coords, container in itertools.product(itertools.product(SPECIAL, repeat=2), CONTAINERS):
        _check(field, reference, list(coords), container)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(len(COBB_DOUGLAS))), st.lists(coordinate, min_size=3, max_size=3), st.sampled_from(CONTAINERS))
def test_cobb_douglas_matches_its_numpy_product(which, coords, container):
    # negative, huge and non-finite coordinates included: there numpy's power
    # gives nan or inf, which the field returns without a warning
    field, reference = COBB_DOUGLAS[which]
    _check(field, reference, coords, container)


@pytest.mark.parametrize("which", range(len(COBB_DOUGLAS)))
def test_cobb_douglas_on_every_triple_of_special_values(which):
    # (-1, 1, 1) among them: nan, where numpy's power used to warn
    field, reference = COBB_DOUGLAS[which]
    for coords in itertools.product(SPECIAL, repeat=3):
        _check(field, reference, list(coords), list)


@pytest.mark.parametrize("which", range(len(COBB_DOUGLAS)))
@pytest.mark.parametrize("coords", [(0.0, -5e-324, math.nan), (math.nan, 1.0, 1.0), (1.0, -1.0, 1.0), (0.0, math.inf, 1.0)])
def test_cobb_douglas_gives_one_nan(which, coords):
    # numpy's power returned a NaN of either sign for the same input: at (0, -5e-324, nan)
    # both sign bits over 3,000 calls in one process, and -nan at (1, -1, 1) every time
    field, _ = COBB_DOUGLAS[which]
    values = [field.eval(np.array(coords)) for _ in range(300)]
    assert all(math.isnan(v) for v in values)
    assert {bits(v) for v in values} == {bits(math.nan)}


def test_cubic_next_to_its_x0_facet_is_inf_without_a_warning():
    # inside P, where the numpy-scalar form overflowed with a RuntimeWarning
    # (an error under this suite's warning filters)
    assert rx.cubic_rational().field.eval(np.array([5e-324, 1.5])) == math.inf


def test_cubic_products_stay_within_rounding_of_its_powers():
    # the powers are products so that the float and column forms share their bits;
    # against libm's pow they differ in the last place only, over cubic's default domain
    rng = np.random.default_rng(0)
    s = rng.uniform(1.0, 2.0, 20_000)  # x + y
    x = s * rng.uniform(0.0, 1.0, s.size)
    field = rx.cubic_rational().field
    for p in np.column_stack([x, s - x])[x > 0.0]:
        got, want = field.eval(p), ref.cubic_pow(p)
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), (p.tolist(), got, want)


BATCHED = {  # every catalog field, cobb-douglas at three parameter sets
    **{name: field for name, (field, _) in PLANAR.items()},
    **{f"cobb-douglas-{k}": field for k, (field, _) in enumerate(COBB_DOUGLAS)},
}


def _check_batch(field, points) -> None:
    points = np.asarray(points, dtype=float).reshape(-1, field.dim)
    want = np.array([float(field.eval(row)) for row in points])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _eval_rows(field, points)
    assert got.shape == (len(points),) and got.dtype == np.float64
    nan = np.isnan(want)  # NaN-ness only: numpy's power does not fix a NaN's sign from call to call
    assert (np.isnan(got) == nan).all(), (points, got, want)
    assert bits(np.where(nan, 0.0, got)) == bits(np.where(nan, 0.0, want)), (points, got, want)


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_column_forms_on_every_pair_or_triple_of_special_values(name):
    # one batch: nan, infinities, signed zeros, subnormal and huge coordinates in every slot
    field = BATCHED[name]
    owner, form = field.eval._rows  # the batch runs through the column form
    assert owner is field.eval and callable(form)
    _check_batch(field, list(itertools.product(SPECIAL, repeat=field.dim)))
    _check_batch(field, np.empty((0, field.dim)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(BATCHED)), st.data())
def test_column_forms_match_the_per_point_field(name, data):
    field = BATCHED[name]
    rows = data.draw(st.lists(st.lists(coordinate, min_size=field.dim, max_size=field.dim), max_size=12), label="rows")
    _check_batch(field, rows)


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_a_wrapped_catalog_eval_is_called_once_per_row(name):
    # functools.wraps copies the column form onto the wrapper; the form is not its own, so
    # the wrapper, put in by replace or in place, still sees every row
    field = BATCHED[name]
    seen = []

    @functools.wraps(field.eval)
    def counted(p):
        seen.append(bits(p))
        return field.eval(p)

    points = np.array(list(itertools.product((0.5, 1.5, 2.0), repeat=field.dim)))
    in_place = replace(field)
    object.__setattr__(in_place, "eval", counted)
    for wrapped in (replace(field, eval=counted), in_place):
        seen.clear()
        assert bits(_eval_rows(wrapped, points)) == bits(_eval_rows(field, points))
        assert seen == [bits(p) for p in points]
