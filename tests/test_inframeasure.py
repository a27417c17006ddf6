"""Tests for scaled-measure points, their sets, and pruning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ibrl import (
    AMeasure,
    BernoulliArmsModel,
    ExplicitFiniteModel,
    FiniteOutcomeMeasure,
    Infradistribution,
    RepresentationError,
    evaluate,
    lower_expectation,
    mix_classical,
    mix_knightian,
    prune,
)

MODEL3 = ExplicitFiniteModel(3)


def finite_point(scale, masses, offset, model=MODEL3):
    return AMeasure(scale, FiniteOutcomeMeasure(tuple(masses)), offset, model)


class TestAMeasure:
    def test_evaluate_combines_scale_expectation_and_offset(self):
        point = finite_point(0.4, (0.5, 0.5, 0.0), 0.6)
        f = MODEL3.return_function((0.5, 0.5, 0.5))
        np.testing.assert_allclose(evaluate(point, f, None), 0.4 * 0.5 + 0.6)

    def test_zero_scale_point_evaluates_to_its_offset(self):
        """A refuted hypothesis contributes only its accumulated offset; the
        stale measure must not be consulted."""
        point = finite_point(0.0, (1.0, 0.0, 0.0), 0.25)
        f = MODEL3.return_function((100.0, 100.0, 100.0), f_max=100.0)
        np.testing.assert_allclose(evaluate(point, f, None), 0.25)

    def test_negative_scale_rejected(self):
        with pytest.raises(RepresentationError):
            finite_point(-0.1, (0.5, 0.5, 0.0), 0.0)

    def test_negative_offset_rejected(self):
        with pytest.raises(RepresentationError):
            finite_point(1.0, (0.5, 0.5, 0.0), -0.01)


class TestInfradistribution:
    def test_requires_at_least_one_point(self):
        with pytest.raises(RepresentationError):
            Infradistribution(())

    def test_points_must_share_model_and_history(self):
        other = ExplicitFiniteModel(4)
        a = finite_point(1.0, (1.0, 0.0, 0.0), 0.0)
        b = AMeasure(1.0, FiniteOutcomeMeasure((0.0, 1.0, 0.0, 0.0)), 0.0, other)
        with pytest.raises(RepresentationError):
            Infradistribution((a, b))

    def test_lower_expectation_is_the_pointwise_minimum(self):
        a = finite_point(1.0, (1.0, 0.0, 0.0), 0.0)
        b = finite_point(1.0, (0.0, 1.0, 0.0), 0.0)
        psi = Infradistribution((a, b))
        f = MODEL3.return_function((0.2, 0.9, 0.5))
        np.testing.assert_allclose(lower_expectation(psi, f), 0.2)

    def test_singleton_wraps_one_point(self):
        point = finite_point(1.0, (0.3, 0.3, 0.4), 0.0)
        psi = Infradistribution.singleton(point)
        assert psi.points == (point,)


class TestMixing:
    def test_classical_mixture_averages_scaled_measures(self):
        """Mixing two full-mass points with weights (0.25, 0.75) must give
        the weighted average on every return function."""
        a = Infradistribution.singleton(finite_point(1.0, (1.0, 0.0, 0.0), 0.0))
        b = Infradistribution.singleton(finite_point(1.0, (0.0, 1.0, 0.0), 0.0))
        mixed = mix_classical([a, b], [0.25, 0.75])
        f = MODEL3.return_function((1.0, 0.0, 0.0))
        np.testing.assert_allclose(lower_expectation(mixed, f), 0.25)

    def test_classical_mixture_scales_offsets(self):
        a = Infradistribution.singleton(finite_point(0.5, (0.5, 0.5, 0.0), 0.2))
        b = Infradistribution.singleton(finite_point(1.0, (0.0, 0.0, 1.0), 0.0))
        mixed = mix_classical([a, b], [0.5, 0.5])
        point = mixed.points[0]
        np.testing.assert_allclose(point.scale, 0.75)
        np.testing.assert_allclose(point.offset, 0.1)

    def test_classical_mixture_of_point_sets_is_a_product(self):
        a = Infradistribution(
            (
                finite_point(1.0, (1.0, 0.0, 0.0), 0.0),
                finite_point(1.0, (0.0, 1.0, 0.0), 0.0),
            )
        )
        b = Infradistribution.singleton(finite_point(1.0, (0.0, 0.0, 1.0), 0.0))
        mixed = mix_classical([a, b], [0.5, 0.5])
        assert len(mixed.points) == 2

    def test_knightian_mix_is_the_union_of_point_sets(self):
        a = Infradistribution.singleton(finite_point(1.0, (1.0, 0.0, 0.0), 0.0))
        b = Infradistribution.singleton(finite_point(1.0, (0.0, 1.0, 0.0), 0.0))
        union = mix_knightian([a, b])
        assert len(union.points) == 2
        f = MODEL3.return_function((0.3, 0.8, 0.0))
        np.testing.assert_allclose(lower_expectation(union, f), 0.3)

    def test_knightian_mix_rejects_mismatched_histories(self):
        model = ExplicitFiniteModel(2)
        a = Infradistribution.singleton(AMeasure(1.0, FiniteOutcomeMeasure((1.0, 0.0)), 0.0, model))
        b = Infradistribution.singleton(
            AMeasure(1.0, FiniteOutcomeMeasure((1.0, 0.0)), 0.0, model), ("x",)
        )
        with pytest.raises(RepresentationError):
            mix_knightian([a, b])


class TestPrune:
    def test_removes_exact_duplicates(self):
        point = finite_point(1.0, (0.5, 0.5, 0.0), 0.1)
        twin = finite_point(1.0, (0.5, 0.5, 0.0), 0.1)
        pruned = prune(Infradistribution((point, twin)))
        assert len(pruned.points) == 1

    def test_duplicates_are_matched_by_numbers_then_by_measure(self):
        """Equal but distinct measures at one scale and offset collapse to
        the first point; different measures at the same numbers both stay."""
        model = BernoulliArmsModel(2)
        first, other, twin = (model.point_measure(c) for c in ((0.3, 0.4), (0.3, 0.8), (0.3, 0.4)))
        assert twin is not first and twin == first
        points = tuple(AMeasure(1.0, m, 0.25, model) for m in (first, other, twin))
        pruned = prune(Infradistribution(points, model.initial_history()))
        assert pruned.points == points[:2]

    def test_removes_componentwise_dominated_points(self):
        low = finite_point(0.5, (0.4, 0.4, 0.2), 0.0)
        high = finite_point(1.0, (0.4, 0.4, 0.2), 0.3)
        pruned = prune(Infradistribution((low, high)))
        assert pruned.points == (low,)

    def test_keeps_incomparable_points(self):
        a = finite_point(1.0, (1.0, 0.0, 0.0), 0.0)
        b = finite_point(1.0, (0.0, 1.0, 0.0), 0.0)
        pruned = prune(Infradistribution((a, b)))
        assert len(pruned.points) == 2

    def test_convex_prune_drops_interior_points(self):
        """A point on the segment between two others never attains the
        minimum alone, so convex pruning may discard it."""
        a = finite_point(1.0, (1.0, 0.0, 0.0), 0.0)
        b = finite_point(1.0, (0.0, 1.0, 0.0), 0.0)
        masses = 0.5 * np.array([1.0, 0.0, 0.0]) + 0.5 * np.array([0.0, 1.0, 0.0])
        mid = finite_point(1.0, masses, 0.0)
        pruned = prune(Infradistribution((a, mid, b)), convex=True)
        assert len(pruned.points) == 2

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_pruning_never_moves_lower_expectations(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        n = data.draw(st.integers(2, 5))
        k = data.draw(st.integers(1, 6))
        model = ExplicitFiniteModel(n)
        points = tuple(
            AMeasure(
                2.0 * rng.random(),
                FiniteOutcomeMeasure(tuple(rng.dirichlet(np.ones(n)) * rng.random())),
                rng.random(),
                model,
            )
            for _ in range(k)
        )
        psi = Infradistribution(points)
        pruned = prune(psi, convex=True)
        for _ in range(5):
            f = model.return_function(tuple(rng.random(n)))
            np.testing.assert_allclose(
                lower_expectation(pruned, f),
                lower_expectation(psi, f),
                atol=1e-12,
            )
