"""HIRE model: output range, Property 5.1 (permutation equivariance of the
full model), config handling, attention capture."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HIRE, HIREConfig, build_context
from repro.data import RatingGraph, movielens_like

from .permute import permute_context


@pytest.fixture
def model(ml_dataset):
    return HIRE(ml_dataset, HIREConfig(num_blocks=2, num_heads=2, attr_dim=4, seed=0))


@pytest.fixture
def context(ml_graph):
    return build_context(ml_graph, np.arange(5), np.arange(6),
                         np.random.default_rng(0), reveal_fraction=0.2)


class TestForward:
    def test_output_shape(self, model, context):
        assert model(context).shape == (5, 6)

    def test_output_in_rating_range(self, model, context, ml_dataset):
        out = model(context).data
        assert (out >= 0).all()
        assert (out <= ml_dataset.rating_range[1]).all()

    def test_predict_is_deterministic(self, model, context):
        a = model.predict(context)
        b = model.predict(context)
        np.testing.assert_array_equal(a, b)

    def test_predict_restores_training_mode(self, model, context):
        model.train()
        model.predict(context)
        assert model.training

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("call", ["predict", "predict_row"])
    def test_predict_keeps_callers_mode(self, model, context, training,
                                        call):
        model.train(training)
        if call == "predict":
            model.predict(context)
        else:
            model.predict(context, row=1)
        assert all(m.training is training for m in model.modules())

    def test_predict_row_equals_full_row(self, model, context):
        """``predict(row=r)`` returns row ``r`` of ``predict()``, bitwise,
        through the engine's row tail and through the Tensor fallback."""
        full = model.predict(context)
        for row in range(context.n):
            assert model.predict(context, row=row).tobytes() == (
                full[row].tobytes())
        model.capture_attention(True)  # forces the Tensor path
        try:
            assert model.predict(context, row=2).tobytes() == (
                full[2].tobytes())
        finally:
            model.capture_attention(False)

    def test_same_seed_same_init(self, ml_dataset, context):
        a = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2, attr_dim=4, seed=5))
        b = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2, attr_dim=4, seed=5))
        np.testing.assert_array_equal(a.predict(context), b.predict(context))


class TestConfig:
    def test_defaults_match_paper(self):
        config = HIREConfig()
        assert config.num_blocks == 3
        assert config.num_heads == 8
        assert config.attr_dim == 16

    def test_invalid_blocks(self):
        with pytest.raises(ValueError):
            HIREConfig(num_blocks=0)

    def test_ablated_copy(self):
        config = HIREConfig(num_blocks=2)
        variant = config.ablated(use_user=False)
        assert not variant.use_user
        assert variant.num_blocks == 2
        assert config.use_user  # original untouched

    def test_alpha_follows_rating_scale(self, ml_dataset, book_dataset):
        assert HIRE(ml_dataset).alpha == 5.0
        assert HIRE(book_dataset).alpha == 10.0


@pytest.mark.usefixtures("float64")
class TestProperty51:
    def test_permutation_equivariance_exact(self, model, context):
        """Property 5.1: Π_u ∘ Π_i ∘ R̂ == M(Π_u ∘ Π_i ∘ H)."""
        rng = np.random.default_rng(7)
        up, ip = rng.permutation(context.n), rng.permutation(context.m)
        base = model.predict(context)
        permuted = model.predict(permute_context(context, up, ip))
        np.testing.assert_allclose(base[np.ix_(up, ip)], permuted, atol=1e-9)


class TestAttentionCapture:
    def test_capture_per_block(self, model, context):
        model.capture_attention(True)
        model.predict(context)
        captured = model.captured_attention()
        assert len(captured) == 2  # one dict per HIM block
        for block in captured:
            assert set(block) == {"user", "item", "attr"}
        model.capture_attention(False)
        model.predict(context)


@pytest.mark.usefixtures("float64")
@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 100))
def test_property_equivariance_random_contexts(seed):
    """Property 5.1 holds for arbitrary datasets, contexts and permutations."""
    ds = movielens_like(num_users=20, num_items=16, seed=seed, ratings_per_user=6.0)
    graph = RatingGraph(ds.ratings, ds.num_users, ds.num_items)
    rng = np.random.default_rng(seed)
    context = build_context(graph, rng.permutation(20)[:5], rng.permutation(16)[:4],
                            rng, reveal_fraction=0.2)
    model = HIRE(ds, HIREConfig(num_blocks=1, num_heads=2, attr_dim=4, seed=seed))
    up, ip = rng.permutation(5), rng.permutation(4)
    base = model.predict(context)
    permuted = model.predict(permute_context(context, up, ip))
    np.testing.assert_allclose(base[np.ix_(up, ip)], permuted, atol=1e-8)
