"""Trainer extensions: HIM design flags."""

import numpy as np
import pytest

from repro.core import HIRE, HIREConfig, HIRETrainer, TrainerConfig

from .permute import permute_context


@pytest.mark.usefixtures("float64")
class TestHIMDesignFlags:
    def test_no_residual_no_norm_still_runs(self, ml_dataset, ml_split):
        model = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2, attr_dim=4,
                                            use_residual=False,
                                            use_layer_norm=False, seed=0))
        trainer = HIRETrainer(model, ml_split, config=TrainerConfig(
            steps=3, batch_size=1, context_users=6, context_items=6, seed=0))
        history = trainer.fit()
        assert np.isfinite(history).all()

    def test_flag_combinations_change_parameter_count(self, ml_dataset):
        with_norm = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2,
                                                attr_dim=4, seed=0))
        without_norm = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2,
                                                   attr_dim=4,
                                                   use_layer_norm=False, seed=0))
        assert with_norm.num_parameters() > without_norm.num_parameters()

    def test_equivariance_preserved_without_residual(self, ml_dataset, ml_graph):
        """Property 5.1 must hold for every design variant."""
        from repro.core import build_context

        model = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2, attr_dim=4,
                                            use_residual=False, seed=0))
        rng = np.random.default_rng(0)
        ctx = build_context(ml_graph, np.arange(5), np.arange(4), rng)
        up, ip = rng.permutation(5), rng.permutation(4)
        base = model.predict(ctx)
        permuted = model.predict(permute_context(ctx, up, ip))
        np.testing.assert_allclose(base[np.ix_(up, ip)], permuted, atol=1e-9)
