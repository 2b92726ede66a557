"""Batched multi-context forward: equivalence with the per-context loop."""

import numpy as np
import pytest

import repro.nn.functional as F
from repro.core import HIRE, HIREConfig, HIRETrainer, TrainerConfig


@pytest.fixture
def setup(ml_dataset, ml_split):
    model = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2, attr_dim=4, seed=0))
    trainer = HIRETrainer(model, ml_split, config=TrainerConfig(
        steps=2, batch_size=3, context_users=8, context_items=8, seed=0))
    contexts = [trainer.sample_training_context() for _ in range(3)]
    return model, contexts


@pytest.mark.usefixtures("float64")
class TestForwardMany:
    def test_matches_individual_forwards(self, setup):
        model, contexts = setup
        batched = model.forward_many(contexts).data
        for index, context in enumerate(contexts):
            single = model(context).data
            np.testing.assert_allclose(batched[index], single, atol=1e-12)

    def test_gradients_match_loop(self, setup):
        model, contexts = setup

        def batch_grads(use_batched):
            model.zero_grad()
            if use_batched:
                predicted = model.forward_many(contexts)
                losses = [F.masked_mse_loss(predicted[i], c.ratings, c.query)
                          for i, c in enumerate(contexts)]
            else:
                losses = [F.masked_mse_loss(model(c), c.ratings, c.query)
                          for c in contexts]
            total = losses[0]
            for loss in losses[1:]:
                total = total + loss
            total.backward()
            return {k: p.grad.copy() for k, p in model.named_parameters()
                    if p.grad is not None}

        a = batch_grads(True)
        b = batch_grads(False)
        assert set(a) == set(b)
        for key in a:
            np.testing.assert_allclose(a[key], b[key], atol=1e-10, err_msg=key)

    def test_rejects_mixed_sizes(self, setup, ml_split):
        model, contexts = setup
        trainer = HIRETrainer(model, ml_split, config=TrainerConfig(
            steps=1, batch_size=1, context_users=6, context_items=6, seed=1))
        odd = trainer.sample_training_context()
        with pytest.raises(ValueError, match="equally-sized"):
            model.forward_many(contexts + [odd])

    def test_rejects_empty(self, setup):
        model, _ = setup
        with pytest.raises(ValueError):
            model.forward_many([])

    def test_trainer_paths_agree(self, ml_dataset, ml_split):
        """The trainer's stacked step produces the loss trajectory of a
        per-context loop (same contexts, same math).  The oracle runs each
        context through its own one-context graph and stacks the outputs,
        so every per-context loss and its gradient come from that loop."""
        histories = []
        for stacked in (True, False):
            model = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2,
                                                attr_dim=4, seed=0))
            if not stacked:
                model.forward_many = lambda contexts, model=model: F.stack(
                    [model(context) for context in contexts], axis=0)
            trainer = HIRETrainer(model, ml_split, config=TrainerConfig(
                steps=4, batch_size=2, context_users=8, context_items=8,
                seed=0))
            histories.append(trainer.fit())
        np.testing.assert_allclose(histories[0], histories[1], rtol=1e-9)
