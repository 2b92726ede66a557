"""HIRETrainer: Algorithm 1 mechanics — context sampling, loss descent,
scheduler wiring."""

import numpy as np
import pytest

from repro import nn
from repro.core import HIRE, HIREConfig, HIRETrainer, TrainerConfig
from repro.core.sampling import RandomSampler


@pytest.fixture
def small_trainer(ml_dataset, ml_split):
    model = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2, attr_dim=4, seed=0))
    config = TrainerConfig(steps=8, batch_size=2, context_users=8,
                           context_items=8, seed=0)
    return HIRETrainer(model, ml_split, config=config)


class TestContextSampling:
    def test_training_context_is_warm_only(self, small_trainer, ml_split):
        for _ in range(5):
            ctx = small_trainer.sample_training_context()
            assert np.isin(ctx.users, ml_split.train_users).all()
            assert np.isin(ctx.items, ml_split.train_items).all()

    def test_training_context_has_queries(self, small_trainer):
        ctx = small_trainer.sample_training_context()
        assert ctx.num_query() > 0

    def test_context_budgets(self, small_trainer):
        ctx = small_trainer.sample_training_context()
        assert ctx.n == 8 and ctx.m == 8


class TestTraining:
    def test_loss_decreases(self, ml_dataset, ml_split):
        model = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2,
                                            attr_dim=4, seed=0))
        config = TrainerConfig(steps=40, batch_size=2, context_users=8,
                               context_items=8, seed=0)
        trainer = HIRETrainer(model, ml_split, config=config)
        history = trainer.fit()
        assert len(history) == 40
        assert np.mean(history[-5:]) < np.mean(history[:5]) * 0.8

    def test_parameters_change(self, small_trainer):
        before = {k: v.copy() for k, v in small_trainer.model.state_dict().items()}
        small_trainer.fit()
        after = small_trainer.model.state_dict()
        changed = [k for k in before if not np.allclose(before[k], after[k])]
        assert changed

    def test_scheduler_anneals(self, ml_dataset, ml_split):
        model = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2,
                                            attr_dim=4, seed=0))
        config = TrainerConfig(steps=10, batch_size=1, context_users=6,
                               context_items=6, base_lr=1e-3, seed=0)
        trainer = HIRETrainer(model, ml_split, config=config)
        trainer.fit()
        assert trainer.optimizer.lr == pytest.approx(0.0, abs=1e-9)

    def test_optimizer_is_lamb_inside_lookahead(self, small_trainer):
        """The paper's optimiser: LAMB (betas 0.9/0.999, eps 1e-6) at the
        base learning rate, wrapped in Lookahead with alpha 0.5 and k 6."""
        optimizer = small_trainer.optimizer
        assert isinstance(optimizer, nn.Lookahead)
        assert (optimizer.alpha, optimizer.k) == (0.5, 6)
        inner = optimizer.inner
        assert isinstance(inner, nn.LAMB)
        assert (inner.beta1, inner.beta2, inner.eps) == (0.9, 0.999, 1e-6)
        assert inner.lr == small_trainer.config.base_lr

    def test_custom_sampler(self, ml_dataset, ml_split):
        model = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2,
                                            attr_dim=4, seed=0))
        trainer = HIRETrainer(model, ml_split, sampler=RandomSampler(),
                              config=TrainerConfig(steps=2, batch_size=1,
                                                   context_users=6,
                                                   context_items=6, seed=0))
        assert len(trainer.fit()) == 2


def make_trainer(ml_dataset, ml_split, **overrides):
    model = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2,
                                        attr_dim=4, seed=0))
    config = TrainerConfig(**{
        "steps": 6, "batch_size": 2, "context_users": 8,
        "context_items": 8, "seed": 0, **overrides})
    return HIRETrainer(model, ml_split, config=config)


class TestPerStepRng:
    def test_legacy_default_stream_is_unchanged(self, ml_dataset, ml_split):
        # The default keeps the original shared advancing stream — a
        # different (equally valid) trajectory from per-step derivation,
        # which is exactly why per-step RNG is opt-in.
        trainer = make_trainer(ml_dataset, ml_split)
        assert not trainer.config.per_step_rng
        derived = make_trainer(ml_dataset, ml_split, per_step_rng=True)
        assert trainer.fit() != derived.fit()

    def test_step_sampling_is_pure(self, ml_dataset, ml_split):
        trainer = make_trainer(ml_dataset, ml_split, per_step_rng=True)
        once = trainer._sample_step_batch(3)
        again = trainer._sample_step_batch(3)
        assert len(once) == trainer.config.batch_size
        for a, b in zip(once, again):
            assert np.array_equal(a.users, b.users)
            assert np.array_equal(a.items, b.items)
            assert np.array_equal(a.ratings, b.ratings)
            assert np.array_equal(a.query, b.query)


class TestValidation:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(steps=0)
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=0)

    @pytest.mark.parametrize("field", ["reveal_fraction",
                                       "reveal_fraction_high"])
    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5, float("nan")])
    def test_config_rejects_reveal_fraction_outside_unit_interval(
            self, field, fraction):
        """Rejected at construction, not at the first sampled context."""
        with pytest.raises(ValueError, match=field):
            TrainerConfig(**{field: fraction})

    def test_empty_split_rejected(self, ml_dataset, ml_split):
        import dataclasses

        from repro.data import ColdStartSplit

        # A split whose warm quadrant is empty (all items cold).
        empty = ColdStartSplit(
            dataset=ml_dataset,
            train_users=ml_split.train_users,
            test_users=ml_split.test_users,
            train_items=np.empty(0, dtype=np.int64),
            test_items=np.arange(ml_dataset.num_items),
        )
        model = HIRE(ml_dataset, HIREConfig(num_blocks=1, num_heads=2,
                                            attr_dim=4, seed=0))
        with pytest.raises(ValueError, match="no warm"):
            HIRETrainer(model, empty)
