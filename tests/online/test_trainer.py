"""IncrementalTrainer: cloning, view assembly, bit-exact reproducibility."""

import numpy as np
import pytest

from repro.online import (
    FineTuneConfig,
    IncrementalTrainer,
    derive_round_seed,
)


def assert_state_equal(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


class TestRoundSeed:
    def test_pure_function_of_inputs(self):
        assert derive_round_seed(0, 10) == derive_round_seed(0, 10)

    def test_varies_with_offset_and_seed(self):
        seeds = {derive_round_seed(0, 10), derive_round_seed(0, 11),
                 derive_round_seed(1, 10)}
        assert len(seeds) == 3


class TestClone:
    def test_clone_shares_nothing(self, trainer, online_model):
        clone = trainer.clone(online_model)
        assert_state_equal(clone.state_dict(), online_model.state_dict())
        first = next(iter(clone.parameters()))
        first.data = first.data + 1.0
        base_first = next(iter(online_model.parameters()))
        assert not np.array_equal(first.data, base_first.data)


class TestViewAssembly:
    def test_fresh_boost_oversamples_fresh_rows(self, ml_split, warm_deltas):
        trainer = IncrementalTrainer(ml_split, config=FineTuneConfig(
            steps=1, fresh_boost=3))
        view = trainer.build_view(warm_deltas)
        base = len(ml_split.train_ratings())
        assert len(view.ratings) == base + 3 * len(warm_deltas)

    def test_new_entities_join_the_pools(self, ml_split):
        trainer = IncrementalTrainer(ml_split, config=FineTuneConfig(steps=1))
        new_user = int(ml_split.train_users.max()) + 1
        new_item = int(ml_split.train_items.max()) + 1
        view = trainer.build_view(np.array([[new_user, new_item, 4.0]]))
        assert new_user in view.train_users
        assert new_item in view.train_items

    def test_no_deltas_trains_on_the_replay_pool(self, ml_split):
        trainer = IncrementalTrainer(ml_split, config=FineTuneConfig(steps=1))
        view = trainer.build_view(np.empty((0, 3)))
        assert np.array_equal(view.ratings, ml_split.train_ratings())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FineTuneConfig(steps=0)
        with pytest.raises(ValueError):
            FineTuneConfig(fresh_boost=0)

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5, float("nan")])
    def test_config_rejects_reveal_fraction_outside_unit_interval(
            self, fraction):
        """Rejected at construction, not in the first fine-tune round."""
        with pytest.raises(ValueError, match="reveal_fraction"):
            FineTuneConfig(reveal_fraction=fraction)


class TestFineTune:
    def test_round_changes_the_candidate_not_the_base(
            self, trainer, online_model, warm_deltas):
        before = online_model.state_dict()
        result = trainer.fine_tune(online_model, warm_deltas,
                                   len(warm_deltas))
        assert_state_equal(online_model.state_dict(), before)
        changed = any(
            not np.array_equal(value, before[name])
            for name, value in result.model.state_dict().items())
        assert changed
        assert result.steps == trainer.config.steps
        assert len(result.loss_history) == trainer.config.steps

    def test_rerun_from_same_offset_is_bit_identical(
            self, trainer, online_model, warm_deltas):
        first = trainer.fine_tune(online_model, warm_deltas, len(warm_deltas))
        second = trainer.fine_tune(online_model, warm_deltas, len(warm_deltas))
        assert first.round_seed == second.round_seed
        assert_state_equal(first.model.state_dict(),
                           second.model.state_dict())

    def test_different_offsets_draw_different_rounds(
            self, trainer, online_model, warm_deltas):
        a = trainer.fine_tune(online_model, warm_deltas, 10)
        b = trainer.fine_tune(online_model, warm_deltas, 20)
        assert a.round_seed != b.round_seed
