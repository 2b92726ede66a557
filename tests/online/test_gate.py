"""PromotionGate: deterministic probes, accept/reject, live-window tasks."""

import numpy as np
import pytest

from repro.online import GateConfig, ProbeResult, PromotionGate, tasks_from_deltas


def probe(rmse):
    return ProbeResult(rmse=rmse, mae=rmse * 0.8, num_tasks=3, num_ratings=30)


class TestEvaluate:
    def test_probe_score_is_deterministic(self, gate, online_model):
        first = gate.evaluate(online_model)
        second = gate.evaluate(online_model)
        assert first.rmse == second.rmse
        assert first.mae == second.mae
        assert first.num_tasks == len(gate.probe_tasks)
        assert first.num_ratings == sum(len(t.query) for t in gate.probe_tasks)

    def test_empty_task_list_raises(self, gate, online_model):
        with pytest.raises(ValueError, match="empty task list"):
            gate.evaluate(online_model, tasks=[])

    def test_gate_requires_a_probe(self, ml_split):
        with pytest.raises(ValueError, match="at least one task"):
            PromotionGate(ml_split, [])


class TestDecide:
    def test_better_candidate_accepted(self, gate):
        decision = gate.decide(probe(0.9), probe(1.0))
        assert decision.accepted
        assert "<=" in decision.reason

    def test_equal_candidate_accepted_at_zero_margin(self, gate):
        assert gate.decide(probe(1.0), probe(1.0)).accepted

    def test_worse_candidate_rejected(self, gate):
        decision = gate.decide(probe(1.01), probe(1.0))
        assert not decision.accepted

    def test_accept_margin_gives_slack(self, ml_split, probe_tasks):
        gate = PromotionGate(ml_split, probe_tasks,
                             GateConfig(accept_margin=0.05))
        assert gate.decide(probe(1.04), probe(1.0)).accepted
        assert not gate.decide(probe(1.06), probe(1.0)).accepted

    def test_judge_rejects_a_deliberately_regressed_candidate(
            self, gate, trainer, online_model):
        """Scrambling every parameter with large noise must fail the gate."""
        wrecked = trainer.clone(online_model)
        rng = np.random.default_rng(0)
        for param in wrecked.parameters():
            param.data = param.data + rng.normal(0.0, 5.0, param.data.shape)
        decision = gate.judge(wrecked, online_model)
        assert not decision.accepted
        assert decision.candidate.rmse > decision.active.rmse


class TestRollbackThreshold:
    def test_regressed_beyond_margin(self, ml_split, probe_tasks):
        gate = PromotionGate(ml_split, probe_tasks,
                             GateConfig(rollback_margin=0.05))
        assert gate.regressed(probe(1.06), probe(1.0))
        assert not gate.regressed(probe(1.04), probe(1.0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GateConfig(accept_margin=-0.1)
        with pytest.raises(ValueError):
            GateConfig(rollback_margin=-0.1)

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5, float("nan")])
    def test_config_rejects_reveal_fraction_outside_unit_interval(
            self, fraction):
        """Rejected at construction, not at the first evaluate()."""
        with pytest.raises(ValueError, match="reveal_fraction"):
            GateConfig(reveal_fraction=fraction)


class TestLiveTasks:
    def test_groups_deltas_per_user(self, gate):
        graph = gate.graph
        users, items = [], []
        # Find two distinct unrated (user, item) pairs per user.
        for user in range(graph.num_users):
            free = [i for i in range(graph.num_items)
                    if not graph.has_rating(user, i)]
            if len(free) >= 2:
                users.append(user)
                items.append(free[:2])
            if len(users) == 2:
                break
        deltas = np.array([[users[0], items[0][0], 3.0],
                           [users[0], items[0][1], 4.0],
                           [users[1], items[1][0], 5.0]])
        tasks = gate.live_tasks(deltas)
        assert len(tasks) == 2
        by_user = {task.user: task for task in tasks}
        assert len(by_user[users[0]].query) == 2
        assert len(by_user[users[1]].query) == 1
        assert all(task.support.size == 0 for task in tasks)

    def test_observed_pairs_are_filtered(self, gate, ml_split):
        rated = ml_split.train_ratings()[0]
        assert tasks_from_deltas(np.array([rated]), gate.graph) == []

    def test_live_window_scores_both_models(self, gate, online_model,
                                            trainer):
        graph = gate.graph
        free = [(u, i) for u in range(5) for i in range(graph.num_items)
                if not graph.has_rating(u, i)][:4]
        deltas = np.array([[u, i, 4.0] for u, i in free])
        tasks = gate.live_tasks(deltas)
        assert tasks
        result = gate.evaluate(online_model, tasks)
        assert result.num_ratings == len(deltas)
        assert np.isfinite(result.rmse)
