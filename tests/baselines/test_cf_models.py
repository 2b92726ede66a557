"""CF baselines (NeuMF, Wide&Deep, DeepFM, AFN): learning and prediction."""

import numpy as np
import pytest

from repro.baselines import AFN, DeepFM, NeuMF, WideDeep
from repro.eval import build_eval_tasks, evaluate_model

CF_CLASSES = [NeuMF, WideDeep, DeepFM, AFN]


@pytest.fixture(scope="module")
def user_tasks(ml_split):
    return build_eval_tasks(ml_split, "user", min_query=5, seed=0, max_tasks=5)


@pytest.mark.parametrize("cls", CF_CLASSES)
class TestCFCommon:
    def test_fit_and_predict(self, cls, ml_dataset, ml_split, user_tasks):
        model = cls(ml_dataset, steps=30, seed=0)
        model.fit(ml_split, user_tasks)
        scores = model.predict_task(user_tasks[0])
        assert scores.shape == (len(user_tasks[0].query_items),)
        assert np.isfinite(scores).all()

    def test_loss_decreases(self, cls, ml_dataset, ml_split, user_tasks):
        model = cls(ml_dataset, steps=250, seed=0)
        model.fit(ml_split, user_tasks)
        assert np.mean(model.loss_history[-20:]) < np.mean(model.loss_history[:20])

    def test_deterministic_given_seed(self, cls, ml_dataset, ml_split, user_tasks):
        a = cls(ml_dataset, steps=15, seed=3)
        a.fit(ml_split, user_tasks)
        b = cls(ml_dataset, steps=15, seed=3)
        b.fit(ml_split, user_tasks)
        np.testing.assert_allclose(a.predict_task(user_tasks[0]),
                                   b.predict_task(user_tasks[0]))

    def test_beats_chance_on_warm_fit(self, cls, ml_dataset, ml_split, user_tasks):
        """A trained CF model should rank better than random on average."""
        model = cls(ml_dataset, steps=400, seed=0)
        result = evaluate_model(model, ml_split, "user", ks=(5,), tasks=user_tasks)

        class Chance:
            name = "chance"

            def __init__(self):
                self.rng = np.random.default_rng(0)

            def fit(self, split, tasks):
                pass

            def predict_task(self, task):
                return self.rng.random(len(task.query_items))

        chance_vals = []
        for rep in range(5):
            chance = Chance()
            chance.rng = np.random.default_rng(rep)
            chance_vals.append(
                evaluate_model(chance, ml_split, "user", ks=(5,),
                               tasks=user_tasks).metrics[5]["ndcg"])
        assert result.metrics[5]["ndcg"] > np.mean(chance_vals) - 0.05


@pytest.mark.usefixtures("float64")
class TestArchitectureSpecifics:
    def test_neumf_has_gmf_and_mlp(self, ml_dataset, ml_split):
        model = NeuMF(ml_dataset, steps=2, seed=0)
        model.fit(ml_split, [])
        names = dict(model.network.named_parameters())
        assert any("user_proj" in n for n in names)
        assert any("mlp" in n for n in names)
        assert any("head" in n for n in names)

    def test_widedeep_has_wide_and_deep(self, ml_dataset, ml_split):
        model = WideDeep(ml_dataset, steps=2, seed=0)
        model.fit(ml_split, [])
        names = dict(model.network.named_parameters())
        assert any("wide_user" in n for n in names)
        assert any("deep" in n for n in names)

    def test_deepfm_second_order_identity(self, ml_dataset, ml_split):
        """The FM trick 0.5((Σv)² − Σv²) equals the explicit pairwise sum."""
        model = DeepFM(ml_dataset, steps=2, seed=0)
        model.fit(ml_split, [])
        net = model.network
        users, items = np.array([0, 1]), np.array([0, 1])
        fields = net.encoder.field_embeddings(users, items).data
        summed = fields.sum(axis=1)
        trick = 0.5 * ((summed * summed) - (fields * fields).sum(axis=1)).sum(-1)
        explicit = np.zeros(2)
        nf = fields.shape[1]
        for a in range(nf):
            for b in range(a + 1, nf):
                explicit += (fields[:, a] * fields[:, b]).sum(-1)
        np.testing.assert_allclose(trick, explicit, atol=1e-10)

    def test_afn_handles_negative_embeddings(self, ml_dataset, ml_split):
        """The abs+clip floor keeps log() finite for any embedding sign."""
        model = AFN(ml_dataset, steps=5, seed=0)
        model.fit(ml_split, [])
        assert np.isfinite(model.loss_history).all()

    def test_afn_log_neuron_count(self, ml_dataset, ml_split):
        model = AFN(ml_dataset, num_log_neurons=3, steps=2, seed=0)
        model.fit(ml_split, [])
        assert model.network.log_weights.shape[1] == 3
