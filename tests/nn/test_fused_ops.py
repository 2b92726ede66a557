"""Fused-kernel guarantees: finite-difference gradchecks for every fused op,
float64 equivalence at <= 1e-10 against the decomposed oracle in
``reference_kernels.py``, packed-QKV checkpoint compatibility, and the
float32 dtype policy."""

import numpy as np
import pytest

import repro.nn.functional as F
from repro import nn
from repro.nn import MultiHeadSelfAttention, Parameter, Tensor

from .reference_kernels import (
    gelu_reference,
    layer_norm_reference,
    linear_reference,
    mba_reference,
    mhsa_reference,
)
from .test_tensor import check_grad

EQ_TOL = 1e-10


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def _clone_param(t: Tensor) -> Tensor:
    return Tensor(t.data.copy(), requires_grad=True)


class TestGradchecks:
    def test_layer_norm_wrt_input(self, rng):
        gamma = Tensor(rng.normal(size=(6,)))
        beta = Tensor(rng.normal(size=(6,)))
        check_grad(lambda t: F.layer_norm(t, gamma, beta),
                   rng.normal(size=(3, 4, 6)), tol=1e-5)

    def test_layer_norm_wrt_gamma_beta(self, rng):
        x = Tensor(rng.normal(size=(5, 6)))
        check_grad(lambda g: F.layer_norm(x, g, Tensor(np.zeros(6))),
                   rng.normal(size=(6,)), tol=1e-5)
        check_grad(lambda b: F.layer_norm(x, Tensor(np.ones(6)), b),
                   rng.normal(size=(6,)), tol=1e-5)

    def test_gelu(self, rng):
        check_grad(lambda t: F.gelu(t), rng.normal(size=(4, 3)), tol=1e-5)

    def test_linear_wrt_input(self, rng):
        w = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(3,)))
        check_grad(lambda t: F.linear(t, w, b), rng.normal(size=(2, 5, 4)), tol=1e-5)

    def test_linear_wrt_weight_and_bias(self, rng):
        x = Tensor(rng.normal(size=(5, 4)))
        b = Tensor(rng.normal(size=(3,)))
        check_grad(lambda w: F.linear(x, w, b), rng.normal(size=(4, 3)), tol=1e-5)
        w = Tensor(rng.normal(size=(4, 3)))
        check_grad(lambda bb: F.linear(x, w, bb), rng.normal(size=(3,)), tol=1e-5)

    def test_multi_head_attention_qkv(self, rng):
        # (batch, t, 3d) packed projection, d = 4, 2 heads.
        check_grad(lambda t: F.multi_head_attention_qkv(t, num_heads=2),
                   rng.normal(size=(2, 3, 12)), tol=1e-5)

    def test_gradcheck_through_packed_mhsa(self, rng):
        mhsa = MultiHeadSelfAttention(4, 2, rng)
        check_grad(lambda t: mhsa(t), rng.normal(size=(3, 4)), tol=1e-5)

    @pytest.mark.parametrize("norm", [True, False])
    @pytest.mark.parametrize("residual", [True, False])
    def test_attribute_attention_each_input(self, rng, norm, residual):
        # (2, 3) cells of t = 4 tokens, d = 6 in 3 heads; with a bias.
        x0 = rng.normal(size=(2, 3, 4, 6))
        params = {"w_qkv": rng.normal(size=(6, 18)) * 0.5,
                  "w_out": rng.normal(size=(6, 6)) * 0.5,
                  "bias": rng.normal(size=(6,))}
        if norm:
            params["gamma"] = 1.0 + 0.3 * rng.normal(size=(6,))
            params["beta"] = rng.normal(size=(6,))

        def op(x, **swap):
            kw = {name: Tensor(value) for name, value in params.items()}
            kw.update(swap)
            return F.attribute_attention(x, kw.pop("w_qkv"), kw.pop("w_out"),
                                         3, residual=residual, **kw)

        check_grad(lambda t: op(t), x0, tol=1e-5)
        for name, value in params.items():
            check_grad(lambda t: op(Tensor(x0), **{name: t}), value, tol=1e-5)


class TestFusedVsReferenceEquivalence:
    def test_layer_norm(self, rng):
        x = rng.normal(size=(3, 7, 6))
        gamma, beta = rng.normal(size=(6,)), rng.normal(size=(6,))

        fused_in = Tensor(x, requires_grad=True)
        fused = F.layer_norm(fused_in, g1 := Tensor(gamma, requires_grad=True),
                             b1 := Tensor(beta, requires_grad=True))
        ref_in = Tensor(x, requires_grad=True)
        ref = layer_norm_reference(ref_in, g2 := Tensor(gamma, requires_grad=True),
                                   b2 := Tensor(beta, requires_grad=True))
        np.testing.assert_allclose(fused.data, ref.data, atol=EQ_TOL, rtol=0)

        upstream = rng.normal(size=fused.shape)
        (fused * Tensor(upstream)).sum().backward()
        (ref * Tensor(upstream)).sum().backward()
        np.testing.assert_allclose(fused_in.grad, ref_in.grad, atol=EQ_TOL, rtol=0)
        np.testing.assert_allclose(g1.grad, g2.grad, atol=EQ_TOL, rtol=0)
        np.testing.assert_allclose(b1.grad, b2.grad, atol=EQ_TOL, rtol=0)

    def test_gelu(self, rng):
        x = rng.normal(size=(5, 4))
        a = Tensor(x, requires_grad=True)
        b = Tensor(x, requires_grad=True)
        fused, ref = F.gelu(a), gelu_reference(b)
        np.testing.assert_allclose(fused.data, ref.data, atol=EQ_TOL, rtol=0)
        fused.sum().backward()
        ref.sum().backward()
        np.testing.assert_allclose(a.grad, b.grad, atol=EQ_TOL, rtol=0)

    def test_linear(self, rng):
        x = rng.normal(size=(3, 5, 4))
        w, bias = rng.normal(size=(4, 2)), rng.normal(size=(2,))
        a = Tensor(x, requires_grad=True)
        w1, b1 = Tensor(w, requires_grad=True), Tensor(bias, requires_grad=True)
        fused = F.linear(a, w1, b1)
        c = Tensor(x, requires_grad=True)
        w2, b2 = Tensor(w, requires_grad=True), Tensor(bias, requires_grad=True)
        ref = linear_reference(c, w2, b2)
        np.testing.assert_allclose(fused.data, ref.data, atol=EQ_TOL, rtol=0)
        fused.sum().backward()
        ref.sum().backward()
        np.testing.assert_allclose(a.grad, c.grad, atol=EQ_TOL, rtol=0)
        np.testing.assert_allclose(w1.grad, w2.grad, atol=EQ_TOL, rtol=0)
        np.testing.assert_allclose(b1.grad, b2.grad, atol=EQ_TOL, rtol=0)

    def test_packed_attention_forward_and_grads(self, rng):
        """Fused MHSA matches the three-matmul reference: output, captured
        weights and every gradient."""
        mhsa = MultiHeadSelfAttention(8, 2, rng)
        x = rng.normal(size=(3, 5, 8))
        upstream = rng.normal(size=x.shape)
        for capture in (False, True):
            mhsa.capture_attention = capture
            results = []
            for forward in (mhsa, lambda t: mhsa_reference(mhsa, t)):
                mhsa.zero_grad()
                mhsa.last_attention = None
                xt = Tensor(x, requires_grad=True)
                out = forward(xt)
                (out * Tensor(upstream)).sum().backward()
                results.append([out.data, xt.grad, mhsa.w_qkv.grad.copy(),
                                mhsa.w_output.weight.grad.copy()])
                if capture:
                    results[-1].append(mhsa.last_attention)
                else:
                    assert mhsa.last_attention is None
            for fused, ref in zip(*results):
                np.testing.assert_allclose(fused, ref, atol=EQ_TOL, rtol=0)

    @pytest.mark.parametrize("flags", [
        {}, {"use_layer_norm": False}, {"use_residual": False},
        {"use_layer_norm": False, "use_residual": False},
    ])
    def test_attribute_attention_matches_row_major_reference(self, flags):
        """HIM's MBA: the token-major node vs the decomposed row-major
        reference, outputs and every gradient within 1e-10."""
        from repro.core.him import HIM

        him = HIM(5, 8, 2, np.random.default_rng(0), use_user=False,
                  use_item=False, **flags)
        x = np.random.default_rng(1).normal(size=(2, 3, 4, 40))
        upstream = np.random.default_rng(2).normal(size=x.shape)
        results = []
        for forward in (him.interact_attributes,
                        lambda t: mba_reference(him, t)):
            him.zero_grad()
            h = Tensor(x, requires_grad=True)
            out = forward(h)
            (out * Tensor(upstream)).sum().backward()
            results.append((out.data, h.grad, {
                name: p.grad.copy() for name, p in him.named_parameters()}))
        (out_f, gx_f, grads_f), (out_r, gx_r, grads_r) = results
        np.testing.assert_allclose(out_f, out_r, atol=EQ_TOL, rtol=0)
        np.testing.assert_allclose(gx_f, gx_r, atol=EQ_TOL, rtol=0)
        assert grads_f.keys() == grads_r.keys()
        for name in grads_f:
            np.testing.assert_allclose(grads_f[name], grads_r[name],
                                       atol=EQ_TOL, rtol=0, err_msg=name)


class TestAttributeAttentionBatchInvariance:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_cell_bytes_do_not_depend_on_batch(self, dtype):
        """A cell's output bytes are the same whether it runs alone, in a
        small batch or at any offset of a large one — what lets batched and
        padded engine forwards match one-context Tensor forwards."""
        rng = np.random.default_rng(3)
        t, d, heads = 9, 16, 8   # the paper's MBA: h = 9 tokens, 8 heads
        x = rng.normal(size=(1100, t, d)).astype(dtype)
        w_qkv = Tensor((0.3 * rng.normal(size=(d, 3 * d))).astype(dtype))
        w_out = Tensor((0.3 * rng.normal(size=(d, d))).astype(dtype))
        gamma = Tensor(rng.normal(size=d).astype(dtype))
        beta = Tensor(rng.normal(size=d).astype(dtype))

        def run(cells):
            return F.attribute_attention(Tensor(cells), w_qkv, w_out, heads,
                                         gamma=gamma, beta=beta).data

        full = run(x)
        for count in (1, 2, 3, 7, 16, 17, 99, 144, 253, 255, 256, 257):
            for offset in (0, 5):
                part = run(x[offset:offset + count])
                assert part.tobytes() == full[offset:offset + count].tobytes(), (
                    count, offset)


class TestCheckpointCompatibility:
    def test_old_three_matrix_state_dict_loads(self, rng):
        mhsa = MultiHeadSelfAttention(8, 2, rng)
        d = mhsa.embed_dim
        state = mhsa.state_dict()
        # Rewrite as a pre-packing checkpoint: separate W_q / W_k / W_v.
        old_state = {
            "w_query.weight": state["w_qkv"][:, :d],
            "w_key.weight": state["w_qkv"][:, d:2 * d],
            "w_value.weight": state["w_qkv"][:, 2 * d:],
            "w_output.weight": state["w_output.weight"],
        }
        fresh = MultiHeadSelfAttention(8, 2, np.random.default_rng(99))
        fresh.load_state_dict(old_state)
        np.testing.assert_array_equal(fresh.w_qkv.data, mhsa.w_qkv.data)

    def test_old_checkpoint_forward_is_bitwise_identical(self, rng, tmp_path):
        """Loading a pre-PR (three-matrix) checkpoint must give bitwise the
        same float64 forward output as the natively packed weights."""
        mhsa = MultiHeadSelfAttention(16, 4, rng)
        d = mhsa.embed_dim
        state = mhsa.state_dict()
        old_state = {
            "w_query.weight": state["w_qkv"][:, :d],
            "w_key.weight": state["w_qkv"][:, d:2 * d],
            "w_value.weight": state["w_qkv"][:, 2 * d:],
            "w_output.weight": state["w_output.weight"],
        }
        nn.save_checkpoint(tmp_path / "old.npz", old_state)
        loaded_state, _ = nn.load_checkpoint(tmp_path / "old.npz")
        restored = MultiHeadSelfAttention(16, 4, np.random.default_rng(123))
        restored.load_state_dict(loaded_state)

        x = Tensor(rng.normal(size=(3, 7, 16)))
        np.testing.assert_array_equal(restored(x).data, mhsa(x).data)

    def test_round_trip_new_format(self, rng, tmp_path):
        mhsa = MultiHeadSelfAttention(8, 2, rng)
        nn.save_module(tmp_path / "new.npz", mhsa)
        fresh = MultiHeadSelfAttention(8, 2, np.random.default_rng(7))
        nn.load_module(tmp_path / "new.npz", fresh)
        np.testing.assert_array_equal(fresh.w_qkv.data, mhsa.w_qkv.data)


class TestDtypePolicy:
    def test_default_is_float64(self):
        assert nn.get_default_dtype() == np.dtype(np.float64)
        assert Tensor([1.0, 2.0]).data.dtype == np.float64

    def test_policy_scopes_new_tensors_and_params(self, rng):
        with nn.dtype_policy(np.float32):
            layer = nn.Linear(4, 3, rng)
            assert layer.weight.data.dtype == np.float32
            assert Tensor([1.0]).data.dtype == np.float32
        assert nn.get_default_dtype() == np.dtype(np.float64)
        assert layer.weight.data.dtype == np.float32  # params keep their dtype

    def test_float32_graph_stays_float32_end_to_end(self, rng):
        with nn.dtype_policy(np.float32):
            mhsa = MultiHeadSelfAttention(8, 2, rng)
            ln = nn.LayerNorm(8)
            x = Tensor(rng.normal(size=(4, 8)).astype(np.float32), requires_grad=True)
            out = F.gelu(mhsa(ln(x)))
            assert out.data.dtype == np.float32
            loss = F.masked_mse_loss(out, np.zeros((4, 8)), np.ones((4, 8), bool))
            assert loss.data.dtype == np.float32
            loss.backward()
        assert x.grad.dtype == np.float32
        assert mhsa.w_qkv.grad.dtype == np.float32
        assert ln.gamma.grad.dtype == np.float32

    def test_optimizer_state_follows_policy(self, rng):
        with nn.dtype_policy(np.float32):
            layer = nn.Linear(3, 2, rng)
            opt = nn.LAMB(layer.parameters(), lr=1e-3)
        assert all(m.dtype == np.float32 for m in opt._m)
        layer(Tensor(np.ones((2, 3), dtype=np.float32))).sum().backward()
        opt.step()
        assert layer.weight.data.dtype == np.float32

    def test_dropout_mask_follows_input_dtype(self, rng):
        x32 = Tensor(rng.normal(size=(64, 64)).astype(np.float32), requires_grad=True)
        out = F.dropout(x32, 0.5, rng, training=True)
        assert out.data.dtype == np.float32
        # Eval mode is the identity — same object, no mask allocated.
        assert F.dropout(x32, 0.5, rng, training=False) is x32

    def test_scalar_constants_do_not_upcast(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert (x * 2.0 + 1.0).data.dtype == np.float32
        assert (1.0 / x).data.dtype == np.float32

    def test_load_checkpoint_dtype_cast(self, rng, tmp_path):
        layer = nn.Linear(3, 2, rng)
        nn.save_module(tmp_path / "ckpt.npz", layer)
        with nn.dtype_policy(np.float32):
            state, _ = nn.load_checkpoint(tmp_path / "ckpt.npz", dtype="default")
            assert state["weight"].dtype == np.float32
            target = nn.Linear(3, 2, rng)
            target.load_state_dict(state)
            assert target.weight.data.dtype == np.float32

    def test_rejects_non_float_dtype(self):
        with pytest.raises(ValueError):
            nn.set_default_dtype(np.int32)


class TestEmbeddingBackward:
    def test_duplicate_indices_accumulate(self, rng):
        table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
        idx = np.array([[5, 1, 1], [0, 5, 5]])
        out = F.embedding_lookup(table, idx)
        upstream = rng.normal(size=out.shape)
        out.backward(upstream)
        expected = np.zeros((6, 3))
        np.add.at(expected, idx.reshape(-1), upstream.reshape(-1, 3))
        np.testing.assert_allclose(table.grad, expected, atol=EQ_TOL)

    def test_two_lookups_accumulate_into_same_table(self, rng):
        table = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        a = F.embedding_lookup(table, np.array([0, 1]))
        b = F.embedding_lookup(table, np.array([1, 3]))
        (a.sum() + b.sum()).backward()
        expected = np.zeros((4, 2))
        expected[0] += 1.0
        expected[1] += 2.0
        expected[3] += 1.0
        np.testing.assert_allclose(table.grad, expected, atol=EQ_TOL)

    def test_grad_is_dense_for_optimizer(self, rng):
        table = Parameter(rng.normal(size=(5, 2)))
        F.embedding_lookup(table, np.array([2])).sum().backward()
        assert isinstance(table.grad, np.ndarray)
        assert table.grad.shape == (5, 2)


class TestBackwardAccumulation:
    def test_repeated_use_accumulates_correctly(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        out = x * 1.0 + x * 2.0 + x * 3.0 + x * 4.0
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 10.0), atol=EQ_TOL)

    def test_shared_upstream_grad_not_corrupted(self, rng):
        # y feeds two adds; the accumulation must not mutate a shared buffer.
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = Tensor(rng.normal(size=(3,)), requires_grad=True)
        ((x + y) + (x + y)).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 2.0), atol=EQ_TOL)
        np.testing.assert_allclose(y.grad, np.full(3, 2.0), atol=EQ_TOL)

    def test_grad_accumulates_across_backward_calls(self, rng):
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (x * 2.0).sum().backward()
        first = x.grad.copy()
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, first + 3.0, atol=EQ_TOL)


def test_substrate_microbench_smoke(tmp_path):
    """Tier-1 smoke of the benchmark harness: runs in seconds, no JSON write."""
    from repro.experiments.substrate_bench import run_observability_overhead

    payload = run_observability_overhead(smoke=True)
    assert payload["smoke"] is True
    assert payload["trajectories_identical"]
    assert payload["disabled"]["train_step_seconds"] > 0
