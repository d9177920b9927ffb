"""Per-op gradient checks for the tape engine against central differences."""

import numpy as np
import pytest

from uwbcorr import autodiff as ad


def finite_diff(f, x, step=1e-6):
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + step
        fp = f()
        flat[i] = old - step
        fm = f()
        flat[i] = old
        gf[i] = (fp - fm) / (2 * step)
    return g


def check_grad(build, *shapes, seed=0, atol=1e-7):
    rng = np.random.default_rng(seed)
    tensors = [ad.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]

    def loss_value():
        return float(ad.mean_all(build(*tensors)).data)

    loss = ad.mean_all(build(*tensors))
    ad.backward(loss)
    for t in tensors:
        numeric = finite_diff(lambda: loss_value(), t.data)
        assert np.allclose(t.grad, numeric, atol=atol), (t.grad, numeric)


def squared(t):
    return ad.mul(t, t)


class TestOps:
    def test_add_broadcast(self):
        check_grad(lambda a, b: ad.add(a, b), (3, 4), (4,))

    def test_sub(self):
        check_grad(lambda a, b: ad.sub(a, b), (2, 3), (2, 3))

    def test_mul_broadcast(self):
        check_grad(lambda a, b: ad.mul(a, b), (2, 3, 4), (3, 4))

    def test_scale(self):
        check_grad(lambda a: ad.scale(a, -2.5), (3, 3))

    def test_matmul_2d(self):
        check_grad(lambda a, b: ad.matmul(a, b), (3, 4), (4, 5))

    def test_matmul_batched_shared_rhs(self):
        check_grad(lambda a, b: ad.matmul(a, b), (2, 3, 4), (4, 5))

    def test_matmul_batched_both(self):
        check_grad(lambda a, b: ad.matmul(a, b), (2, 2, 3, 4), (2, 2, 4, 3))

    def test_matmul_2d_bias(self):
        check_grad(lambda a, b, c: squared(ad.matmul(a, b, c)), (3, 4), (4, 5), (5,))

    def test_matmul_batched_shared_rhs_bias(self):
        check_grad(lambda a, b, c: squared(ad.matmul(a, b, c)), (2, 3, 4), (4, 5), (5,))

    def test_matmul_full_shape_bias(self):
        check_grad(lambda a, b, c: squared(ad.matmul(a, b, c)), (2, 3, 4), (4, 5), (2, 3, 5))

    def test_relu(self):
        check_grad(lambda a: ad.relu(a), (4, 5), seed=3)

    def test_softmax(self):
        check_grad(lambda a: ad.mul(ad.softmax(a), a), (3, 5))

    def test_layer_norm(self):
        check_grad(lambda a: ad.mul(ad.layer_norm(a), a), (4, 6), atol=1e-6)

    def test_softmax_scale(self):
        check_grad(lambda a: ad.mul(ad.softmax(a, 0.37), a), (2, 3, 5))

    def test_layer_norm_affine(self):
        check_grad(
            lambda a, g, b: squared(ad.layer_norm(a, g, b)), (2, 3, 6), (6,), (6,), atol=1e-6
        )

    def test_reshape_transpose(self):
        check_grad(
            lambda a: ad.transpose(ad.reshape(a, (2, 3, 2, 2)), (0, 2, 1, 3)), (2, 12)
        )

    def test_concat(self):
        check_grad(lambda a, b: ad.concat([a, b], axis=1), (2, 3), (2, 4))

    def test_select(self):
        check_grad(lambda a: ad.select(a, 1, 2), (3, 4, 2))

    def test_gather(self):
        idx = np.array([0, 2, 2, 1])
        check_grad(lambda t: ad.gather(t, idx), (4, 3))


class TestEngine:
    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        y = ad.softmax(ad.Tensor(rng.normal(size=(5, 7)) * 10)).data
        assert np.allclose(y.sum(axis=-1), 1.0, atol=1e-12)

    def test_no_grad_nodes_skip_closures(self):
        a = ad.Tensor(np.ones((2, 2)))
        b = ad.Tensor(np.ones((2, 2)))
        out = ad.matmul(a, b)
        assert not out.requires_grad and out._backward is None

    def test_grad_accumulates_over_reuse(self):
        x = ad.Tensor(np.array([[2.0]]), requires_grad=True)
        y = ad.add(x, x)
        ad.backward(ad.mean_all(y))
        assert x.grad[0, 0] == pytest.approx(2.0)

    def test_add_operands_with_further_gradient_match_finite_differences(self):
        # The add hands the same upstream array to both operands, and each
        # then collects a second contribution, which must not reach the other.
        def build(x, y):
            a, b = ad.relu(x), ad.scale(y, 1.5)
            s = ad.add(a, b)
            return ad.add(ad.mul(s, s), ad.mul(a, b))

        check_grad(build, (3, 4), (3, 4), seed=4)

    def test_add_leaf_operands_sharing_an_array_get_their_own_sums(self):
        a = ad.Tensor(np.array([[1.0, -2.0]]), requires_grad=True)
        b = ad.Tensor(np.array([[0.5, 3.0]]), requires_grad=True)
        ad.backward(ad.mean_all(ad.add(ad.add(a, b), ad.mul(a, b))))
        assert np.allclose(a.grad, (1.0 + b.data) / 2)
        assert np.allclose(b.grad, (1.0 + a.data) / 2)

    def test_fused_operands_match_the_unfused_chains(self):
        rng = np.random.default_rng(5)

        def leaves(*shapes):
            return [ad.Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]

        def run(build, tensors):
            for t in tensors:
                t.grad = None
            out = build(*tensors)
            ad.backward(ad.mean_all(squared(out)))
            return out.data, [t.grad for t in tensors]

        cases = [
            (
                lambda a, w, b: ad.matmul(a, w, b),
                lambda a, w, b: ad.add(ad.matmul(a, w), b),
                leaves((4, 5, 6), (6, 3), (3,)),
            ),
            (
                lambda a, g, b: ad.layer_norm(a, g, b),
                lambda a, g, b: ad.add(ad.mul(ad.layer_norm(a), g), b),
                leaves((4, 5, 6), (6,), (6,)),
            ),
            (
                lambda a: ad.softmax(a, 0.25),
                lambda a: ad.softmax(ad.scale(a, 0.25)),
                leaves((2, 3, 4, 4)),
            ),
        ]
        for fused, chain, tensors in cases:
            out, grads = run(fused, tensors)
            ref_out, ref_grads = run(chain, tensors)
            assert np.allclose(out, ref_out, rtol=1e-13, atol=1e-15)
            for g, ref in zip(grads, ref_grads):
                assert np.allclose(g, ref, rtol=1e-12, atol=1e-15)

    def test_transpose_hands_back_a_c_ordered_gradient(self):
        x = ad.Tensor(np.random.default_rng(6).normal(size=(2, 12)), requires_grad=True)
        r = ad.reshape(x, (2, 3, 2, 2))
        t = ad.transpose(r, (0, 2, 1, 3))
        ad.backward(ad.mean_all(squared(t)))
        assert r.grad.flags.c_contiguous

    def test_reshape_hands_back_a_view_of_the_output_gradient(self):
        x = ad.Tensor(np.random.default_rng(8).normal(size=(2, 12)), requires_grad=True)
        r = ad.reshape(x, (2, 3, 4))
        ad.backward(ad.mean_all(squared(r)))
        assert np.shares_memory(x.grad, r.grad)
        assert np.allclose(x.grad, 2 * x.data / x.data.size)

    def test_full_shape_bias_collecting_from_two_ops_matches_finite_differences(self):
        # A bias of the output's full shape gets the upstream array itself
        # back from _unbroadcast; here it also collects from a second op.
        def build(a, w, b, g):
            out = ad.matmul(a, w, b)
            return squared(ad.add(ad.layer_norm(out, g, b), out))

        check_grad(build, (3, 4), (4, 2), (3, 2), (3, 2), seed=7, atol=1e-6)

    def test_layer_norm_output_stats(self):
        rng = np.random.default_rng(2)
        y = ad.layer_norm(ad.Tensor(rng.normal(2.0, 3.0, size=(6, 32)))).data
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-4)
