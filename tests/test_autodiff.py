"""Per-op gradient checks for the tape engine against central differences."""

import weakref

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

    def test_matmul_bias_relu(self):
        check_grad(
            lambda a, b, c: squared(ad.matmul(a, b, c, relu=True)), (2, 3, 4), (4, 5), (5,), seed=3
        )

    def test_matmul_batched_both_relu(self):
        check_grad(lambda a, b: ad.matmul(a, b, relu=True), (2, 3, 4), (2, 4, 3), seed=3)

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

    def test_layer_norm_residual(self):
        check_grad(lambda a, h: ad.mul(ad.layer_norm(a, h=h), a), (2, 3, 6), (2, 3, 6), atol=1e-6)

    def test_layer_norm_residual_dropout_affine(self):
        keep = np.random.default_rng(9).random((2, 3, 6)) >= 0.4
        check_grad(
            lambda a, h, g, b: squared(ad.layer_norm(a, g, b, h=h, keep=keep, scale=1 / 0.6)),
            (2, 3, 6), (2, 3, 6), (6,), (6,), atol=1e-6,
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

    def test_softmax_without_a_scale_is_softmax_at_scale_1(self):
        """The default scale is 1.0, and a * 1.0 is a: both calls give the
        same bits, forward and backward."""
        rng = np.random.default_rng(2)
        x, upstream = rng.normal(size=(2, 4, 7)) * 5, ad.Tensor(rng.normal(size=(2, 4, 7)))
        outputs, grads = [], []
        for call in (lambda a: ad.softmax(a), lambda a: ad.softmax(a, 1.0)):
            a = ad.Tensor(x.copy(), requires_grad=True)
            y = call(a)
            ad.backward(ad.mean_all(ad.mul(y, upstream)))
            outputs.append(y.data.tobytes())
            grads.append(a.grad.tobytes())
        assert outputs[0] == outputs[1] and grads[0] == grads[1]

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

        keep, p = rng.random((4, 5, 6)) >= 0.3, 0.3
        cases = [
            (
                lambda a, w, b: ad.matmul(a, w, b),
                lambda a, w, b: ad.add(ad.matmul(a, w), b),
                leaves((4, 5, 6), (6, 3), (3,)),
            ),
            (
                lambda a, w, b: ad.matmul(a, w, b, relu=True),
                lambda a, w, b: ad.relu(ad.add(ad.matmul(a, w), b)),
                leaves((4, 5, 6), (6, 3), (3,)),
            ),
            (
                lambda a, w: ad.matmul(a, w, relu=True),
                lambda a, w: ad.relu(ad.matmul(a, w)),
                leaves((2, 5, 6), (2, 6, 3)),
            ),
            (
                # dropout as a mul by the float64 mask (u >= p) / (1 - p), a
                # residual add and a layer norm, as three nodes
                lambda a, h, g, b: ad.layer_norm(a, g, b, h=h, keep=keep, scale=1.0 / (1.0 - p)),
                lambda a, h, g, b: ad.layer_norm(
                    ad.add(a, ad.mul(h, ad.Tensor(keep / (1.0 - p)))), g, b
                ),
                leaves((4, 5, 6), (4, 5, 6), (6,), (6,)),
            ),
            (
                lambda a, h: ad.layer_norm(a, h=h),
                lambda a, h: ad.layer_norm(ad.add(a, h)),
                leaves((4, 5, 6), (4, 5, 6)),
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
            assert np.array_equal(out, ref_out)
            for g, ref in zip(grads, ref_grads):
                assert np.allclose(g, ref, rtol=1e-12, atol=1e-15)

    def test_transpose_hands_back_a_c_ordered_gradient(self):
        # The sweep drops an inner node's gradient once it has passed, so the
        # closure runs here on a known upstream array.
        x = ad.Tensor(np.random.default_rng(6).normal(size=(2, 12)), requires_grad=True)
        r = ad.reshape(x, (2, 3, 2, 2))
        t = ad.transpose(r, (0, 2, 1, 3))
        g = np.random.default_rng(7).normal(size=t.shape)
        t._backward(g)
        assert r.grad.flags.c_contiguous
        assert np.array_equal(r.grad, g.transpose(0, 2, 1, 3))

    def test_reshape_hands_back_a_view_of_the_output_gradient(self):
        x = ad.Tensor(np.random.default_rng(8).normal(size=(2, 12)), requires_grad=True)
        r = ad.reshape(x, (2, 3, 4))
        g = np.random.default_rng(9).normal(size=r.shape)
        r._backward(g)
        assert np.shares_memory(x.grad, g)
        assert np.array_equal(x.grad, g.reshape(2, 12))

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


class TestTapeLifetime:
    def test_the_sweep_frees_inner_activations_while_the_root_is_held(self):
        x = ad.Tensor(np.random.default_rng(10).normal(size=(4, 5)), requires_grad=True)
        inner = ad.relu(ad.scale(x, 2.0))
        activation = weakref.ref(inner.data)
        loss = ad.mean_all(squared(inner))
        del inner
        ad.backward(loss)
        assert activation() is None
        assert np.allclose(x.grad, 8.0 * x.data * (x.data > 0) / x.data.size)
        assert loss._backward is None and loss.grad is None  # only leaves keep .grad

    def test_a_second_sweep_is_refused(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        loss = ad.mean_all(squared(x))
        ad.backward(loss)
        grad = x.grad
        with pytest.raises(ValueError, match="no_grad or swept") as info:
            ad.backward(loss)
        assert "\n" not in str(info.value)
        assert x.grad is grad

    def test_a_root_built_without_grad_is_refused(self):
        x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
        with ad.no_grad():
            loss = ad.mean_all(squared(x))
        assert not loss.requires_grad and loss._backward is None
        with pytest.raises(ValueError, match="no_grad or swept"):
            ad.backward(loss)
        assert x.grad is None

    def test_no_grad_restores_the_flag_when_nested_and_after_an_error(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)

        def taped():
            return ad.scale(x, 2.0)._backward is not None

        with ad.no_grad():
            with ad.no_grad():
                assert not taped()
            assert not taped()  # the inner block restores the outer one's state
        assert taped()
        with pytest.raises(RuntimeError):
            with ad.no_grad():
                raise RuntimeError("inside")
        assert taped()


class TestCaptureRule:
    """A backward closure keeps only the arrays it reads, so an operand array
    that no backward reads goes with its tensor while the tape under the
    result still lives."""

    @staticmethod
    def leaf(*shape, seed=11):
        return ad.Tensor(np.random.default_rng(seed).normal(size=shape), requires_grad=True)

    @staticmethod
    def fresh(x):
        # an activation from an op that keeps only shapes
        return ad.add(x, ad.Tensor(np.zeros(x.shape)))

    @pytest.mark.parametrize(
        "case",
        [
            "softmax input",
            "layer_norm a",
            "layer_norm h",
            "transpose input",
            "matmul output",
            "relu input",
        ],
    )
    def test_an_array_no_backward_reads_goes_with_its_tensor(self, case):
        x = self.leaf(2, 3, 4, 4)
        g, b, keep = self.leaf(4, seed=12), self.leaf(4, seed=13), np.arange(96).reshape(2, 3, 4, 4) % 3 > 0
        if case == "matmul output":  # no relu, so nothing reads the product
            dropped = ad.matmul(x, self.leaf(4, 4, seed=14))
        else:
            dropped = self.fresh(x)
        other = self.fresh(self.leaf(2, 3, 4, 4, seed=15))
        build = {
            "softmax input": lambda d: ad.softmax(d, 0.5),
            "layer_norm a": lambda d: ad.layer_norm(d, g, b, h=other, keep=keep, scale=1.5),
            "layer_norm h": lambda d: ad.layer_norm(other, g, b, h=d, keep=keep, scale=1.5),
            # the transposed view holds its input until the reshape copies it
            "transpose input": lambda d: ad.reshape(ad.transpose(d, (0, 2, 1, 3)), (2, 4, 12)),
            "matmul output": lambda d: ad.add(d, ad.Tensor(np.ones(4))),
            "relu input": ad.relu,
        }[case]
        result = build(dropped)
        gone = weakref.ref(dropped.data)
        del dropped, other
        assert gone() is None
        assert result._backward is not None
        ad.backward(ad.mean_all(squared(result)))
        assert x.grad is not None and np.isfinite(x.grad).all()

    def test_a_relu_product_keeps_its_output_for_the_sign(self):
        # the control: the rule keeps what a backward reads
        x, w = self.leaf(2, 3, 4), self.leaf(4, 4, seed=14)
        out = ad.matmul(x, w, relu=True)
        kept = weakref.ref(out.data)
        result = ad.add(out, ad.Tensor(np.ones(4)))
        del out
        assert kept() is not None
        ad.backward(ad.mean_all(squared(result)))
        assert kept() is None  # the sweep frees it
        assert w.grad is not None

    def test_a_matmul_keeps_an_operand_only_for_the_other_ones_gradient(self):
        x = self.leaf(2, 3, 4)
        a = self.fresh(x)
        gone = weakref.ref(a.data)
        result = ad.matmul(a, ad.Tensor(np.ones((4, 4))))  # the weight needs no gradient
        del a
        assert gone() is None
        ad.backward(ad.mean_all(squared(result)))
        assert np.allclose(x.grad, 2.0 * result.data @ np.ones((4, 4)) / result.data.size, rtol=1e-12)

    def test_tensors_off_the_tape_share_one_slot_that_no_sweep_writes(self):
        x, c = self.leaf(3, 4), ad.Tensor(np.ones((4, 2)))
        assert c.slot is ad.OFF_TAPE and ad.matmul(ad.Tensor(np.ones((2, 4))), c).slot is ad.OFF_TAPE
        ad.backward(ad.mean_all(squared(ad.layer_norm(ad.matmul(x, c), h=ad.Tensor(np.ones((3, 2)))))))
        off = ad.OFF_TAPE
        assert (off.grad, off.requires_grad, off._parents, off._backward) == (None, False, (), None)
        c.grad = np.zeros((4, 2))  # setting an attribute gives the tensor a slot of its own
        assert c.slot is not ad.OFF_TAPE and off.grad is None and not c.requires_grad
