"""Core Tensor behaviour: construction, backward mechanics, graph rules."""

import numpy as np
import pytest

from repro.tensor import Tensor, as_tensor, no_grad, is_grad_enabled, ops


class TestConstruction:
    def test_float_dtype_coercion(self):
        t = Tensor([1, 2, 3])
        assert np.issubdtype(t.dtype, np.floating)

    def test_preserves_float32(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float32

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert len(t) == 2

    def test_as_tensor_passthrough(self):
        t = Tensor([1.0])
        assert as_tensor(t) is t

    def test_as_tensor_wraps_scalars(self):
        t = as_tensor(3.5)
        assert t.item() == 3.5

    def test_item_requires_scalar(self):
        with pytest.raises(TypeError):
            Tensor([1.0, 2.0]).item()

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))


class TestBackwardMechanics:
    def test_scalar_backward_seeds_ones(self):
        x = Tensor([2.0, 3.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, 6.0])

    def test_nonscalar_backward_requires_grad_argument(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2).backward()

    def test_explicit_seed_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [3.0, 30.0])

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_zero_grad_resets(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_diamond_graph_accumulates_once_per_path(self):
        # y = x*x + x*x uses x via two paths; grad = 4x
        x = Tensor([3.0], requires_grad=True)
        y = x * x
        z = y + y
        z.sum().backward()
        np.testing.assert_allclose(x.grad, [12.0])

    def test_reused_node_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3
        z = (y * y).sum()  # z = 9x^2, dz/dx = 18x
        z.backward()
        np.testing.assert_allclose(x.grad, [36.0])

    def test_deep_chain_does_not_overflow(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_no_grad_without_requires_grad(self):
        x = Tensor([1.0])
        (x * 2).sum().backward()
        assert x.grad is None


class TestNoGrad:
    def test_context_disables_graph(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert y._parents == ()

    def test_flag_restored_after_context(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_flag_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_detach_cuts_graph(self):
        x = Tensor([1.0], requires_grad=True)
        y = (x * 2).detach()
        (y * 3).sum().backward()
        assert x.grad is None


class TestComparisons:
    def test_comparisons_return_numpy_bools(self):
        a = Tensor([1.0, 3.0])
        b = Tensor([2.0, 2.0])
        np.testing.assert_array_equal(a > b, [False, True])
        np.testing.assert_array_equal(a < 2.0, [True, False])
        np.testing.assert_array_equal(a >= 1.0, [True, True])
        np.testing.assert_array_equal(a <= b, [True, False])


class TestShapeHelpers:
    def test_unsqueeze_squeeze_roundtrip(self):
        x = Tensor(np.zeros((4, 5)))
        y = x.unsqueeze(1)
        assert y.shape == (4, 1, 5)
        assert y.squeeze(1).shape == (4, 5)

    def test_unsqueeze_negative_axis(self):
        assert Tensor(np.zeros(3)).unsqueeze(-1).shape == (3, 1)

    def test_squeeze_rejects_non_unit_axis(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((2, 3))).squeeze(1)

    def test_transpose_property(self):
        assert Tensor(np.zeros((2, 5))).T.shape == (5, 2)

    def test_reshape_accepts_tuple_or_args(self):
        x = Tensor(np.arange(6.0))
        assert x.reshape(2, 3).shape == (2, 3)
        assert x.reshape((3, 2)).shape == (3, 2)


class TestGetitemBackward:
    """Basic indices scatter through a view, advanced ones through
    ``np.add.at``; both must give the scatter-add's bits."""

    @pytest.mark.parametrize("index", [
        slice(None, 3), slice(2, None), slice(None, None, -2), 1, -1,
        (slice(1, 4), 2), (Ellipsis, slice(1, 3)), (None, slice(0, 2)),
        (np.int64(2),), (), np.array([0, 2, 2, 4, 0]), [1, 1, 3],
        (np.array([0, 0, 3]), slice(None)), np.array([True, False] * 2
                                                     + [True])])
    def test_gradient_bits_equal_scatter_add(self, index):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 4))
        x = Tensor(data, requires_grad=True)
        seed = rng.normal(size=np.shape(data[index]))
        seed[(0,) * seed.ndim] = -0.0  # a -0.0 must scatter as +0.0
        x[index].backward(seed)
        want = np.zeros_like(data)
        np.add.at(want, index, seed)
        assert x.grad.tobytes() == want.tobytes()

    def test_lightgcn_split_halves(self):
        """``final[:U]`` / ``final[U:]``: the two halves' gradients meet
        in one table, as in graph backbones."""
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(7, 3)), requires_grad=True)
        g_top, g_bottom = rng.normal(size=(3, 3)), rng.normal(size=(4, 3))
        ((x[:3] * g_top).sum() + (x[3:] * g_bottom).sum()).backward()
        assert x.grad.tobytes() == np.concatenate([g_top, g_bottom]).tobytes()


class TestMeanAndStackBackward:
    """``mean`` divides before it broadcasts and ``stack`` hands out
    views; both keep the bits of the copying forms they replace."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("axis", [None, 0, 1, (0, 2), -1])
    def test_mean_gradient_bits(self, dtype, axis):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(3, 5, 4)).astype(dtype)
        x = Tensor(data, requires_grad=True)
        out = x.mean(axis=axis)
        seed = rng.normal(size=out.shape).astype(dtype)
        out.backward(seed)
        g = seed if axis is None else np.expand_dims(seed, axis)
        want = np.broadcast_to(g, data.shape).copy() / (data.size // out.size)
        assert x.grad.dtype == want.dtype
        assert x.grad.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("axis", [0, 1, 2, -1])
    def test_stack_gradient_bits(self, dtype, axis):
        rng = np.random.default_rng(1)
        parts = [Tensor(rng.normal(size=(4, 3)).astype(dtype),
                        requires_grad=True) for _ in range(3)]
        out = ops.stack(parts, axis=axis)
        seed = rng.normal(size=out.shape).astype(dtype)
        out.backward(seed)
        for i, part in enumerate(parts):
            want = np.take(seed, i, axis=axis)
            assert part.grad.dtype == want.dtype
            assert part.grad.tobytes() == want.tobytes()
