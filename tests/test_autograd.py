import gc
import inspect
import weakref

import numpy as np
import pytest

import melformer.autograd as ag
from melformer.autograd import Segments, Tensor
from melformer import nn
from melformer.errors import ContractError, NumericError, ShapeError, ValidationError
from melformer.model import MultiHeadAttention
from melformer.verify import op_checks

from helpers import mask_tensor_dropout, zero_fill_backward


# --- oracles -----------------------------------------------------------------

def matmul_oracle(a, b):
    """Naive triple loop, independent of numpy's matmul."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for p in range(k):
                out[i, j] += a[i, p] * b[p, j]
    return out


def softmax_oracle(row):
    e = np.exp(np.asarray(row, dtype=np.float64))
    return e / e.sum()


def times(t, c):
    """``t`` times the number ``c``, as a ``mul`` by a same-shape constant."""
    return ag.mul(t, Tensor(np.full(t.shape, c, dtype=t.data.dtype)))


def conv_same_oracle(x, k):
    """Direct sliding window over (w-1)//2 leading and w//2 trailing zeros,
    single channel in/out, cross-correlation."""
    w = len(k)
    xp = np.concatenate([np.zeros((w - 1) // 2), x, np.zeros(w // 2)])
    return np.array([sum(xp[t + i] * k[i] for i in range(w)) for t in range(len(x))])


# --- matmul ------------------------------------------------------------------

def test_matmul_identity():
    a = np.arange(12.0).reshape(3, 4)
    out = ag.matmul(Tensor(a), Tensor(np.eye(4)))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_annihilator():
    a = np.arange(6.0).reshape(2, 3)
    out = ag.matmul(Tensor(a), Tensor(np.zeros((3, 2))))
    np.testing.assert_array_equal(out.data, np.zeros((2, 2)))


def test_matmul_small_case_against_oracle():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    expected = matmul_oracle(a, b)
    np.testing.assert_array_equal(expected, [[19.0, 22.0], [43.0, 50.0]])
    np.testing.assert_allclose(ag.matmul(Tensor(a), Tensor(b)).data, expected)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


# --- softmax -----------------------------------------------------------------

def test_softmax_symmetry():
    out = ag.softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.normal(size=7)
        c = rng.normal()
        np.testing.assert_allclose(
            ag.softmax(Tensor(x)).data, ag.softmax(Tensor(x + c)).data, atol=1e-12
        )


def test_softmax_small_case_against_oracle():
    expected = softmax_oracle([1.0, 2.0, 3.0])
    np.testing.assert_allclose(expected, [0.0900, 0.2447, 0.6652], atol=1e-4)
    np.testing.assert_allclose(ag.softmax(Tensor([1.0, 2.0, 3.0])).data, expected, atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    x = rng.normal(scale=10.0, size=(6, 9))
    out = ag.softmax(Tensor(x))
    assert (out.data >= 0.0).all()
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(6), atol=1e-6)


def test_softmax_rejects_nan():
    with pytest.raises(NumericError):
        ag.softmax(Tensor([np.nan, 0.0]))


@pytest.mark.parametrize("row, col", [(0, 0), (2, 3), (1, 1)])
def test_a_nan_score_raises_from_softmax_and_attention_weights(row, col):
    """The NaN check reads each row's max, which is NaN exactly when the
    row holds one; a masked key's NaN score is caught too."""
    x = np.random.default_rng(0).standard_normal((3, 4))
    x[row, col] = np.nan
    with pytest.raises(NumericError):
        ag.softmax(Tensor(x))
    q = np.random.default_rng(1).standard_normal((3, 4))
    k = np.random.default_rng(2).standard_normal((4, 4))
    k[col, row] = np.nan  # NaN scores for key col in one head (key 3 is masked)
    with pytest.raises(NumericError):  # the values, then the keys
        ag.attention(Tensor(q), Tensor(np.hstack([k, k])), 2, Segments([3]),
                     Segments([4], valid=[3]))


# --- layer_norm ----------------------------------------------------------------

def test_layer_norm_constant_row_is_zero():
    out = ag.layer_norm(Tensor([[3.0, 3.0, 3.0]]), Tensor(np.ones(3)), Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-9)


def test_layer_norm_output_mean_equals_bias_mean():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 8))
    bias = rng.normal(size=8)
    out = ag.layer_norm(Tensor(x), Tensor(np.ones(8)), Tensor(bias))
    np.testing.assert_allclose(out.data.mean(axis=-1), np.full(4, bias.mean()), atol=1e-8)


def test_layer_norm_small_case_against_oracle():
    x = np.array([1.0, 2.0, 3.0])
    mu, var = x.mean(), x.var()
    expected = (x - mu) / np.sqrt(var + 1e-5)
    np.testing.assert_allclose(expected, [-1.2247, 0.0, 1.2247], atol=1e-3)
    out = ag.layer_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=1e-5)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_layer_norm_rows_standardized():
    rng = np.random.default_rng(3)
    x = rng.normal(scale=5.0, size=(10, 16))
    out = ag.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    assert np.abs(out.mean(axis=-1)).max() < 1e-6
    assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-3


def test_layer_norm_residual_shape_mismatch_rejected():
    x, one = Tensor(np.zeros((2, 3))), Tensor(np.ones(3))
    with pytest.raises(ShapeError):
        ag.layer_norm(x, one, one, residual=Tensor(np.zeros((3, 3))))


def test_matmul_bias_shape_mismatch_rejected():
    """A bias covers 1 to all of the output columns, from the first one."""
    x, w = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))
    for bias in (np.zeros(5), np.zeros(0), np.zeros((1, 4))):
        with pytest.raises(ShapeError):
            ag.matmul(x, w, bias=Tensor(bias))


# --- a fused node equals its separate arithmetic, bit for bit ----------------------

def _probe(shape, dtype):
    """The weights ``_outputs_and_grads`` sums an output of ``shape`` with:
    the gradient that reaches the op."""
    return np.random.default_rng(9).standard_normal(shape).astype(dtype)


def _outputs_and_grads(loss_of, arrays):
    """``loss_of``'s output and the gradient of a probed sum of it with
    respect to each array, all as numpy arrays."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = loss_of(*leaves)
    probe = Tensor(_probe(out.shape, out.data.dtype))
    ag.backward(ag.tsum(ag.mul(out, probe)))
    return [out.data] + [t.grad for t in leaves]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_matmul_bias_matches_matmul_then_add_bit_for_bit(dtype):
    rng = np.random.default_rng(10)
    x, w, b = arrays = [rng.standard_normal(shape).astype(dtype) for shape in ((5, 4), (4, 3), (3,))]
    fused = _outputs_and_grads(lambda x, w, b: ag.matmul(x, w, bias=b), arrays)
    g = _probe((5, 3), dtype)
    separate = [x @ w + b, g @ w.T, x.T @ g, g.sum(axis=0)]
    # a bias over the leading two columns: the third is x @ w alone
    lead = _outputs_and_grads(lambda x, w, b: ag.matmul(x, w, bias=b), [x, w, b[:2]])
    out = x @ w
    out[:, :2] += b[:2]
    for a, b in zip(fused + lead, separate + [out, g @ w.T, x.T @ g, g[:, :2].sum(axis=0)]):
        assert a.dtype == dtype and np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_residual_matches_add_then_layer_norm_bit_for_bit(dtype):
    rng = np.random.default_rng(11)
    arrays = [rng.standard_normal(shape).astype(dtype) for shape in ((5, 6), (6,), (6,), (5, 6))]
    fused = _outputs_and_grads(lambda x, g, b, r: ag.layer_norm(x, g, b, residual=r), arrays)
    separate = _outputs_and_grads(lambda x, g, b, r: ag.layer_norm(ag.add(x, r), g, b), arrays)
    for a, b in zip(fused, separate):
        assert a.dtype == dtype and np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_highway_matches_its_elementwise_graph_bit_for_bit(dtype):
    """One node against sigmoid, neg, add of ones, two muls and an add;
    -t + 1 equals 1 - t exactly."""
    rng = np.random.default_rng(13)
    arrays = [rng.standard_normal((5, 6)).astype(dtype) for _ in range(3)]
    arrays[1] *= 4.0  # gates well shut and well open among them

    def elementwise(h, z, u):
        t = ag.sigmoid(z)
        keep = ag.add(ag.neg(t), Tensor(np.ones(t.shape, dtype=dtype)))
        return ag.add(ag.mul(h, t), ag.mul(u, keep))

    fused = _outputs_and_grads(ag.highway, arrays)
    separate = _outputs_and_grads(elementwise, arrays)
    for a, b in zip(fused, separate):
        assert a.dtype == dtype and np.array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv1d_bias_matches_its_numpy_arithmetic_bit_for_bit(dtype):
    rng = np.random.default_rng(14)
    arrays = [rng.standard_normal(shape).astype(dtype) for shape in ((7, 3), (3, 3, 4), (4,))]
    segs = Segments([3, 4])
    fused = _outputs_and_grads(lambda x, k, b: ag.conv1d(x, k, segs, bias=b), arrays)
    no_bias = _outputs_and_grads(lambda x, k: ag.conv1d(x, k, segs), arrays[:2])
    g = _probe((7, 4), dtype)
    separate = [no_bias[0] + arrays[2], *no_bias[1:], g.sum(axis=0)]
    assert len(fused) == len(separate)
    for a, b in zip(fused, separate):
        assert a.dtype == dtype and np.array_equal(a, b)


def test_highway_and_conv1d_bias_shape_mismatches_rejected():
    x = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        ag.highway(x, x, Tensor(np.zeros((2, 4))))
    with pytest.raises(ShapeError):
        ag.highway(x, Tensor(np.zeros(3)), x)
    with pytest.raises(ShapeError):
        ag.conv1d(x, Tensor(np.zeros((2, 3, 4))), Segments([2]), bias=Tensor(np.zeros(3)))


def test_elementwise_ops_refuse_operands_of_different_shapes():
    x = Tensor(np.zeros((2, 3)))
    for other in (Tensor(np.zeros(3)), Tensor(np.zeros(())), Tensor(np.zeros((1, 3)))):
        with pytest.raises(ShapeError):
            ag.add(x, other)
        with pytest.raises(ShapeError):
            ag.mul(other, x)


def test_layer_norm_leaves_its_operands_alone():
    rng = np.random.default_rng(12)
    x, r = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    xs, rs = Tensor(x.copy()), Tensor(r.copy())
    ag.layer_norm(xs, Tensor(np.ones(4)), Tensor(np.zeros(4)))
    ag.layer_norm(xs, Tensor(np.ones(4)), Tensor(np.zeros(4)), residual=rs)
    assert np.array_equal(xs.data, x) and np.array_equal(rs.data, r)


# --- conv1d --------------------------------------------------------------------

def test_conv1d_ones_kernel_is_moving_sum():
    x = np.arange(1.0, 7.0).reshape(6, 1)
    k = np.ones((3, 1, 1))
    expected = conv_same_oracle(x[:, 0], k[:, 0, 0])
    np.testing.assert_array_equal(expected, [3.0, 6.0, 9.0, 12.0, 15.0, 11.0])
    out = ag.conv1d(Tensor(x), Tensor(k), Segments([6]))
    np.testing.assert_allclose(out.data[:, 0], expected)


def test_conv1d_width_one_is_per_step_linear_map():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 3))
    w = rng.normal(size=(1, 3, 2))
    out = ag.conv1d(Tensor(x), Tensor(w), Segments([5]))
    np.testing.assert_allclose(out.data, x @ w[0], atol=1e-12)
    per_channel = [sum(conv_same_oracle(x[:, i], w[:, i, o]) for i in range(3)) for o in range(2)]
    np.testing.assert_allclose(out.data, np.stack(per_channel, axis=1), atol=1e-12)


def test_conv1d_small_case_against_oracle():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    k = np.array([1.0, -1.0])
    expected = conv_same_oracle(x, k)
    np.testing.assert_array_equal(expected, [-1.0, -1.0, -1.0, 4.0])
    out = ag.conv1d(Tensor(x.reshape(4, 1)), Tensor(k.reshape(2, 1, 1)), Segments([4]))
    np.testing.assert_allclose(out.data[:, 0], expected)


def test_conv1d_same_padding_keeps_length():
    rng = np.random.default_rng(5)
    for w in (2, 3, 4, 5):
        x = rng.normal(size=(7, 2))
        k = rng.normal(size=(w, 2, 3))
        assert ag.conv1d(Tensor(x), Tensor(k), Segments([7])).shape == (7, 3)


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_conv1d_segments_match_one_call_per_segment(width):
    """No window crosses a segment boundary, in either direction."""
    rng = np.random.default_rng(6)
    lengths = [1, 4, 2, 6]
    x = Tensor(rng.normal(size=(sum(lengths), 3)), requires_grad=True)
    k = Tensor(rng.normal(size=(width, 3, 2)), requires_grad=True)
    probe = rng.normal(size=(sum(lengths), 2))
    out = ag.conv1d(x, k, Segments(lengths))
    ag.backward(ag.tsum(ag.mul(out, Tensor(probe))))
    starts = np.cumsum([0] + lengths)
    x_grad, k_grad = np.zeros_like(x.data), np.zeros_like(k.data)
    for a, b in zip(starts[:-1], starts[1:]):
        xs = Tensor(x.data[a:b], requires_grad=True)
        ks = Tensor(k.data, requires_grad=True)
        ref = ag.conv1d(xs, ks, Segments([b - a]))
        np.testing.assert_allclose(out.data[a:b], ref.data, rtol=0, atol=1e-12)
        ag.backward(ag.tsum(ag.mul(ref, Tensor(probe[a:b]))))
        x_grad[a:b], k_grad = xs.grad, k_grad + ks.grad
    np.testing.assert_allclose(x.grad, x_grad, rtol=0, atol=1e-12)
    np.testing.assert_allclose(k.grad, k_grad, rtol=0, atol=1e-12)


# --- zero_rows -------------------------------------------------------------------

def test_zero_rows_zeroes_padding_and_passes_unpadded_input_through():
    x = Tensor(np.arange(1.0, 7.0).reshape(3, 2), requires_grad=True)
    out = ag.zero_rows(x, Segments([3], valid=[2]))
    np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0], [0.0, 0.0]])
    ag.backward(ag.tsum(out))
    np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
    assert ag.zero_rows(x, Segments([3])) is x and ag.zero_rows(x, Segments([1, 2])) is x
    with pytest.raises(ShapeError):
        ag.zero_rows(x, Segments([3], valid=[4]))


def test_zero_rows_zeroes_each_segments_own_padding():
    x = Tensor(np.arange(1.0, 6.0).reshape(5, 1))
    out = ag.zero_rows(x, Segments([2, 3], valid=[1, 2]))
    np.testing.assert_array_equal(out.data[:, 0], [1.0, 0.0, 3.0, 4.0, 0.0])


# --- max_pool_time ---------------------------------------------------------------

def test_max_pool_small_case():
    out = ag.max_pool_time(Tensor([[1.0, 3.0], [2.0, 0.0]]), Segments([2]))
    np.testing.assert_array_equal(out.data, [[2.0, 3.0]])


def test_max_pool_single_row_identity():
    out = ag.max_pool_time(Tensor([[4.0, -1.0, 0.5]]), Segments([1]))
    np.testing.assert_array_equal(out.data, [[4.0, -1.0, 0.5]])


def test_max_pool_gradient_goes_to_argmax():
    x = Tensor([[1.0, 5.0], [7.0, 2.0], [3.0, 4.0]], requires_grad=True)
    ag.backward(ag.tsum(ag.max_pool_time(x, Segments([3]))))
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0], [0.0, 0.0]])


def test_max_pool_tie_goes_to_first_occurrence():
    # the second segment's tie resolves inside it, not to the first row overall
    x = Tensor([[2.0], [2.0], [2.0], [2.0]], requires_grad=True)
    ag.backward(ag.tsum(ag.max_pool_time(x, Segments([1, 3]))))
    np.testing.assert_array_equal(x.grad, [[1.0], [1.0], [0.0], [0.0]])


def test_max_pool_empty_axis_rejected():
    with pytest.raises(ShapeError):
        ag.max_pool_time(Tensor(np.zeros((0, 3))), Segments([1]))


def test_max_pool_pools_each_segment_on_its_own():
    x = Tensor([[1.0], [9.0], [3.0], [5.0], [6.0], [7.0]], requires_grad=True)
    out = ag.max_pool_time(x, Segments([2, 1, 3]))
    np.testing.assert_array_equal(out.data, [[9.0], [3.0], [7.0]])
    ag.backward(ag.tsum(out))
    np.testing.assert_array_equal(x.grad[:, 0], [0, 1, 1, 0, 0, 1])


def test_max_pool_refuses_padding_rows_and_a_mismatched_layout():
    x = Tensor(np.zeros((3, 1)))
    with pytest.raises(ShapeError, match="padding"):
        ag.max_pool_time(x, Segments([3], valid=[2]))
    with pytest.raises(ShapeError):
        ag.max_pool_time(x, Segments([1, 1]))
    with pytest.raises(ShapeError):
        ag.max_pool_time(Tensor(np.zeros((1, 3, 1))), Segments([3]))


# --- attention -------------------------------------------------------------------

def test_attention_ops_reject_mismatched_shapes():
    q, kv = Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 8)))
    x8, x12, flat12 = Tensor(np.zeros((3, 8))), Tensor(np.zeros((3, 12))), Tensor(np.zeros(12))
    segs = (Segments([3]), Segments([5]))
    kv12 = Tensor(np.zeros((5, 12)))
    # kv is 2D wide beside a separate q (an equal-width copy is not the same
    # input) and 3D wide when shared as both
    for args in [(q, Tensor(np.zeros((5, 6))), 2), (q, Tensor(np.zeros((5, 4))), 2),
                 (q, kv12, 2), (Tensor(np.zeros((3, 12))), kv12, 2),
                 (q, kv, 3), (q, kv, 0), (Tensor(np.zeros(4)), kv, 2),
                 (q, Tensor(np.zeros(40)), 2), (x8, x8, 2),
                 (x12, x12, 3), (flat12, flat12, 2)]:
        with pytest.raises(ShapeError):
            ag.attention(*args, *segs)
    with pytest.raises(ShapeError):
        ag.attention(q, kv, 2, Segments([3]), Segments([5], valid=[6]))
    with pytest.raises(ShapeError):  # segments that do not cover the rows
        ag.attention(q, kv, 2, Segments([1, 1]), Segments([2, 3]))
    with pytest.raises(ShapeError):  # as many query as key segments
        ag.attention(q, kv, 2, Segments([1, 2]), Segments([5]))
    with pytest.raises(ShapeError):  # a fused input's keys are its own rows
        ag.attention(x12, x12, 2, Segments([3]), Segments([5]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_input_passed_twice_matches_its_copied_column_blocks(dtype):
    """Self-attention's [T, 3D] q | v | k tensor passed as both inputs gives
    the output and gradient blocks, bit for bit, of its leading D and
    trailing 2D columns copied into two tensors; padded keys, dropout on."""
    rng = np.random.default_rng(30)
    data = rng.standard_normal((7, 12)).astype(dtype)
    probe = Tensor(rng.standard_normal((7, 4)).astype(dtype))
    segs = Segments([3, 4], valid=[2, 3])
    x = Tensor(data.copy(), requires_grad=True)
    q = Tensor(data[:, :4].copy(), requires_grad=True)
    kv = Tensor(data[:, 4:].copy(), requires_grad=True)
    outs = []
    for inputs in ((x, x), (q, kv)):
        out = ag.attention(*inputs, 2, segs, segs, 0.4, np.random.default_rng(31))
        outs.append(out.data.copy())
        ag.backward(ag.tsum(ag.mul(out, probe)))
    assert outs[0].dtype == dtype and outs[0].tobytes() == outs[1].tobytes()
    assert x.grad.dtype == dtype and x.grad.shape == (7, 12)
    assert x.grad[:, :4].tobytes() == q.grad.tobytes()
    assert x.grad[:, 4:].tobytes() == kv.grad.tobytes()


# --- pointwise -------------------------------------------------------------------

def test_relu_values():
    out = ag.relu(Tensor([-1.0, 2.0]))
    np.testing.assert_array_equal(out.data, [0.0, 2.0])


def test_sigmoid_at_zero():
    assert ag.sigmoid(Tensor([0.0])).data[0] == 0.5


def test_sigmoid_small_case_against_oracle():
    expected = 1.0 / (1.0 + np.exp(-2.0))
    assert abs(expected - 0.8808) < 1e-4
    assert abs(ag.sigmoid(Tensor([2.0])).data[0] - expected) < 1e-12


def test_sigmoid_extreme_inputs_saturate_cleanly():
    out = ag.sigmoid(Tensor([-1000.0, 1000.0]))
    np.testing.assert_array_equal(out.data, [0.0, 1.0])


# --- cross_entropy ----------------------------------------------------------------

def test_cross_entropy_uniform_logits():
    loss = ag.cross_entropy(Tensor(np.zeros((1, 4))), [2])
    assert abs(loss.item() - np.log(4.0)) < 1e-12


def test_cross_entropy_confident_logit_drives_loss_to_zero():
    loss = ag.cross_entropy(Tensor([[50.0, 0.0, 0.0]]), [0])
    assert loss.item() < 1e-12


def test_cross_entropy_small_case_against_oracle():
    p = softmax_oracle([2.0, 0.0, 0.0, 0.0])
    expected = -np.log(p[0])
    loss = ag.cross_entropy(Tensor([[2.0, 0.0, 0.0, 0.0]]), [0])
    assert abs(loss.item() - expected) < 1e-12
    assert abs(expected - 0.3407) < 1e-3


def test_cross_entropy_mean_reduction_over_batch():
    logits = np.array([[2.0, 0.0], [0.0, 1.0]])
    per_sample = [-np.log(softmax_oracle(row)[lab]) for row, lab in zip(logits, [0, 1])]
    loss = ag.cross_entropy(Tensor(logits), [0, 1])
    assert abs(loss.item() - np.mean(per_sample)) < 1e-12


def test_cross_entropy_rejects_out_of_range_label():
    with pytest.raises(ValidationError):
        ag.cross_entropy(Tensor(np.zeros((1, 4))), [4])


def test_cross_entropy_rejects_single_class():
    with pytest.raises(ValidationError):
        ag.cross_entropy(Tensor(np.zeros((1, 1))), [0])


# --- backward contract --------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ag.backward(ag.tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_gives_two_x():
    x = Tensor([3.0], requires_grad=True)
    ag.backward(ag.tsum(ag.mul(x, x)))
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_rejects_non_scalar():
    x = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        ag.backward(ag.mul(x, x))


def test_backward_fan_out_accumulates_both_paths():
    x = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
    y = ag.add(ag.tsum(ag.sigmoid(x)), ag.tsum(ag.mul(x, x)))
    ag.backward(y)
    s = 1.0 / (1.0 + np.exp(-x.data))
    np.testing.assert_allclose(x.grad, s * (1 - s) + 2 * x.data, atol=1e-12)


def test_fan_out_gradcheck():
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    def f(x, w):
        h = ag.matmul(x, w)
        return ag.add(ag.tsum(ag.mul(h, h)), ag.tsum(ag.sigmoid(h)))

    assert ag.gradcheck(f, [x, w]) < 1e-6


def test_gradcheck_linear_map_is_nearly_exact():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(4,)), requires_grad=True)
    c = Tensor(rng.normal(size=(4,)))
    assert ag.gradcheck(lambda t: ag.tsum(ag.mul(t, c)), x) < 1e-9


def test_gradcheck_softmax_cross_entropy_composite():
    rng = np.random.default_rng(8)
    logits = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    labels = [0, 3, 1]
    assert ag.gradcheck(lambda l: ag.cross_entropy(l, labels), logits) < 1e-6


def test_gradcheck_allows_a_near_zero_gradient_the_rounding_of_the_loss():
    """Near a loss of 1.36, one unit in the last place over 2 * eps is 1.1e-11:
    the central difference of this exact linear map misses its gradients of
    -5.6e-9 and 2.3e-8 by that much (relative 7e-4 and 3e-4), which is
    rounding, not a wrong rule.  A 0.1% error in a gradient of 1e-7 still
    shows."""
    c = Tensor(np.array([1.1e-7, 2.3e-8, -5.6e-9, 3.0e-1]))
    one = Tensor(np.array(1.36))
    x = Tensor(np.array([0.3, -0.7, 1.1, 0.5]), requires_grad=True)
    assert ag.gradcheck(lambda t: ag.add(ag.tsum(ag.mul(t, c)), one), x) == 0.0

    def off(t):  # the value moves 0.1% more than the backward rule says
        out = ag.add(ag.tsum(ag.mul(t, c)), one)
        out.data = out.data + 1e-3 * float(c.data @ t.data)
        return out

    assert 5e-4 < ag.gradcheck(off, x) < 2e-3


def test_gradcheck_perturbs_every_coordinate_of_every_tensor():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(5,)), requires_grad=True)
    seen = []

    def f(x, y):
        seen.append((x.data.copy(), y.data.copy()))
        return ag.add(ag.tsum(ag.mul(x, x)), ag.tsum(y))

    assert ag.gradcheck(f, [x, y]) < 1e-8
    assert len(seen) == 1 + 2 * (x.data.size + y.data.size)
    moved = {(k, i) for xs in seen[1:] for k, (a, b) in enumerate(zip(xs, (x.data, y.data)))
             for i in np.flatnonzero(a != b)}
    assert moved == {(0, i) for i in range(12)} | {(1, i) for i in range(5)}


# --- property suite: every differentiable op passes gradcheck ------------------------

def _away_from_kinks(rng, shape):
    # keep |x| in (0.2, 1.2) so relu/max kinks sit outside the FD stencil
    return (rng.random(shape) + 0.2) * np.where(rng.random(shape) < 0.5, -1.0, 1.0)


@pytest.mark.parametrize("seed", range(20))
def test_all_ops_gradcheck(seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(2, 6))
    d = int(rng.integers(2, 6))
    checks = []

    a = Tensor(rng.normal(size=(t, d)), requires_grad=True)
    b = Tensor(rng.normal(size=(t, d)), requires_grad=True)
    checks.append((lambda a, b: ag.tsum(ag.add(a, b)), [a, b]))

    checks.append((lambda a, b: ag.tsum(ag.mul(a, b)), [a, b]))
    checks.append((lambda a: ag.tsum(ag.neg(a)), [a]))

    m = Tensor(rng.normal(size=(t, 3)), requires_grad=True)
    n = Tensor(rng.normal(size=(3, d)), requires_grad=True)
    checks.append((lambda m, n: ag.tsum(ag.matmul(m, n)), [m, n]))
    checks.append((lambda m: ag.tsum(ag.transpose(m)), [m]))
    checks.append((lambda a: ag.tsum(ag.reshape(a, (d, t))), [a]))
    checks.append((lambda a: ag.tsum(ag.getitem(a, (slice(1, None), slice(None, d - 1)))), [a]))
    checks.append((lambda a, b: ag.tsum(ag.concat([a, b], axis=0)), [a, b]))

    vs = [Tensor(rng.normal(size=(d,)), requires_grad=True) for _ in range(3)]
    checks.append((lambda *vs: ag.tsum(ag.stack_rows(vs)), vs))

    kinkless = Tensor(_away_from_kinks(rng, (t, d)), requires_grad=True)
    checks.append((lambda x: ag.tsum(ag.relu(x)), [kinkless]))
    checks.append((lambda x: ag.tsum(ag.sigmoid(x)), [a]))

    probe = Tensor(rng.normal(size=(t, d)))
    checks.append((lambda x: ag.tsum(ag.mul(ag.softmax(x), probe)), [a]))

    gain = Tensor(rng.normal(size=(d,)) + 1.0, requires_grad=True)
    lbias = Tensor(rng.normal(size=(d,)), requires_grad=True)
    checks.append(
        (lambda x, g, bb: ag.tsum(ag.mul(ag.layer_norm(x, g, bb), probe)), [a, gain, lbias])
    )

    k = Tensor(rng.normal(size=(2, d, 3)), requires_grad=True)
    checks.append((lambda x, k: ag.tsum(ag.conv1d(x, k, Segments([t]))), [a, k]))

    checks.append((lambda x: ag.tsum(ag.max_pool_time(x, Segments([t]))), [kinkless]))
    checks.append((lambda x: ag.tsum(ag.max_pool_time(x, Segments([1, t - 1]))), [kinkless]))

    labels = rng.integers(0, d, size=t)
    checks.append((lambda l: ag.cross_entropy(l, labels), [a]))

    table = Tensor(rng.normal(size=(5, d)), requires_grad=True)
    ids = rng.integers(0, 5, size=t)
    checks.append((lambda tab: ag.tsum(ag.embedding_rows(tab, ids)), [table]))
    checks.append((lambda x: ag.tsum(ag.zero_rows(x, Segments([1, t - 1], valid=[0, t - 2]))), [a]))

    # two heads over t queries and t + 1 value | key rows, the last key masked
    q = Tensor(rng.normal(size=(t, 2 * d)), requires_grad=True)
    kv = Tensor(rng.normal(size=(t + 1, 4 * d)), requires_grad=True)
    out_probe = Tensor(rng.normal(size=(t, 2 * d)))
    masked = Segments([t + 1], valid=[t])
    whole = Segments([t])
    checks.append((lambda q, kv: ag.tsum(ag.mul(ag.attention(q, kv, 2, whole, masked),
                                                out_probe)), [q, kv]))
    # the same over two segments: queries 1 and t - 1 rows, keys 2 and t - 1
    q_segs, k_segs = Segments([1, t - 1]), Segments([2, t - 1], valid=[1, t - 1])
    checks.append((lambda q, kv: ag.tsum(ag.mul(ag.attention(q, kv, 2, q_segs, k_segs),
                                                out_probe)), [q, kv]))
    # self-attention on one fused q | v | k input, with dropout: a freshly
    # seeded generator draws the same mask every call
    qvk = Tensor(rng.normal(size=(t, 6 * d)), requires_grad=True)
    segs = Segments([1, t - 1], valid=[1, t - 2])
    checks.append((lambda x: ag.tsum(ag.mul(ag.attention(
        x, x, 2, segs, segs, 0.5, np.random.default_rng(3)), out_probe)), [qvk]))
    checks.append((lambda x, k: ag.tsum(ag.conv1d(x, k, Segments([1, t - 1]))), [a, k]))
    cbias, conv_probe = Tensor(rng.normal(size=(3,)), requires_grad=True), Tensor(rng.normal(size=(t, 3)))
    checks.append((lambda x, k, cb: ag.tsum(ag.mul(ag.conv1d(x, k, Segments([1, t - 1]), bias=cb),
                                                   conv_probe)), [a, k, cbias]))
    checks.append((lambda h, z, u: ag.tsum(ag.mul(ag.highway(h, z, u), probe)), [a, b, kinkless]))

    for f, xs in checks:
        assert ag.gradcheck(f, xs, eps=1e-5) < 1e-4


def test_embedding_frozen_row_gets_no_gradient():
    table = Tensor(np.ones((4, 3)), requires_grad=True)
    out = ag.embedding_rows(table, [0, 0, 2], frozen_row=0)
    ag.backward(ag.tsum(out))
    np.testing.assert_array_equal(table.grad[0], np.zeros(3))
    np.testing.assert_array_equal(table.grad[2], np.ones(3))


def test_embedding_frozen_row_reads_as_zero():
    table = Tensor(np.ones((4, 3)), requires_grad=True)
    out = ag.embedding_rows(table, [[0, 2], [1, 0]], frozen_row=0)
    np.testing.assert_array_equal(out.data[:, :, 0], [[0.0, 1.0], [1.0, 0.0]])


def test_no_grad_suppresses_lineage():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with ag.no_grad():
        y = ag.tsum(ag.mul(x, x))
    assert y._prev == () and not y.requires_grad


def test_backward_visits_shared_subgraph_once():
    # a diamond: if the shared node were visited twice its gradient would double
    x = Tensor([2.0], requires_grad=True)
    shared = ag.mul(x, x)
    y = ag.tsum(ag.add(shared, shared))
    ag.backward(y)
    np.testing.assert_allclose(x.grad, [8.0])


# --- graph release ---------------------------------------------------------------

def test_backward_frees_the_graph_without_the_cyclic_collector():
    w = Tensor(np.array([0.5, -1.0]), requires_grad=True)
    gc.disable()
    try:
        hidden = ag.sigmoid(ag.mul(w, w))
        probe = weakref.ref(hidden)
        loss = ag.tsum(hidden)
        del hidden
        ag.backward(loss)
        del loss
        assert probe() is None
    finally:
        gc.enable()


def test_backward_on_a_consumed_graph_raises():
    w = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    hidden = ag.mul(w, w)
    loss = ag.tsum(hidden)
    ag.backward(loss)
    np.testing.assert_array_equal(w.grad, [2.0, 4.0])
    with pytest.raises(ContractError):
        ag.backward(loss)
    with pytest.raises(ContractError):  # a new graph over a consumed node
        ag.backward(ag.tsum(times(hidden, 3.0)))
    np.testing.assert_array_equal(w.grad, [2.0, 4.0])


def test_parameters_stay_leaves_across_steps():
    w = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    ag.backward(ag.tsum(ag.mul(w, w)))
    np.testing.assert_array_equal(w.grad, [2.0, -4.0])
    assert w._backward is None and w._prev == ()
    ag.backward(ag.tsum(times(w, 3.0)))
    np.testing.assert_array_equal(w.grad, [3.0, 3.0])


# --- lazy gradients and the streaming walk ----------------------------------------

def _every_op_graph(rng):
    """A loss touching every op, with fan-out and constants."""
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    w = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
    b = Tensor(rng.standard_normal(6), requires_grad=True)
    s = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    gain = Tensor(1.0 + 0.1 * rng.standard_normal(6), requires_grad=True)
    table = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    kern = Tensor(rng.standard_normal((2, 3, 6)), requires_grad=True)
    const = Tensor(rng.standard_normal((4, 6)))
    h = ag.add(ag.mul(ag.relu(ag.matmul(x, w, bias=b)), s), x)   # bias, product, residual
    h = ag.layer_norm(ag.add(h, ag.neg(const)), gain, b, residual=x)
    segs = Segments([1, 3], valid=[1, 2])
    qvk = ag.concat([h, times(h, 0.5), h], axis=1)
    h = ag.add(ag.add(ag.attention(qvk, qvk, 2, segs, segs, 0.4, np.random.default_rng(2)),
                      ag.softmax(h)), ag.transpose(ag.transpose(h)))
    h = ag.conv1d(h, Tensor(rng.standard_normal((3, 6, 6))), segs, bias=b)
    h = ag.highway(ag.sigmoid(h), h, x)
    h = ag.dropout(ag.zero_rows(h, segs), 0.3, np.random.default_rng(1))
    words = Segments([2, 1, 3])  # the middle word is the frozen pad id alone
    emb = ag.embedding_rows(table, [1, 2, 0, 3, 4, 4], frozen_row=0)
    pooled = ag.max_pool_time(ag.conv1d(emb, kern, words), words)
    rows = ag.stack_rows([ag.getitem(h, 0), ag.add(ag.getitem(h, 1), ag.getitem(pooled, 0)),
                          ag.getitem(ag.reshape(ag.getitem(h, slice(2, None)), (12,)), slice(6))])
    mixed = ag.concat([rows, times(rows, 2.0)], axis=1)
    loss = ag.add(ag.cross_entropy(mixed, [0, 3, 11]), times(ag.tsum(ag.neg(ag.mul(h, h))), 1e-2))
    return loss, dict(x=x, w=w, b=b, s=s, gain=gain, table=table, kern=kern), const


def test_leaf_grads_match_the_zero_filling_backward_bit_for_bit():
    loss, leaves, _ = _every_op_graph(np.random.default_rng(3))
    ag.backward(loss)
    ref_loss, ref_leaves, _ = _every_op_graph(np.random.default_rng(3))
    zero_fill_backward(ref_loss)
    for name, t in leaves.items():
        ref = ref_leaves[name].grad
        assert type(t.grad) is np.ndarray and t.grad.shape == t.shape, name
        # the oracle's 0.0 + g turns a -0.0 into +0.0; nothing else may differ
        assert (t.grad + 0.0).tobytes() == ref.tobytes(), name


def test_constants_and_interior_nodes_end_backward_without_grad():
    rng = np.random.default_rng(4)
    loss, leaves, const = _every_op_graph(rng)
    ag.backward(loss)
    assert const.grad is None
    assert loss.grad is None  # the loss is interior too
    assert all(t.grad is not None for t in leaves.values())


def test_fan_out_of_a_passed_through_grad_keeps_separate_buffers():
    # add hands out.grad to both operands; sharing it would let one operand's
    # later contributions leak into the other's grad
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    total = ag.add(a, b)
    ag.backward(ag.add(ag.tsum(times(total, 2.0)), ag.tsum(times(a, 5.0))))
    np.testing.assert_array_equal(a.grad, [7.0, 7.0])
    np.testing.assert_array_equal(b.grad, [2.0, 2.0])
    assert not np.shares_memory(a.grad, b.grad)


def test_an_interior_node_dies_as_soon_as_its_rule_has_run():
    w = Tensor(np.array([0.5, -1.0]), requires_grad=True)
    gc.disable()
    try:
        first = ag.sigmoid(ag.mul(w, w))
        second = ag.relu(first)
        probe = weakref.ref(second)
        loss = ag.tsum(times(second, 3.0))
        seen = []
        rule = first._backward

        def watched():  # runs after second's rule, before backward returns
            seen.append(probe() is None)
            rule()

        first._backward = watched
        del first, second
        ag.backward(loss)
        assert seen == [True]
        assert w.grad is not None
    finally:
        gc.enable()


def test_dropout_is_one_node_with_a_boolean_mask():
    x = Tensor(np.random.default_rng(5).standard_normal((3, 7)), requires_grad=True)
    out = ag.dropout(x, 0.4, np.random.default_rng(6))
    assert out._prev == (x,)
    cells = [c.cell_contents for c in out._backward.__closure__]
    masks = [c for c in cells if isinstance(c, np.ndarray)]
    assert [m.dtype for m in masks] == [np.bool_]


def _closure_arrays(rule):
    """The arrays a backward rule holds: in its closure and those of the
    helpers it calls."""
    arrays, fns = {}, [rule]
    while fns:
        for cell in fns.pop().__closure__ or ():
            if isinstance(cell.cell_contents, np.ndarray):
                arrays[id(cell.cell_contents)] = cell.cell_contents
            elif inspect.isfunction(cell.cell_contents):
                fns.append(cell.cell_contents)
    return list(arrays.values())


def test_attention_keeps_the_pre_dropout_maps_and_a_boolean_mask():
    rng = np.random.default_rng(5)
    qvk = Tensor(rng.standard_normal((5, 12)), requires_grad=True)
    q, kv = (Tensor(rng.standard_normal((5, w)), requires_grad=True) for w in (4, 8))
    segs = Segments([2, 3])
    for inputs in ((qvk, qvk), (q, kv)):
        out = ag.attention(*inputs, 2, segs, segs, 0.4, np.random.default_rng(6))
        assert out._prev == tuple(dict.fromkeys(inputs))
        assert sorted((a.dtype.name, a.shape) for a in _closure_arrays(out._backward)) == [
            ("bool", (2 * (4 + 9),)), ("float64", (2 * (4 + 9),))]


@pytest.mark.parametrize("rate", [0.1, 0.5, 0.9])
def test_dropout_matches_the_mask_tensor_mul_bit_for_bit(rate):
    data = np.random.default_rng(7).standard_normal((5, 8))
    probe = np.random.default_rng(8).standard_normal((5, 8))
    runs = []
    for op in (ag.dropout, mask_tensor_dropout):
        x = Tensor(data.copy(), requires_grad=True)
        out = op(x, rate, np.random.default_rng(9))
        result = out.data.copy()
        ag.backward(ag.tsum(ag.mul(out, Tensor(probe))))
        runs.append((result, x.grad))
    (out_a, grad_a), (out_b, grad_b) = runs
    assert out_a.tobytes() == out_b.tobytes()
    assert grad_a.tobytes() == grad_b.tobytes()


# --- the dropout keep mask --------------------------------------------------------

def test_keep_mask_compares_16_bit_quarters_of_raw_words_with_the_threshold():
    rate, n = 0.3, 9
    words = np.random.default_rng(20).bit_generator.random_raw(3)
    quarters = np.stack([(words >> s) & 0xFFFF for s in (0, 16, 32, 48)], axis=1).reshape(-1)[:n]
    expected = quarters >= int(np.ceil(rate * 2**16))
    np.testing.assert_array_equal(ag._keep_mask(np.random.default_rng(20), (3, 3), rate, float)[0],
                                  expected.reshape(3, 3))


@pytest.mark.parametrize("rate", [0.1, 0.5, 1 - 1e-12])
@pytest.mark.parametrize("n", [1, 4, 6, 7, 8])
def test_keep_mask_advances_the_generator_by_a_quarter_word_per_entry(rate, n):
    rng, twin = np.random.default_rng(21), np.random.default_rng(21)
    ag._keep_mask(rng, (n,), rate, float)
    twin.bit_generator.random_raw(-(-n // 4))
    assert rng.bit_generator.state == twin.bit_generator.state


def test_a_threshold_of_two_to_the_16_keeps_nothing():
    rate = 1 - 1e-12  # the config accepts it; ceil(rate * 2**16) == 2**16 wraps in uint16
    assert np.ceil(rate * 2**16) == 2**16
    keep, scale = ag._keep_mask(np.random.default_rng(22), (4096,), rate, float)
    assert not keep.any() and scale == 0.0
    x = Tensor(np.ones((64, 64)), requires_grad=True)
    out = ag.dropout(x, rate, np.random.default_rng(22))
    assert not out.data.any()
    ag.backward(ag.tsum(out))
    assert not x.grad.any()
    qvk = Tensor(np.ones((8, 12)), requires_grad=True)
    segs = Segments([8])
    out = ag.attention(qvk, qvk, 2, segs, segs, rate, np.random.default_rng(22))
    assert not out.data.any()  # zeros, not 0 * inf = NaN
    ag.backward(ag.tsum(out))
    assert not qvk.grad.any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_scales_kept_entries_by_the_exact_inverse_kept_share(dtype):
    """At rate 0.1 the rule drops ceil(0.1 * 2**16) = 6554 of every 2**16
    values, so a kept entry is 65536 / 58982 times its input and the
    expectation is the input itself."""
    x = Tensor(np.ones((64, 64), dtype=dtype), requires_grad=True)
    out = ag.dropout(x, 0.1, np.random.default_rng(32))
    kept = out.data[out.data != 0]
    assert out.data.dtype == dtype and 0 < kept.size < out.data.size
    assert (kept == dtype(65536 / 58982)).all()
    ag.backward(ag.tsum(out))
    np.testing.assert_array_equal(x.grad, out.data)


@pytest.mark.parametrize("rate", [0.1, 0.5])
def test_kept_share_is_within_five_sigma_of_one_minus_rate(rate):
    n = 2**20
    kept = ag._keep_mask(np.random.default_rng(23), (n,), rate, float)[0].mean()
    assert abs(kept - (1 - rate)) <= 5 * np.sqrt(rate * (1 - rate) / n)


def test_rate_zero_and_eval_mode_draw_nothing():
    rng = np.random.default_rng(24)
    before = rng.bit_generator.state
    x = Tensor(np.random.default_rng(25).standard_normal((4, 4)), requires_grad=True)
    assert ag.dropout(x, 0.0, rng) is x
    segs = Segments([4])
    qvk = ag.concat([x, x, x], axis=1)
    ag.attention(qvk, qvk, 2, segs, segs, 0.0, rng)
    drop = nn.Dropout(0.5, rng).eval()
    assert drop(x) is x
    MultiHeadAttention(4, 2, np.random.default_rng(26))(x, x, segs, segs, drop=drop)
    assert rng.bit_generator.state == before


def test_float32_and_float64_inputs_get_the_same_mask():
    data = np.random.default_rng(27).uniform(0.5, 1.0, (7, 9))
    zeros = [ag.dropout(Tensor(data.astype(dtype)), 0.4, np.random.default_rng(28)).data == 0
             for dtype in (np.float32, np.float64)]
    assert zeros[0].any() and not zeros[0].all()
    np.testing.assert_array_equal(zeros[0], zeros[1])
    segs = Segments([3, 4])
    masks = []
    for dtype in (np.float32, np.float64):
        x = Tensor(data[:, :6].astype(dtype), requires_grad=True)  # q | v | k, 2 columns each
        out = ag.attention(x, x, 2, segs, segs, 0.4, np.random.default_rng(29))
        masks += [a for a in _closure_arrays(out._backward) if a.dtype == np.bool_]
    assert len(masks) == 2 and masks[0].shape == (2 * (9 + 16),)
    np.testing.assert_array_equal(masks[0], masks[1])


# --- the gradcheck suite covers the whole op library ------------------------------

NOT_OPS = {"no_grad", "backward", "gradcheck", "gradcheck_sampled"}


def test_gradcheck_suite_exercises_every_public_op(monkeypatch):
    ops = sorted(name for name, fn in vars(ag).items()
                 if inspect.isfunction(fn) and fn.__module__ == ag.__name__
                 and not name.startswith("_") and name not in NOT_OPS)
    called = set()

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapper

    for name in ops:
        monkeypatch.setattr(ag, name, recording(name, getattr(ag, name)))
    for _, run in op_checks(np.random.default_rng(0)):
        run()
    assert sorted(set(ops) - called) == []

