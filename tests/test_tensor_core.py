import dataclasses
import math
import os
import struct
import sys
import threading

import numpy as np
import pytest

from yolovehicle import tensor_core as tc


class TestRng:
    def test_same_seed_same_stream(self):
        a = tc.Rng(42)
        b = tc.Rng(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_uniform_deterministic_and_bounded(self):
        vals = tc.Rng(7).uniform(-0.5, 0.5, (1000,))
        vals2 = tc.Rng(7).uniform(-0.5, 0.5, (1000,))
        assert np.array_equal(vals, vals2)
        assert vals.dtype == np.float32
        assert np.all(vals >= -0.5) and np.all(vals < 0.5)

    def test_known_splitmix64_values(self):
        # reference values for seed 0 from the published splitmix64 algorithm
        r = tc.Rng(0)
        assert r.next_u64() == 0xE220A8397B1DCDAF
        assert r.next_u64() == 0x6E789E6AA1B965F4

    def test_init_uniform_bound(self):
        w = tc.init_uniform(tc.Rng(1), (64, 16), fan_in=16)
        r = math.sqrt(1 / 16)
        assert np.all(np.abs(w) <= r)


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(tc.softmax(np.zeros(2, np.float32)), [0.5, 0.5])

    def test_shift_invariance(self):
        v = np.array([1.0, -2.0, 0.5], dtype=np.float32)
        assert np.allclose(tc.softmax(v), tc.softmax(v + 7.0), atol=1e-6)

    def test_scalar_oracle(self):
        v = np.array([1.0, 2.0, 3.0])
        e = np.exp([1.0, 2.0, 3.0])
        assert np.allclose(tc.softmax(v), e / e.sum(), atol=1e-6)

    def test_sums_to_one_extreme_magnitudes(self):
        rng = tc.Rng(5)
        for scale in (1.0, 1e2, 1e4):
            v = rng.uniform(-1, 1, (4, 6)) * np.float32(scale)
            s = tc.softmax(v, axis=1)
            assert np.allclose(s.sum(axis=1), 1.0, atol=1e-5)
            assert np.all(s >= 0)

    def test_axis_out_of_range(self):
        with pytest.raises(ValueError):
            tc.softmax(np.zeros((2, 2), np.float32), axis=2)


class TestSigmoidLeaky:
    def test_sigmoid_zero(self):
        assert tc.sigmoid(np.array([0.0], np.float32))[0] == 0.5

    def test_sigmoid_symmetry(self):
        v = tc.Rng(6).uniform(-5, 5, (100,))
        assert np.allclose(tc.sigmoid(v) + tc.sigmoid(-v), 1.0, atol=1e-6)

    def test_sigmoid_scalar_oracle(self):
        assert np.isclose(tc.sigmoid(np.array([2.0]))[0], 1 / (1 + math.exp(-2.0)))

    def test_sigmoid_extreme_no_overflow(self):
        out = tc.sigmoid(np.array([-1e4, 1e4], np.float32))
        assert np.all(np.isfinite(out))

    def test_leaky_relu_branches(self):
        v = np.array([2.0, -1.0, 0.0], dtype=np.float32)
        out = tc.leaky_relu(v)
        assert np.allclose(out, [2.0, -0.01, 0.0])

    def test_leaky_relu_identity_on_nonnegative(self):
        v = np.abs(tc.Rng(9).uniform(0, 3, (50,)))
        assert np.array_equal(tc.leaky_relu(v), v)

    def test_leaky_relu_monotone(self):
        xs = np.sort(tc.Rng(10).uniform(-4, 4, (200,)))
        ys = tc.leaky_relu(xs)
        assert np.all(np.diff(ys) >= 0)

    def test_leaky_relu_backward_scales_by_the_slope(self):
        x = np.array([2.0, 1e-30, 0.0, -0.0, -1e-30, -3.0], np.float32)
        g = tc.Rng(11).uniform(-1, 1, x.shape)
        slope = np.float32(tc.LEAKY_SLOPE)
        want = np.array([g[0], g[1], slope * g[2], slope * g[3], slope * g[4],
                         slope * g[5]], np.float32)
        out = tc.leaky_relu_backward(x, g)
        assert out.dtype == g.dtype and np.array_equal(out, want)


class TestConv2d:
    def test_identity_kernel(self):
        x = tc.Rng(20).uniform(-1, 1, (3, 5, 5))
        k = np.zeros((3, 3, 1, 1), np.float32)
        for c in range(3):
            k[c, c, 0, 0] = 1.0
        assert np.array_equal(tc.conv2d(x, k), x)

    def test_all_ones_hand_sum(self):
        x = np.ones((1, 3, 3), np.float32)
        k = np.ones((1, 1, 3, 3), np.float32)
        out = tc.conv2d(x, k)
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == 9.0

    def test_stride2_halves_even_dims(self):
        x = tc.Rng(21).uniform(-1, 1, (2, 8, 12))
        k = tc.Rng(22).uniform(-1, 1, (4, 2, 3, 3))
        out = tc.conv2d(x, k, stride=2, pad=1)
        assert out.shape == (4, 4, 6)

    def test_kernel_too_large(self):
        with pytest.raises(ValueError):
            tc.conv2d(np.zeros((1, 2, 2), np.float32), np.zeros((1, 1, 5, 5), np.float32))

    def test_backward_matches_finite_differences(self):
        rng = tc.Rng(23)
        x = rng.uniform(-1, 1, (2, 4, 4)).astype(np.float64)
        k = rng.uniform(-1, 1, (3, 2, 3, 3)).astype(np.float64)

        def f_x(xv):
            out = tc.conv2d(xv, k, stride=1, pad=1)
            gx, _ = tc.conv2d_backward(xv, k, np.ones_like(out), stride=1, pad=1)
            return out.sum(), gx

        def f_k(kv):
            out = tc.conv2d(x, kv, stride=1, pad=1)
            _, gk = tc.conv2d_backward(x, kv, np.ones_like(out), stride=1, pad=1)
            return out.sum(), gk

        assert tc.grad_check(f_x, x) < 1e-3
        assert tc.grad_check(f_k, k) < 1e-3

    def test_threads_convolving_at_once_each_get_their_own_result(self):
        # the cloud node's handler threads convolve at once, and numpy lets
        # go of the interpreter lock while it fills and multiplies a band
        rng = tc.Rng(24)
        k = rng.uniform(-1, 1, (8, 8, 3, 3))
        maps = [rng.uniform(-1, 1, (8, 96, 100)) for _ in range(4)]  # 3 bands each
        want = [tc.conv2d(x, k, pad=1) for x in maps]
        same = [None] * len(maps)

        def run(i):
            same[i] = all(np.array_equal(tc.conv2d(maps[i], k, pad=1), want[i])
                          for _ in range(10))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(maps))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert same == [True] * len(maps)


class TestGlobalAvgPool:
    def test_constant_map(self):
        x = np.full((3, 4, 4), 2.5, np.float32)
        assert np.allclose(tc.global_avg_pool(x), [[2.5, 2.5, 2.5]])

    def test_single_pixel_identity(self):
        x = np.array([[[1.0]], [[-2.0]]], dtype=np.float32)
        assert np.allclose(tc.global_avg_pool(x), [[1.0, -2.0]])

    def test_hand_mean(self):
        x = tc.Rng(30).uniform(-1, 1, (1, 2, 2))
        assert np.isclose(tc.global_avg_pool(x)[0, 0], x.mean(), atol=1e-6)


class TestAttention:
    def test_rows_sum_to_one(self):
        rng = tc.Rng(31)
        q = rng.uniform(-1, 1, (3, 8))
        k = rng.uniform(-1, 1, (5, 8))
        v = rng.uniform(-1, 1, (5, 8))
        _, (_, _, _, w, _) = tc.attention(q, k, v)
        assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-5)

    def test_single_key_returns_value(self):
        rng = tc.Rng(32)
        q = rng.uniform(-1, 1, (1, 8))
        kv = rng.uniform(-1, 1, (1, 8))
        out, _ = tc.attention(q, kv, kv)
        assert np.allclose(out, kv, atol=1e-6)

    def test_multi_head_matches_per_head_slices(self):
        rng = tc.Rng(33)
        q = rng.uniform(-1, 1, (1, 16)).astype(np.float64)
        kv = rng.uniform(-1, 1, (4, 16)).astype(np.float64)
        out, _ = tc.multi_head_attention(q, kv, kv, heads=2)
        ref = np.concatenate(
            [tc.attention(q[:, s], kv[:, s], kv[:, s])[0] for s in (slice(0, 8), slice(8, 16))],
            axis=1,
        )
        assert np.allclose(out, ref, atol=1e-10)

    def test_bad_head_count(self):
        # 3 heads do not divide 512 columns
        rng = tc.Rng(47)
        q = rng.uniform(-1, 1, (1, 512))
        kv = rng.uniform(-1, 1, (3, 512))
        with pytest.raises(ValueError, match="head count 3 does not divide dim 512"):
            tc.multi_head_attention(q, kv, kv, 3)

    def test_attention_backward_grad_check(self):
        rng = tc.Rng(34)
        q0 = rng.uniform(-1, 1, (2, 8)).astype(np.float64)
        kv0 = rng.uniform(-1, 1, (3, 8)).astype(np.float64)
        w_out = rng.uniform(-1, 1, (2, 8)).astype(np.float64)

        def f_q(qv):
            out, cache = tc.attention(qv, kv0, kv0)
            gq, _, _ = tc.attention_backward(cache, w_out)
            return float((out * w_out).sum()), gq

        def f_kv(kvv):
            out, cache = tc.attention(q0, kvv, kvv)
            _, gk, gv = tc.attention_backward(cache, w_out)
            return float((out * w_out).sum()), gk + gv

        assert tc.grad_check(f_q, q0) < 1e-3
        assert tc.grad_check(f_kv, kv0) < 1e-3


class TestGradCheck:
    def test_sum_of_squares(self):
        x = np.array([1.0, 2.0])

        def f(v):
            return float((v ** 2).sum()), 2 * v

        assert tc.grad_check(f, x) < 1e-6

    def test_linear_exact(self):
        w = np.array([3.0, -1.0, 2.0])

        def f(v):
            return float(v @ w), w.copy()

        assert tc.grad_check(f, np.array([0.5, 0.1, -0.2])) < 1e-9

    def test_softmax_cross_entropy_toy(self):
        target = 1

        def f(v):
            p = tc.softmax(v)
            g = p.copy()
            g[target] -= 1.0
            return float(-np.log(p[target])), g

        assert tc.grad_check(f, np.array([0.3, -0.2, 0.9])) < 1e-3

    def test_eps_out_of_range(self):
        with pytest.raises(ValueError):
            tc.grad_check(lambda v: (float(v.sum()), np.ones_like(v)), np.ones(2), eps=1.0)


class TestTsrFormat:
    def test_roundtrip_bit_exact(self):
        arr = tc.Rng(44).uniform(-2, 2, (2, 3, 4))
        buf = tc.tensor_to_bytes(arr)
        back, end = tc.tensor_from_bytes(buf)
        assert end == len(buf)
        assert back.dtype == np.float32
        assert np.array_equal(back, arr)

    def test_layout_exact_bytes(self):
        arr = np.array([1.0, 2.0], dtype=np.float32)
        buf = tc.tensor_to_bytes(arr)
        assert buf[:4] == b"TSR1"
        assert buf[4] == 1
        assert buf[5:9] == (2).to_bytes(4, "little")
        assert buf[9:] == arr.astype("<f4").tobytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            tc.tensor_from_bytes(b"XXXX\x01\x01\x00\x00\x00\x00\x00\x80\x3f")

    def test_archive_roundtrip(self, tmp_path):
        tensors = {"a.w": tc.Rng(1).uniform(-1, 1, (3, 3)), "b": np.zeros(5, np.float32)}
        p = tmp_path / "w.bin"
        tc.atomic_write(p, tc.archive_to_bytes(tensors))
        back = dict(tc.archive_entries(p.read_bytes()))
        assert set(back) == {"a.w", "b"}
        for k in tensors:
            assert np.array_equal(back[k], tensors[k])

    def test_truncated_archive_rejected(self):
        buf = tc.archive_to_bytes({"a.w": tc.Rng(2).uniform(-1, 1, (2, 3)),
                                   "b": np.zeros(4, np.float32)})
        # a cut inside the count (2) and inside the first name length (5),
        # then every other strict prefix
        for cut in [2, 5] + list(range(len(buf))):
            with pytest.raises(ValueError):
                dict(tc.archive_entries(buf[:cut]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected_naming_it(self, bad):
        tensors = {"a": np.zeros(2, np.float32), "b": np.array([1.0, bad], np.float32)}
        with pytest.raises(ValueError, match="'b' holds a non-finite value"):
            tc.archive_to_bytes(tensors)
        # the same archive written entry by entry, past the writer's check
        buf = struct.pack("<I", 2) + b"".join(
            struct.pack("<H", 1) + name.encode() + tc.tensor_to_bytes(arr)
            for name, arr in tensors.items())
        entries = tc.archive_entries(buf)
        assert next(entries)[0] == "a"
        with pytest.raises(ValueError, match="'b' holds a non-finite value"):
            next(entries)

    def test_repeated_name_rejected_naming_it(self):
        # a second "a" record, with the count raised to match
        buf = tc.archive_to_bytes({"a": np.zeros(2, np.float32),
                                   "b": np.zeros(1, np.float32)})
        extra = struct.pack("<H", 1) + b"a" + tc.tensor_to_bytes(np.ones(2, np.float32))
        forged = struct.pack("<I", 3) + buf[4:] + extra
        with pytest.raises(ValueError, match="tensor 'a' twice"):
            dict(tc.archive_entries(forged))

    def test_entries_come_in_stored_order_one_at_a_time(self):
        # a truncated last entry raises only once it is asked for
        buf = tc.archive_to_bytes({"z": np.ones(2, np.float32),
                                   "a": np.zeros((1, 3), np.float32),
                                   "m": np.full(4, 2.0, np.float32)})
        entries = tc.archive_entries(buf[:-1])
        assert [next(entries)[0], next(entries)[0]] == ["z", "a"]
        with pytest.raises(ValueError, match="truncated"):
            next(entries)
        assert [(n, a.tolist()) for n, a in tc.archive_entries(buf)] == [
            ("z", [1.0, 1.0]), ("a", [[0.0, 0.0, 0.0]]), ("m", [2.0] * 4)]

    def test_entries_reject_a_repeated_name_when_they_reach_it(self):
        buf = tc.archive_to_bytes({"a": np.zeros(2, np.float32)})
        extra = struct.pack("<H", 1) + b"a" + tc.tensor_to_bytes(np.ones(1, np.float32))
        entries = tc.archive_entries(struct.pack("<I", 2) + buf[4:] + extra)
        assert next(entries)[0] == "a"
        with pytest.raises(ValueError, match="tensor 'a' twice"):
            next(entries)

    def test_non_utf8_name_rejected(self):
        buf = tc.archive_to_bytes({"ab": np.zeros(1, np.float32)})
        with pytest.raises(ValueError):
            dict(tc.archive_entries(buf[:6] + b"\xff" + buf[7:]))

    def test_rank_outside_one_to_four_rejected(self):
        with pytest.raises(ValueError, match="rank 5"):
            tc.tensor_to_bytes(np.zeros((1, 1, 1, 1, 1), np.float32))
        for scalar in (np.zeros(()), np.float32(1.0)):
            with pytest.raises(ValueError, match="rank 0"):
                tc.tensor_to_bytes(scalar)
        buf = tc.tensor_to_bytes(np.zeros(2, np.float32))
        for rank in (0, 5):
            with pytest.raises(ValueError, match=f"bad TSR rank {rank}"):
                tc.tensor_from_bytes(buf[:4] + bytes([rank]) + buf[5:])


class TestAtomicWrite:
    def test_writes_bytes_and_text(self, tmp_path):
        tc.atomic_write(tmp_path / "a.bin", b"\x00\xff")
        tc.atomic_write(tmp_path / "b.txt", "car 0.9\n")
        assert (tmp_path / "a.bin").read_bytes() == b"\x00\xff"
        assert (tmp_path / "b.txt").read_text() == "car 0.9\n"
        assert sorted(os.listdir(tmp_path)) == ["a.bin", "b.txt"]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"old contents")
        tc.atomic_write(path, b"new")
        assert path.read_bytes() == b"new"
        assert os.listdir(tmp_path) == ["w.bin"]

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_new_file_gets_the_mode_open_gives(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            tc.atomic_write(tmp_path / "new.txt", "x")
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("x")
        finally:
            os.umask(old)
        mode = os.stat(tmp_path / "new.txt").st_mode & 0o7777
        assert mode == 0o666 & ~umask == os.stat(tmp_path / "plain.txt").st_mode & 0o7777

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    @pytest.mark.parametrize("mode", [0o644, 0o640, 0o600, 0o755], ids=oct)
    def test_replaced_file_keeps_its_mode(self, tmp_path, mode):
        path = tmp_path / "w.bin"
        path.write_bytes(b"old")
        os.chmod(path, mode)
        old = os.umask(0o077)
        try:
            tc.atomic_write(path, b"new")
        finally:
            os.umask(old)
        assert path.read_bytes() == b"new"
        assert os.stat(path).st_mode & 0o7777 == mode

    def test_failed_write_keeps_existing_file_and_no_temp(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("kept")
        with pytest.raises(TypeError):
            tc.atomic_write(path, 12345)  # neither bytes nor text
        assert path.read_text() == "kept"
        assert os.listdir(tmp_path) == ["w.txt"]


@dataclasses.dataclass
class _Leaf:
    w: np.ndarray
    b: np.ndarray
    stride: int = 1


@dataclasses.dataclass
class _Tree:
    vocab: dict
    embed: np.ndarray
    layers: list
    stages: list
    heads: int = 2
    shift: bool = False
    w_out: np.ndarray | None = None


class TestParamRegistry:
    def tree(self):
        rng = tc.Rng(45)

        def leaf():
            return _Leaf(w=rng.uniform(-1, 1, (2, 2)), b=rng.uniform(-1, 1, (2,)))

        return _Tree(vocab={"car": 1}, embed=rng.uniform(-1, 1, (3, 2)),
                     layers=[leaf(), leaf()], stages=[[leaf()], [leaf(), leaf()]])

    def test_names_follow_field_then_index_order(self):
        names = [n for n, _ in tc.param_items(self.tree())]
        assert names == ["embed", "layers.0.w", "layers.0.b", "layers.1.w", "layers.1.b",
                         "stages.0.0.w", "stages.0.0.b", "stages.1.0.w", "stages.1.0.b",
                         "stages.1.1.w", "stages.1.1.b"]

    def test_prefix_and_optional_array(self):
        tree = self.tree()
        tree.w_out = np.ones(2, np.float32)
        names = [n for n, _ in tc.param_items(tree, "text")]
        assert names[0] == "text.embed" and names[-1] == "text.w_out"

    def test_items_are_the_tree_arrays(self):
        tree = self.tree()
        items = dict(tc.param_items(tree))
        assert items["stages.1.0.b"] is tree.stages[1][0].b
        assert items["embed"] is tree.embed

    def test_set_param_is_the_inverse(self):
        tree = self.tree()
        for i, (name, value) in enumerate(list(tc.param_items(tree))):
            tc.set_param(tree, name, np.full_like(value, i))
        for i, (_, value) in enumerate(tc.param_items(tree)):
            assert np.all(value == i)
        assert tree.heads == 2 and tree.shift is False and tree.vocab == {"car": 1}
