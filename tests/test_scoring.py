import numpy as np
import pytest

from bidal import (
    Domain,
    FrameRecord,
    SyntheticConfig,
    channel_max,
    enhance,
    entropy_map,
    generate,
    pool,
    scene_vector,
)
from bidal.scoring import scene_vectors

from .reference import ref_binary_entropy


def make_frame(rng, C=4, H=3, W=5, objectness=None):
    obj = rng.uniform(size=(2, H, W)) if objectness is None else objectness
    return FrameRecord(
        id="f",
        domain=Domain.TARGET,
        feature_map=rng.normal(size=(C, H, W)),
        objectness_map=obj,
        roi_features=np.zeros((0, 4)),
        roi_confidences=np.zeros(0),
    )


class TestEntropyMap:
    def test_endpoints_and_peak(self):
        out = entropy_map(np.array([0.0, 0.5, 1.0]))
        assert out[0] == 0.0 and out[2] == 0.0
        assert abs(out[1] - 1.0) < 1e-15

    def test_matches_scalar_oracle_on_grid(self):
        grid = np.linspace(0.0, 1.0, 1001)
        out = entropy_map(grid)
        want = np.array([ref_binary_entropy(p) for p in grid])
        assert np.max(np.abs(out - want)) < 1e-12

    def test_symmetry(self):
        grid = np.linspace(0.0, 1.0, 999)
        assert np.max(np.abs(entropy_map(grid) - entropy_map(1.0 - grid))) < 1e-12

    def test_natural_log_base(self):
        out = entropy_map(np.array([0.5]), log_base=np.e)
        assert abs(out[0] - np.log(2.0)) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            entropy_map(np.array([1.1]))
        with pytest.raises(ValueError):
            entropy_map(np.array([-0.1]))

    def test_preserves_shape(self):
        assert entropy_map(np.full((2, 3, 4), 0.3)).shape == (2, 3, 4)


class TestChannelMax:
    def test_reduces_leading_axis(self):
        t = np.arange(24, dtype=float).reshape(2, 3, 4)
        assert np.array_equal(channel_max(t), t[1])

    def test_rejects_wrong_rank(self):
        with pytest.raises(ValueError):
            channel_max(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            channel_max(np.zeros((0, 3, 4)))


class TestEnhance:
    def test_attention_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            e = enhance(make_frame(rng))
            assert np.all(e.attention >= 1.0) and np.all(e.attention <= 2.0)

    def test_zero_objectness_is_identity(self):
        rng = np.random.default_rng(4)
        frame = make_frame(rng, objectness=np.zeros((2, 3, 5)))
        e = enhance(frame)
        assert np.array_equal(e.map, np.asarray(frame.feature_map, dtype=np.float64))
        assert np.array_equal(e.attention, np.ones((3, 5)))

    def test_attention_formula(self):
        rng = np.random.default_rng(5)
        frame = make_frame(rng)
        obj = np.asarray(frame.objectness_map)
        s_obj = obj.max(axis=0)
        s_ent = entropy_map(obj).max(axis=0)
        e = enhance(frame)
        assert np.allclose(e.attention, 1.0 + (s_obj + s_ent) / 2.0, atol=1e-12)
        assert np.allclose(
            e.map, e.attention[None] * np.asarray(frame.feature_map), atol=1e-12
        )

    def test_certain_foreground_doubles(self):
        rng = np.random.default_rng(6)
        frame = make_frame(rng, objectness=np.ones((1, 3, 5)))
        e = enhance(frame)
        # p=1 gives entropy 0, so attention = 1 + (1 + 0)/2 = 1.5
        assert np.allclose(e.attention, 1.5)


class TestPooling:
    def test_pool_is_spatial_mean(self):
        rng = np.random.default_rng(7)
        frame = make_frame(rng)
        e = enhance(frame)
        assert np.allclose(pool(e), e.map.mean(axis=(1, 2)), atol=1e-12)

    def test_scene_vector_shape_and_composition(self):
        rng = np.random.default_rng(8)
        frame = make_frame(rng, C=6)
        v = scene_vector(frame)
        assert v.shape == (6,)
        assert np.allclose(v, pool(enhance(frame)), atol=0)


def plain_scene_vector(frame):
    """The per-frame formula written out step by step, as a byte oracle."""
    p = np.asarray(frame.objectness_map, dtype=np.float64)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        ent = -np.where(p > 0.0, p * np.log2(p), 0.0) - np.where(q > 0.0, q * np.log2(q), 0.0)
    attention = 1.0 + (np.max(p, axis=0) + np.max(ent, axis=0)) / 2.0
    fmap = np.asarray(frame.feature_map, dtype=np.float64)
    return np.mean(attention[None, :, :] * fmap, axis=(1, 2))


def edge_pool(rng, n, shape=(5, 3, 4), obj_channels=3, dtype=np.float64):
    """Frames whose objectness holds exact 0s and 1s beside uniform values."""
    frames = []
    for i in range(n):
        obj = rng.uniform(size=(obj_channels,) + shape[1:])
        obj[rng.uniform(size=obj.shape) < 0.2] = 0.0
        obj[rng.uniform(size=obj.shape) < 0.2] = 1.0
        if i % 7 == 0:
            obj[:] = float(i % 2)  # a map that is all 0 or all 1
        frames.append(
            FrameRecord(
                id="e%03d" % i,
                domain=Domain.TARGET,
                feature_map=rng.normal(scale=3.0, size=shape).astype(dtype),
                objectness_map=obj.astype(dtype),
                roi_features=np.zeros((0, 4)),
                roi_confidences=np.zeros(0),
            )
        )
    return frames


class TestBatchedSceneVectors:
    def assert_bytes_equal(self, frames):
        batched = scene_vectors(frames)
        assert len(batched) == len(frames)
        for frame, v in zip(frames, batched):
            one = scene_vector(frame)
            assert v.dtype == one.dtype == np.float64
            assert v.tobytes() == one.tobytes() == plain_scene_vector(frame).tobytes(), frame.id

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_pools(self, seed):
        source, target, _ = generate(
            SyntheticConfig(n_source=40, n_target=60, n_eval=1, seed=seed)
        )
        self.assert_bytes_equal(source)
        self.assert_bytes_equal(target)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_objectness_exactly_zero_and_one(self, dtype):
        frames = edge_pool(np.random.default_rng(11), 50, dtype=dtype)
        obj = np.stack([f.objectness_map for f in frames])
        assert (obj == 0.0).any() and (obj == 1.0).any()
        self.assert_bytes_equal(frames)

    def test_mixed_map_shapes_and_dtypes_keep_pool_order(self):
        rng = np.random.default_rng(12)
        a = edge_pool(rng, 9, shape=(5, 3, 4))
        b = edge_pool(rng, 6, shape=(5, 6, 2), obj_channels=1)
        c = edge_pool(rng, 4, shape=(5, 3, 4), dtype=np.float32)
        frames = [f for pair in zip(a, b) for f in pair] + a[len(b):] + c
        self.assert_bytes_equal(frames)

    def test_rejects_non_chw_objectness(self):
        frame = make_frame(np.random.default_rng(13))
        flat = FrameRecord(
            id="flat",
            domain=Domain.TARGET,
            feature_map=frame.feature_map,
            objectness_map=frame.objectness_map[0],
            roi_features=frame.roi_features,
            roi_confidences=frame.roi_confidences,
        )
        with pytest.raises(ValueError):
            scene_vectors([frame, flat])
