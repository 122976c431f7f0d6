import dataclasses
import warnings

import numpy as np
import pytest

from bidal import (
    Domain,
    FrameRecord,
    SyntheticConfig,
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

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            entropy_map(np.array([1.1]))
        with pytest.raises(ValueError):
            entropy_map(np.array([-0.1]))

    def test_preserves_shape(self):
        assert entropy_map(np.full((2, 3, 4), 0.3)).shape == (2, 3, 4)


class TestEnhance:
    def test_rejects_wrong_rank(self):
        rng = np.random.default_rng(2)
        for obj in (np.zeros((3, 5)), np.zeros((0, 3, 5))):
            with pytest.raises(ValueError, match="objectness_map"):
                enhance(make_frame(rng, objectness=obj))

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


# The scoring math as it was written before it ran over one p/q buffer: the
# byte oracle of the formulation that replaced it.
def prior_entropy_map(obj):
    def xlog2x(p):
        return p * np.log2(p, out=np.zeros(p.shape), where=p > 0.0)

    p = np.asarray(obj, dtype=np.float64)
    lo, hi = (p.min(), p.max()) if p.size else (0.0, 1.0)
    if lo < 0.0 or hi > 1.0:
        raise ValueError("entropy_map input must lie in [0,1]")
    q = 1.0 - p
    return -(p * np.log2(p) if lo > 0.0 else xlog2x(p)) - (
        q * np.log2(q) if hi < 1.0 else xlog2x(q)
    )


def prior_check_chw(shape):
    if len(shape) != 3 or shape[0] < 1:
        raise ValueError("objectness_map must be a non-empty (C', H, W) tensor")


def prior_attention_and_map(obj, fmap):
    attention = 1.0 + (obj.max(axis=-3) + prior_entropy_map(obj).max(axis=-3)) / 2.0
    return attention, attention[..., None, :, :] * fmap


def prior_enhance(frame):
    obj = np.asarray(frame.objectness_map, dtype=np.float64)
    prior_check_chw(obj.shape)
    return prior_attention_and_map(obj, np.asarray(frame.feature_map, dtype=np.float64))


def prior_pool(m):
    m = np.asarray(m, dtype=np.float64)
    return m.sum(axis=(-2, -1)) / (m.shape[-2] * m.shape[-1])


def prior_scene_vector(frame):
    return prior_pool(prior_enhance(frame)[1])


def prior_scene_vectors(frames):
    groups = {}
    for i, f in enumerate(frames):
        shapes = (np.shape(f.objectness_map), np.shape(f.feature_map))
        prior_check_chw(shapes[0])
        groups.setdefault(shapes, []).append(i)
    out = [None] * len(frames)
    for idx in groups.values():
        obj = np.stack([frames[i].objectness_map for i in idx]).astype(np.float64, copy=False)
        fmap = np.stack([frames[i].feature_map for i in idx]).astype(np.float64, copy=False)
        for i, v in zip(idx, prior_pool(prior_attention_and_map(obj, fmap)[1])):
            out[i] = v
    return out


def as_lists(frame):
    return dataclasses.replace(
        frame,
        feature_map=np.asarray(frame.feature_map).tolist(),
        objectness_map=np.asarray(frame.objectness_map).tolist(),
    )


class TestOneFormulationOracle:
    """Every entry point keeps the bytes, errors and warnings of the prior formulation."""

    def assert_same_bytes(self, frames):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batched = scene_vectors(frames)
            want_batched = prior_scene_vectors(frames)
            for frame, v, w in zip(frames, batched, want_batched):
                want = prior_scene_vector(frame)
                attention, fmap = prior_enhance(frame)
                e = enhance(frame)
                assert scene_vector(frame).tobytes() == want.tobytes(), frame.id
                assert pool(e).tobytes() == want.tobytes(), frame.id
                assert v.tobytes() == w.tobytes() == want.tobytes(), frame.id
                assert e.attention.tobytes() == attention.tobytes(), frame.id
                assert e.map.tobytes() == fmap.tobytes(), frame.id
                assert e.map.dtype == e.attention.dtype == np.float64
                ent = entropy_map(frame.objectness_map)
                assert ent.tobytes() == prior_entropy_map(frame.objectness_map).tobytes()

    @pytest.mark.parametrize("dims", [(16, 4, 4, 2, 16), (8, 3, 5, 1, 6), (4, 2, 7, 3, 4)],
                             ids=["bench", "one-channel", "wide"])
    def test_generated_frames(self, dims):
        source, target, _ = generate(
            SyntheticConfig(n_source=40, n_target=50, n_eval=1, seed=3, feature_dims=dims)
        )
        self.assert_same_bytes(source + target)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_maps_holding_zero_and_one(self, dtype):
        rng = np.random.default_rng(21)
        frames = edge_pool(rng, 40, dtype=dtype) + edge_pool(rng, 10, shape=(3, 2, 6), obj_channels=1)
        obj = np.stack([f.objectness_map for f in frames[:40]])
        assert (obj == 0.0).any() and (obj == 1.0).any()
        self.assert_same_bytes(frames)

    def test_negative_zero_objectness(self):
        frames = edge_pool(np.random.default_rng(22), 12)
        for f in frames:
            f.objectness_map[0, 0] = -0.0
        self.assert_same_bytes(frames)

    def test_list_and_float64_inputs(self):
        source, _, _ = generate(SyntheticConfig(n_source=12, n_target=1, n_eval=1, seed=4))
        wide = [
            dataclasses.replace(f, feature_map=np.asarray(f.feature_map, dtype=np.float64))
            for f in source
        ]
        self.assert_same_bytes([as_lists(f) for f in source] + wide)
        self.assert_same_bytes([as_lists(f) for f in edge_pool(np.random.default_rng(23), 8)])

    def test_entropy_map_on_any_shape(self):
        for obj in (0.0, 0.5, 1.0, [0.2, 1.0], np.float32(0.3), [], np.zeros((0, 3)),
                    [[0.0, 0.5], [1.0, 0.25]], np.linspace(0.0, 1.0, 33).reshape(3, 11)):
            got, want = entropy_map(obj), prior_entropy_map(obj)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("obj, fmap_shape", [
        (np.zeros((3, 5)), (4, 3, 5)),
        (np.zeros((0, 3, 5)), (4, 3, 5)),
        (np.zeros((1, 2, 3, 5)), (4, 3, 5)),
        (np.full((2, 3, 5), 1.5), (4, 3, 5)),
        (np.full((2, 3, 5), -0.5), (4, 3, 5)),
        (np.full((2, 3, 5), 0.5), (4, 3, 6)),
        (np.full((2, 3, 5), 1.5), (4, 3, 6)),
    ], ids=["2-d", "no-channels", "4-d", "above-one", "below-zero", "spatial", "range-first"])
    def test_errors_keep_type_and_text(self, obj, fmap_shape):
        frame = dataclasses.replace(make_frame(np.random.default_rng(24)), objectness_map=obj,
                                    feature_map=np.ones(fmap_shape))
        for got, want in ((scene_vector, prior_scene_vector), (enhance, prior_enhance),
                          (lambda f: scene_vectors([f]), lambda f: prior_scene_vectors([f]))):
            with pytest.raises(Exception) as expected:
                want(frame)
            with pytest.raises(expected.type) as raised:
                got(frame)
            assert str(raised.value) == str(expected.value)
        with pytest.raises(ValueError, match=r"must lie in \[0,1\]"):
            entropy_map(np.array([1.0, 1.0 + 2**-52]))

    def test_endpoints_raise_no_warning(self):
        rng = np.random.default_rng(25)
        frames = edge_pool(rng, 30) + [
            make_frame(rng, objectness=np.full((2, 3, 5), v)) for v in (0.0, 1.0)
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scene_vectors(frames)
            for f in frames:
                scene_vector(f)
                enhance(f)
                entropy_map(f.objectness_map)


def xlog2x_terms(rng, shape):
    """p*log2(p) and q*log2(q) as the entropy takes them, for p holding exact 0s and 1s."""
    p = rng.uniform(size=shape)
    p[rng.uniform(size=shape) < 0.1] = 0.0
    p[rng.uniform(size=shape) < 0.1] = 1.0
    pq = np.stack([p, 1.0 - p])
    return pq * np.log2(pq, out=np.zeros(pq.shape), where=pq > 0.0)


class TestNumpyAssumptionsOfScoring:
    """What the one-buffer formulation assumes of IEEE arithmetic and numpy: each form
    gives the bytes of the one it stands for."""

    def test_negated_sum_is_negation_minus(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            a, b = xlog2x_terms(rng, (3, 4, 5))
            assert (-a - b).tobytes() == (-(a + b)).tobytes()

    def test_max_of_negation_is_negated_min(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            a, b = xlog2x_terms(rng, (int(rng.integers(1, 5)), 4, 5))
            x = a + b
            want = np.maximum.reduce(-x, axis=-3)
            assert (-np.minimum.reduce(x, axis=-3)).tobytes() == want.tobytes()
            # a sign of zero is all that could differ, and adding to 1 erases it
            assert (1.0 + want).tobytes() == (1.0 - np.minimum.reduce(x, axis=-3)).tobytes()

    def test_half_is_times_a_half(self):
        rng = np.random.default_rng(33)
        x = np.concatenate([rng.normal(size=1000) * 10.0 ** rng.integers(-300, 300, size=1000),
                            [5e-324, -5e-324, 2.2250738585072014e-308, 0.0, -0.0, np.inf]])
        assert (x / 2.0).tobytes() == (x * 0.5).tobytes()

    def test_float32_factor_is_cast_inside_the_product(self):
        rng = np.random.default_rng(34)
        att = 1.0 + rng.uniform(size=(1, 4, 4))
        fmap = rng.normal(scale=5.0, size=(16, 4, 4)).astype(np.float32)
        assert (att * fmap).dtype == np.float64
        assert (att * fmap).tobytes() == (att * fmap.astype(np.float64)).tobytes()

    def test_log2_of_a_stacked_buffer_is_log2_of_each_half(self):
        rng = np.random.default_rng(35)
        p = rng.uniform(size=(3, 4, 5))
        pq = np.stack([p, 1.0 - p])
        logs = np.log2(pq)
        assert logs[0].tobytes() == np.log2(p).tobytes()
        assert logs[1].tobytes() == np.log2(1.0 - p).tobytes()
        p[0, 0] = [0.0, 1.0, 0.5, 0.0, 1.0]
        pq = np.stack([p, 1.0 - p])
        masked = np.log2(pq, out=np.zeros(pq.shape), where=pq > 0.0)
        for half, x in zip(masked, (p, 1.0 - p)):
            assert half.tobytes() == np.log2(x, out=np.zeros(x.shape), where=x > 0.0).tobytes()

    def test_one_reduction_checks_the_range(self):
        """min(p, 1 - p) < 0 exactly when p leaves [0, 1], and == 0 exactly at an endpoint."""
        for v in (0.0, 1.0, 0.5, 1e-300, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                  -5e-324, 1.5, 3.0, -0.0):
            p = np.array([v])
            lo = np.minimum.reduce(np.stack([p, 1.0 - p]), axis=None, initial=1.0)
            assert (lo < 0.0) == (p.min() < 0.0 or p.max() > 1.0), v
            assert (lo == 0.0) == (p.min() == 0.0 or p.max() == 1.0), v

    def test_ufunc_reductions_are_the_array_methods(self):
        rng = np.random.default_rng(36)
        m = rng.normal(size=(7, 16, 4, 4))
        assert np.add.reduce(m, axis=(-2, -1)).tobytes() == m.sum(axis=(-2, -1)).tobytes()
        assert np.maximum.reduce(m, axis=-3).tobytes() == m.max(axis=-3).tobytes()
        assert np.minimum.reduce(m, axis=-3).tobytes() == m.min(axis=-3).tobytes()
