import hashlib
import itertools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bidal import (
    BankConfig,
    DiscriminatorModel,
    Domain,
    FrameRecord,
    ProxyDetector,
    SyntheticConfig,
    build_banks,
    generate,
    reweight,
    sample_round,
    select_targets,
)
from bidal.target_sampler import (
    _BLOCK_START,
    NORM_FLOOR,
    SimilarityBank,
    _block_rows,
    _lane_order,
    _lane_sum,
    _norms,
    _Prototypes,
    cosine,
    merge_banks,
)

from .reference import (
    ref_build_banks,
    ref_cosine,
    ref_reweight,
    ref_select_targets,
)


def rois_from(vectors):
    """``vectors`` as an ROI matrix, and the ids f0000, f0001, ... of its rows."""
    rois = np.array(vectors, dtype=float)
    return rois, ["f%04d" % i for i in range(len(rois))]


def cosines(protos, vec):
    """Cosine of ``vec`` with every prototype: the one-row case of ``cosine_rows``."""
    return protos.cosine_rows(vec[None], _norms(vec)[None])[0]


def assert_same_banks(got, want):
    assert len(got.banks) == len(want)
    for bank, (proto, members) in zip(got.banks, want):
        assert bank.members == members
        assert np.allclose(bank.prototype, proto, atol=1e-12)


class TestReweight:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            k, d = int(rng.integers(1, 6)), int(rng.integers(1, 8))
            rois = rng.normal(size=(k, d))
            confs = rng.uniform(size=k)
            frame = FrameRecord(
                id="f",
                domain=Domain.TARGET,
                feature_map=np.zeros((1, 1, 1)),
                objectness_map=np.zeros((1, 1, 1)),
                roi_features=rois,
                roi_confidences=confs,
            )
            got = reweight([frame])[0]
            want = ref_reweight(rois.tolist(), confs.tolist())
            assert np.allclose(got, want, atol=1e-12)

    def test_empty_rois_need_configured_dim(self):
        frame = FrameRecord(
            id="f",
            domain=Domain.TARGET,
            feature_map=np.zeros((1, 1, 1)),
            objectness_map=np.zeros((1, 1, 1)),
            roi_features=np.zeros((0, 4)),
            roi_confidences=np.zeros(0),
        )
        assert np.array_equal(reweight([frame], roi_dim=6), np.zeros((1, 6)))
        with pytest.raises(ValueError):
            reweight([frame])

    def test_dim_mismatch_rejected(self):
        frame = FrameRecord(
            id="f",
            domain=Domain.TARGET,
            feature_map=np.zeros((1, 1, 1)),
            objectness_map=np.zeros((1, 1, 1)),
            roi_features=np.ones((2, 4)),
            roi_confidences=np.full(2, 0.5),
        )
        with pytest.raises(ValueError):
            reweight([frame], roi_dim=5)

    @pytest.mark.parametrize("rois, confs", [(np.ones((2, 4)), np.full(1, 0.5)),
                                             (np.ones(4), np.full(4, 0.5))])
    def test_inconsistent_rois_rejected(self, rois, confs):
        frame = FrameRecord(
            id="f",
            domain=Domain.TARGET,
            feature_map=np.zeros((1, 1, 1)),
            objectness_map=np.zeros((1, 1, 1)),
            roi_features=rois,
            roi_confidences=confs,
        )
        with pytest.raises(ValueError, match="inconsistent ROI features/confidences in 'f'"):
            reweight([frame], roi_dim=4)


# 1e-5 to 1e5 as literals: numpy's ``power`` may round them differently at
# another SIMD level
SCALES = np.array([1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3, 1e4, 1e5])


def roi_frames():
    """Target frames over ROI counts 0-6 and widths 1-33, float32 and float64,
    in a shuffled order, each its ROI count's and width's group more than once."""
    rng = np.random.default_rng(14)
    frames = []
    for n, (k, d, dtype) in enumerate(
        itertools.product(range(7), (1, 2, 3, 7, 8, 16, 17, 33), (np.float32, np.float64))
    ):
        for copy in range(3):
            frames.append(FrameRecord(
                id="f%03d-%d" % (n, copy),
                domain=Domain.TARGET,
                feature_map=np.zeros((1, 1, 1)),
                objectness_map=np.zeros((1, 1, 1)),
                roi_features=(rng.normal(size=(k, d)) * rng.choice(SCALES)).astype(dtype),
                roi_confidences=rng.uniform(size=k).astype(dtype),
            ))
    return [frames[i] for i in rng.permutation(len(frames))]


def check_pool_reweighting():
    """Assert that each width's pool re-weighting has the bytes of every frame's
    own ``confs @ rois`` product (a zero vector without ROIs)."""
    frames = roi_frames()
    for d in sorted({np.shape(f.roi_features)[1] for f in frames}):
        pool = [f for f in frames if np.shape(f.roi_features)[1] == d]
        got = reweight(pool, roi_dim=d)
        assert got.shape == (len(pool), d) and got.dtype == np.float64
        for row, f in zip(got, pool):
            rois = np.asarray(f.roi_features, dtype=np.float64)
            confs = np.asarray(f.roi_confidences, dtype=np.float64)
            want = confs @ rois if len(confs) else np.zeros(d)
            assert row.tobytes() == want.tobytes(), f.id
            assert reweight([f], roi_dim=d)[0].tobytes() == want.tobytes(), f.id


class TestReweightPool:
    def test_bytes_of_each_frames_product(self):
        check_pool_reweighting()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("roi_features", np.ones((2, 5)), "ROI dimension mismatch in 'f007'"),
            ("roi_features", np.ones(4), "inconsistent ROI features/confidences in 'f007'"),
            ("roi_confidences", np.ones((2, 1)), "inconsistent ROI features/confidences in 'f007'"),
            ("roi_confidences", np.ones(3), "inconsistent ROI features/confidences in 'f007'"),
        ],
    )
    def test_first_bad_frame_in_pool_order_raises(self, field, value, message):
        frames = [
            FrameRecord(
                id="f%03d" % k, domain=Domain.TARGET, feature_map=np.zeros((1, 1, 1)),
                objectness_map=np.zeros((1, 1, 1)), roi_features=np.ones((2, 4)),
                roi_confidences=np.full(2, 0.5),
            )
            for k in range(12)
        ]
        # two bad frames; the later one holds an error that a frame-by-frame
        # check would never reach
        frames[7] = replace(frames[7], **{field: value})
        frames[9] = replace(frames[9], roi_features=np.zeros((0, 4)), roi_confidences=np.zeros(0))
        with pytest.raises(ValueError, match=message):
            reweight(frames, roi_dim=4)
        with pytest.raises(ValueError, match="frame 'f009' has no ROIs"):
            reweight(frames[8:])
        assert reweight(frames[8:], roi_dim=4).shape == (4, 4)

    def test_malformed_frame_raises_before_a_non_finite_row(self):
        # every frame's checks run before the matrix's finiteness check, so a NaN
        # frame before a frame of the wrong ROI width names the width, in
        # sample_round and in the proxy detector alike
        _, target, _ = generate(SyntheticConfig(n_source=20, n_target=30, n_eval=5, seed=0))
        rois = np.array(target[3].roi_features)
        rois[0, 0] = np.nan
        target[3] = replace(target[3], roi_features=rois)
        model = DiscriminatorModel.initialize((16, 8, 1), seed=0)
        checks = [
            lambda: reweight(target, roi_dim=16),
            lambda: sample_round(target, model, 5, roi_dim=16),
            lambda: ProxyDetector(n_classes=3, roi_dim=16).pretrain(target),
        ]
        for check in checks:
            with pytest.raises(ValueError, match="^frame t00003 has a non-finite ROI vector$"):
                check()
        target[6] = replace(target[6], roi_features=target[6].roi_features[:, :15])
        for check in checks:
            with pytest.raises(ValueError, match="^ROI dimension mismatch in 't00006'$"):
                check()


# every width at which numpy's pairwise sum changes its order: the sequential sum
# below 8 terms, one to two blocks of 8, the 128-term block and its split
LANE_DIMS = list(range(1, 10)) + [15, 16, 17, 127, 128, 129, 255, 256, 257]


def lane_cases():
    """(rows, vecs) for every width in ``LANE_DIMS``: zero rows, rows below the
    norm floor, identical rows and magnitudes from 1e-5 to 1e5."""
    rng = np.random.default_rng(15)
    for d in LANE_DIMS:
        rows = rng.normal(size=(12, d)) * rng.choice(SCALES, size=(12, 1))
        vecs = rng.normal(size=(7, d)) * rng.choice(SCALES, size=(7, 1))
        rows[1] = vecs[2] = 0.0
        rows[2] = -1e-13 / np.sqrt(d)
        vecs[3] = 1e-14 / np.sqrt(d)
        rows[[5, 8]] = rows[4]
        vecs[4] = rows[4]
        # every product with the zero row is -0.0: the sum must still be +0.0
        vecs[5] = -np.abs(vecs[5])
        yield rows, vecs


def plain_cosines(rows, vecs):
    """The per-row cosines in their plainest form: products summed by ``sum``."""
    norms, own = _norms(vecs), _norms(rows)
    sims = np.zeros((len(vecs), len(rows)))
    np.divide((vecs[:, None, :] * rows).sum(axis=-1), norms[:, None] * own, out=sims,
              where=~(norms < NORM_FLOOR)[:, None] & ~(own < NORM_FLOOR))
    return sims


def lane_kernel_digest() -> str:
    """sha256 of the bank kernel's cosines over ``lane_cases``, after asserting
    that the kernel and its sum have the bytes of their plain forms."""
    h = hashlib.sha256()
    for rows, vecs in lane_cases():
        order = _lane_order(rows.shape[1])
        products = vecs.T[order][:, :, None] * rows.T[order][:, None, :]
        sums = _lane_sum(products)
        assert sums.tobytes() == (vecs[:, None, :] * rows).sum(axis=-1).tobytes(), rows.shape
        sims = _Prototypes(rows, _norms(rows)).cosine_rows(vecs, _norms(vecs))
        assert sims.tobytes() == plain_cosines(rows, vecs).tobytes(), rows.shape
        h.update(sims.tobytes())
    return h.hexdigest()


class TestLaneKernel:
    def test_bytes_of_the_plain_sum(self):
        lane_kernel_digest()

    def test_lane_order(self):
        assert _lane_order(7).tolist() == list(range(7))
        assert _lane_order(17).tolist() == [0, 4, 2, 6, 1, 5, 3, 7, 8, 12, 10, 14, 9, 13, 11, 15, 16]

    def test_identical_rows_and_the_norm_floor(self):
        for rows, vecs in lane_cases():
            sims = _Prototypes(rows, _norms(rows)).cosine_rows(vecs, _norms(vecs))
            assert not sims[:, [1, 2]].any() and not sims[[2, 3]].any()
            assert (sims[:, 4] == sims[:, 5]).all() and (sims[:, 4] == sims[:, 8]).all()
            assert sims[4, 4] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "env",
        [{"OPENBLAS_CORETYPE": "Haswell"},
         {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}],
        ids=["haswell-blas", "no-avx512"],
    )
    def test_bytes_hold_under_another_cpu(self, env):
        # the kernel's cosines keep their bytes under another BLAS kernel and
        # without numpy's AVX-512 paths; the pool re-weighting is a BLAS gemv, so
        # it only keeps the bytes of each frame's own product in that process
        root = Path(__file__).resolve().parents[1]
        code = ("from tests.test_target_sampler import check_pool_reweighting, lane_kernel_digest;"
                "check_pool_reweighting(); print(lane_kernel_digest())")
        run = subprocess.run(
            [sys.executable, "-c", code], cwd=root, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]), **env),
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == [lane_kernel_digest()]


class TestCosine:
    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            u, v = rng.normal(size=(2, 5))
            assert cosine(u, v) == pytest.approx(
                ref_cosine(u.tolist(), v.tolist()), abs=1e-12
            )

    def test_zero_norm_scores_zero(self):
        assert cosine(np.zeros(4), np.ones(4)) == 0.0
        assert cosine(np.full(4, 1e-13), np.ones(4)) == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            u, v = rng.normal(size=(2, 3))
            assert -1.0 - 1e-12 <= cosine(u, v) <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.ones(3), np.ones(4))


class TestMerge:
    def test_count_weighted_mean(self):
        a = SimilarityBank(np.array([1.0, 0.0]), ["a", "b", "c"])
        b = SimilarityBank(np.array([0.0, 1.0]), ["d"])
        m = merge_banks(a, b)
        assert np.allclose(m.prototype, [0.75, 0.25])
        assert m.members == ["a", "b", "c", "d"]

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="prototype dimension mismatch"):
            merge_banks(SimilarityBank(np.ones(2), ["a"]), SimilarityBank(np.ones(3), ["b"]))

    def test_merge_sequence_preserves_founder_mean(self):
        # any merge order over singleton banks must leave the prototype at
        # the plain mean of its founding vectors
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 12))
            vecs = rng.normal(size=(n, 4))
            banks = [
                SimilarityBank(vecs[i].copy(), ["f%d" % i]) for i in range(n)
            ]
            while len(banks) > 1:
                i, j = sorted(rng.choice(len(banks), size=2, replace=False))
                merged = merge_banks(banks[i], banks[j])
                banks = [b for k, b in enumerate(banks) if k not in (i, j)]
                banks.append(merged)
            founders = sorted(int(m[1:]) for m in banks[0].members)
            assert founders == list(range(n))
            assert np.allclose(banks[0].prototype, vecs.mean(axis=0), atol=1e-9)


class TestBuildBanksOracle:
    def test_exhaustive_small_instances(self):
        # every vector sequence over a fixed 3-value grid, up to 5 frames,
        # checked against the line-by-line transcription oracle; with
        # descending ids a join can lower a bank's smallest member and change
        # which tied pair a later merge takes
        grid = [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
        for n in range(1, 6):
            for combo in itertools.product(grid, repeat=n):
                for ids in (sorted, lambda ids: sorted(ids, reverse=True)):
                    names = ids("f%04d" % k for k in range(n))
                    for cap in (1, 2, 3):
                        for compare in ("min", "max"):
                            got = build_banks(np.array(combo), names, cap,
                                              BankConfig(pairwise_compare=compare))
                            want = ref_build_banks(
                                list(combo), names, cap, pairwise_compare=compare,
                            )
                            assert_same_banks(got, want)

    def test_random_instances_all_variants(self):
        rng = np.random.default_rng(4)
        for trial in range(300):
            n = int(rng.integers(1, 12))
            d = int(rng.integers(1, 4))
            vecs = rng.normal(size=(n, d))
            if trial % 3 == 0:  # sprinkle exact duplicates to exercise ties
                vecs[rng.integers(n)] = vecs[rng.integers(n)]
            rois, ids = rois_from(vecs)
            cap = int(rng.integers(1, 5))
            cfg = BankConfig(
                update_prototype_on_join=bool(trial % 2),
                pairwise_compare="max" if trial % 5 == 0 else "min",
            )
            got = build_banks(rois, ids, cap, config=cfg)
            want = ref_build_banks(
                vecs.tolist(),
                ids,
                cap,
                update_on_join=cfg.update_prototype_on_join,
                pairwise_compare=cfg.pairwise_compare,
            )
            assert_same_banks(got, want)

    @pytest.mark.parametrize("update", [False, True])
    @pytest.mark.parametrize("compare", ["min", "max"])
    def test_large_cap_instances(self, compare, update):
        # caps of 20-60 at d=16, with exact duplicate rows and all-zero
        # vectors scattered through the stream and shuffled ids
        rng = np.random.default_rng([9, update, compare == "max"])
        cfg = BankConfig(update_prototype_on_join=update, pairwise_compare=compare)
        for _ in range(2):
            n, cap = int(rng.integers(200, 401)), int(rng.integers(20, 61))
            vecs = rng.normal(size=(n, 16))
            for k in rng.integers(n, size=n // 10):
                vecs[k] = vecs[rng.integers(n)]
            vecs[rng.integers(n, size=n // 20)] = 0.0
            ids = ["f%04d" % i for i in rng.permutation(n)]
            got = build_banks(vecs, ids, cap, config=cfg)
            want = ref_build_banks(
                vecs.tolist(), ids, cap, update_on_join=update, pairwise_compare=compare
            )
            assert_same_banks(got, want)

    def test_identical_rows_score_bit_equal(self):
        # a tie between identical prototypes must not depend on where they sit
        rng = np.random.default_rng(10)
        for _ in range(50):
            cap = int(rng.integers(3, 80))
            rows = rng.normal(size=(cap, 16)) * rng.uniform(1e-3, 1e3)
            at = rng.choice(cap, size=3, replace=False)
            rows[at] = rows[at[0]]
            protos = _Prototypes(rows, _norms(rows))
            sims = cosines(protos, rng.normal(size=16))
            assert sims[at[0]] == sims[at[1]] == sims[at[2]]
            pairs = protos.pairs
            assert np.array_equal(pairs, pairs.T)
            others = np.setdiff1d(np.arange(cap), at)
            assert np.array_equal(pairs[at[0], others], pairs[at[1], others])
            assert np.array_equal(pairs[at[0], others], pairs[at[2], others])

    def test_block_kernel_matches_single_rows(self):
        # every block size up to the largest gives each row the bytes of its
        # one-row pass, with zero rows, rows below the norm floor and identical
        # rows among both the prototypes and the stream
        rng = np.random.default_rng(11)
        cap, d = 40, 16
        rows = rng.normal(size=(cap, d))
        rows[[3, 17, 31]] = rows[8]
        rows[5] = 0.0
        rows[9] *= 1e-14
        protos = _Prototypes(rows, _norms(rows))
        for k in range(cap):
            assert protos.pairs[k].tobytes() == cosines(protos, rows[k]).tobytes()
        most = _block_rows(cap, d)
        vecs = rng.normal(size=(most, d))
        vecs[[0, 7, most - 1]] = rows[8]
        vecs[2] = 0.0
        vecs[4] *= 1e-14
        single = np.stack([cosines(protos, v) for v in vecs])
        assert not single[2].any() and not single[4].any() and not single[:, [5, 9]].any()
        assert (single[:, 3] == single[:, 8]).all() and (single[:, 31] == single[:, 8]).all()
        for size in range(1, most + 1):
            for lo in {0, most - size}:
                block = protos.cosine_rows(vecs[lo : lo + size], _norms(vecs[lo : lo + size]))
                assert block.tobytes() == single[lo : lo + size].tobytes(), (size, lo)

    @pytest.mark.parametrize("compare", ["min", "max"])
    def test_merge_at_each_block_position(self, compare):
        # two founders at e0 (pair cosine 1): copies of e0 join and e1 merges;
        # then -(e0 + e1) merges again while copies of e0 and e1 join. The
        # first merge falls on every row of the first blocks past the fill
        # (its first and last rows, and the rows after it doubled), the second
        # on the first row of the restarted block, or inside it
        e0, e1 = np.eye(16)[:2]
        for first in range(8 * _BLOCK_START):
            for gap in (None, 1, _BLOCK_START - 1, _BLOCK_START + 1):
                stream = [e0] * (2 + first) + [e1] + [(e0, e1)[k % 2] for k in range(30)]
                if gap:
                    stream[2 + first + gap] = -(e0 + e1)
                rois, ids = rois_from(stream)
                got = build_banks(rois, ids, 2, BankConfig(pairwise_compare=compare))
                want = ref_build_banks(stream, ids, 2, pairwise_compare=compare)
                assert_same_banks(got, want)
                last = 2 + first + (gap or 0)
                assert got.banks[-1].members[0] == "f%04d" % last

    @pytest.mark.parametrize("compare", ["min", "max"])
    def test_long_stream_without_merges(self, compare):
        # every frame lies next to a founder, so none merges and the blocks
        # grow to their largest; each frame joins the bank its own one-row
        # pass picks
        rng = np.random.default_rng([12, compare == "max"])
        cap, d = 120, 16
        founders = rng.normal(size=(cap, d))
        picks = rng.integers(cap, size=12 * cap)
        stream = np.vstack([founders, founders[picks] + 1e-3 * rng.normal(size=(len(picks), d))])
        got = build_banks(*rois_from(stream), cap, BankConfig(pairwise_compare=compare))
        protos = _Prototypes(founders, _norms(founders))
        want = [["f%04d" % k] for k in range(cap)]
        for k, v in enumerate(stream[cap:], start=cap):
            want[int(np.argmax(cosines(protos, v)))].append("f%04d" % k)
        assert [b.members for b in got.banks] == want
        assert all(np.array_equal(b.prototype, f) for b, f in zip(got.banks, founders))

    @pytest.mark.parametrize(
        "rois, message",
        [
            (np.ones(3), r"ROI vectors must form an \(n, d\) matrix, got shape \(3,\)"),
            (np.ones((3, 1, 2)),
             r"ROI vectors must form an \(n, d\) matrix, got shape \(3, 1, 2\)"),
            (np.array([[1.0, 0.0], [np.nan, 1.0], [0.0, np.inf]]),
             "^frame f0001 has a non-finite ROI vector$"),
        ],
        ids=["one-dim", "three-dim", "nan-row-in-fill"],
    )
    def test_first_bad_vector_names_the_error(self, rois, message):
        # the matrix is checked whole, also inside the fill phase, where no
        # similarity is computed yet
        with pytest.raises(ValueError, match=message):
            build_banks(rois, ["f%04d" % k for k in range(3)], 5)

    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_dimension_mismatch_rejected(self, cap):
        # one row per id, also inside the fill phase
        rois, ids = rois_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
        with pytest.raises(ValueError, match="^3 ROI rows for 2 ids$"):
            build_banks(rois, ids[:2], cap)
        with pytest.raises(ValueError, match="^2 ROI rows for 3 ids$"):
            build_banks(rois[:2], ids, cap)

    def test_capacity_one(self):
        banks = build_banks(*rois_from(np.random.default_rng(5).normal(size=(6, 3))), 1)
        assert len(banks.banks) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            build_banks(np.empty((0, 3)), [], 0)


class TestContracts:
    def test_bank_count_and_partition_fuzz(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(0, 25))
            vecs = rng.normal(size=(n, 3))
            rois, ids = rois_from(vecs)
            cap = int(rng.integers(1, 7))
            banks = build_banks(rois, ids, cap)
            assert len(banks.banks) <= cap
            members = [m for b in banks.banks for m in b.members]
            assert sorted(members) == ids
            assert len(set(members)) == len(members)

    def test_selection_size_is_min_of_budget_and_pool(self):
        rng = np.random.default_rng(7)
        model = DiscriminatorModel.initialize((2, 4, 1), seed=0)
        for _ in range(30):
            n = int(rng.integers(0, 10))
            budget = int(rng.integers(1, 8))
            frames = [
                FrameRecord(
                    id="t%03d" % i,
                    domain=Domain.TARGET,
                    feature_map=rng.normal(size=(2, 2, 2)),
                    objectness_map=rng.uniform(size=(1, 2, 2)),
                    roi_features=rng.normal(size=(2, 3)),
                    roi_confidences=rng.uniform(size=2),
                )
                for i in range(n)
            ]
            sel = sample_round(frames, model, budget, roi_dim=3)
            assert len(sel) == min(budget, n)
            assert len(set(sel)) == len(sel)

    def test_select_targets_matches_oracle(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            n = int(rng.integers(1, 15))
            vecs = rng.normal(size=(n, 3))
            rois, ids = rois_from(vecs)
            cap = int(rng.integers(1, 5))
            banks = build_banks(rois, ids, cap)
            scores = {i: float(rng.uniform()) for i in ids}
            # force some score ties
            if n > 2:
                scores[ids[0]] = scores[ids[-1]]
            got = select_targets(banks, scores)
            want = ref_select_targets(
                [(b.prototype, b.members) for b in banks.banks], scores
            )
            assert got == want

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_build_banks_names_the_first_non_finite_vector(self, value):
        vecs = np.random.default_rng(9).normal(size=(8, 3))
        vecs[5, 1] = vecs[6, 0] = value
        with pytest.raises(ValueError, match="frame f0005 has a non-finite ROI vector"):
            build_banks(*rois_from(vecs), 3)

    def test_select_targets_missing_score(self):
        banks = build_banks(*rois_from([(1.0, 0.0)]), 1)
        with pytest.raises(KeyError):
            select_targets(banks, {})

    @pytest.mark.parametrize("pool", ["renamed", "same-object"])
    def test_sample_round_rejects_a_repeated_id(self, pool):
        # the scores are keyed by id, so two frames with one id would both be
        # banked under one score and could both be picked
        _, tgt, _ = generate(SyntheticConfig(n_source=20, n_target=30, n_eval=5, seed=0))
        model = DiscriminatorModel.initialize((16, 8, 1), seed=0)
        frames, budget = {
            "renamed": (tgt[:10] + [replace(tgt[11], id="t00000")], 10),
            "same-object": (tgt[:5] + [tgt[0]], 6),
        }[pool]
        with pytest.raises(ValueError, match=r"frame ids must be unique in the target pool; "
                                             r"repeated: \['t00000'\]"):
            sample_round(frames, model, budget)

    def test_sample_round_rejects_source_frames(self):
        model = DiscriminatorModel.initialize((2, 4, 1), seed=0)
        frame = FrameRecord(
            id="s0",
            domain=Domain.SOURCE,
            feature_map=np.zeros((2, 2, 2)),
            objectness_map=np.zeros((1, 2, 2)),
            roi_features=np.ones((1, 3)),
            roi_confidences=np.array([0.5]),
        )
        with pytest.raises(ValueError):
            sample_round([frame], model, 1)
