import itertools

import numpy as np
import pytest

from bidal import (
    BankConfig,
    DiscriminatorModel,
    Domain,
    FrameRecord,
    ReweightedROI,
    build_banks,
    reweight,
    sample_round,
    select_targets,
)
from bidal.target_sampler import (
    _BLOCK_START,
    SimilarityBank,
    _block_rows,
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
    return [
        ReweightedROI("f%04d" % i, np.asarray(v, dtype=float))
        for i, v in enumerate(vectors)
    ]


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
            got = reweight(frame).vector
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
        assert np.array_equal(reweight(frame, roi_dim=6).vector, np.zeros(6))
        with pytest.raises(ValueError):
            reweight(frame)

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
            reweight(frame, roi_dim=5)


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
                    rois = [
                        ReweightedROI(i, np.asarray(v))
                        for i, v in zip(ids("f%04d" % k for k in range(n)), combo)
                    ]
                    for cap in (1, 2, 3):
                        for compare in ("min", "max"):
                            got = build_banks(rois, cap, BankConfig(pairwise_compare=compare))
                            want = ref_build_banks(
                                list(combo), [r.frame_id for r in rois], cap,
                                pairwise_compare=compare,
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
            rois = rois_from(vecs)
            cap = int(rng.integers(1, 5))
            cfg = BankConfig(
                update_prototype_on_join=bool(trial % 2),
                pairwise_compare="max" if trial % 5 == 0 else "min",
            )
            got = build_banks(rois, cap, config=cfg)
            want = ref_build_banks(
                vecs.tolist(),
                [r.frame_id for r in rois],
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
            got = build_banks(
                [ReweightedROI(i, v) for i, v in zip(ids, vecs)], cap, config=cfg
            )
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
            sims = protos.cosines(rng.normal(size=16))
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
            assert protos.pairs[k].tobytes() == protos.cosines(rows[k]).tobytes()
        most = _block_rows(cap, d)
        vecs = rng.normal(size=(most, d))
        vecs[[0, 7, most - 1]] = rows[8]
        vecs[2] = 0.0
        vecs[4] *= 1e-14
        single = np.stack([protos.cosines(v) for v in vecs])
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
                rois = rois_from(stream)
                got = build_banks(rois, 2, BankConfig(pairwise_compare=compare))
                want = ref_build_banks(
                    stream, [r.frame_id for r in rois], 2, pairwise_compare=compare
                )
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
        rois = rois_from(stream)
        got = build_banks(rois, cap, BankConfig(pairwise_compare=compare))
        protos = _Prototypes(founders, _norms(founders))
        want = [["f%04d" % k] for k in range(cap)]
        for k, v in enumerate(stream[cap:], start=cap):
            want[int(np.argmax(protos.cosines(v)))].append("f%04d" % k)
        assert [b.members for b in got.banks] == want
        assert all(np.array_equal(b.prototype, f) for b, f in zip(got.banks, founders))

    @pytest.mark.parametrize(
        "vectors, message",
        [
            ([np.ones((2, 3)), np.ones(4)], "ROI vectors must be one-dimensional"),
            ([np.ones(3), np.ones((1, 3)), np.ones(4)], "dimension mismatch"),
            ([np.ones(3)] * 8 + [np.ones(4)], "dimension mismatch"),
        ],
        ids=["first-2d", "later-2d", "later-width-past-fill"],
    )
    def test_first_bad_vector_names_the_error(self, vectors, message):
        with pytest.raises(ValueError, match=message):
            build_banks([ReweightedROI("f%d" % k, v) for k, v in enumerate(vectors)], 2)

    @pytest.mark.parametrize("cap", [1, 2, 5])
    def test_dimension_mismatch_rejected(self, cap):
        # also inside the fill phase, where no similarity is computed yet
        rois = rois_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]) + [
            ReweightedROI("f9999", np.ones(4))
        ]
        with pytest.raises(ValueError, match="dimension mismatch"):
            build_banks(rois, cap)

    def test_capacity_one(self):
        rois = rois_from(np.random.default_rng(5).normal(size=(6, 3)))
        banks = build_banks(rois, 1)
        assert len(banks.banks) == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            build_banks([], 0)


class TestContracts:
    def test_bank_count_and_partition_fuzz(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            n = int(rng.integers(0, 25))
            vecs = rng.normal(size=(n, 3))
            rois = rois_from(vecs)
            cap = int(rng.integers(1, 7))
            banks = build_banks(rois, cap)
            assert len(banks.banks) <= cap
            members = [m for b in banks.banks for m in b.members]
            assert sorted(members) == sorted(r.frame_id for r in rois)
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
            rois = rois_from(vecs)
            cap = int(rng.integers(1, 5))
            banks = build_banks(rois, cap)
            scores = {r.frame_id: float(rng.uniform()) for r in rois}
            # force some score ties
            ids = [r.frame_id for r in rois]
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
            build_banks(rois_from(vecs), 3)

    def test_select_targets_missing_score(self):
        banks = build_banks(rois_from([(1.0, 0.0)]), 1)
        with pytest.raises(KeyError):
            select_targets(banks, {})

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
