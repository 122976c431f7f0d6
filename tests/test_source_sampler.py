import math

import numpy as np
import pytest

from bidal import (
    DiscriminatorModel,
    Domain,
    FrameRecord,
    Proportion,
    Score,
    Threshold,
    TopK,
    score_source,
    select_source,
)

from .reference import ref_rank_ids


def make_scores(rng, n):
    return [Score("f%04d" % i, float(rng.uniform())) for i in range(n)]


class TestModes:
    def test_proportion_bounds(self):
        with pytest.raises(ValueError):
            Proportion(0.0)
        with pytest.raises(ValueError):
            Proportion(1.5)
        Proportion(1.0)

    def test_topk_bounds(self):
        with pytest.raises(ValueError):
            TopK(0)
        TopK(1)


class TestSelectSource:
    def test_matches_brute_force_ranking(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            scores = make_scores(rng, int(rng.integers(1, 40)))
            k = int(rng.integers(1, len(scores) + 1))
            got = select_source(scores, TopK(k))
            want = ref_rank_ids([(s.frame_id, s.value) for s in scores])[:k]
            assert got == want

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        scores = make_scores(rng, 30)
        base = select_source(scores, Proportion(0.4))
        for _ in range(20):
            shuffled = [scores[i] for i in rng.permutation(len(scores))]
            assert select_source(shuffled, Proportion(0.4)) == base

    def test_threshold_zero_is_half(self):
        scores = [
            Score("lo", 0.49),
            Score("mid", 0.5),
            Score("hi", 0.51),
            Score("top", 0.99),
        ]
        got = select_source(scores, Threshold(0.0))
        assert got == ["top", "hi"]
        assert set(got) == {s.frame_id for s in scores if s.value > 0.5}

    def test_threshold_general(self):
        scores = [Score("a", 0.9), Score("b", 0.6), Score("c", 0.2)]
        cut = math.log(0.7 / 0.3)
        assert select_source(scores, Threshold(cut)) == ["a"]

    def test_proportion_rounds_up(self):
        rng = np.random.default_rng(2)
        scores = make_scores(rng, 10)
        assert len(select_source(scores, Proportion(0.25))) == 3  # ceil(2.5)

    def test_topk_clips_to_population(self):
        rng = np.random.default_rng(3)
        scores = make_scores(rng, 5)
        assert len(select_source(scores, TopK(50))) == 5

    def test_ties_break_by_id(self):
        scores = [Score("z", 0.7), Score("a", 0.7), Score("m", 0.7)]
        assert select_source(scores, TopK(2)) == ["a", "m"]

    def test_empty_scores(self):
        assert select_source([], Threshold(0.0)) == []
        with pytest.raises(ValueError):
            select_source([], Proportion(0.5))
        with pytest.raises(ValueError):
            select_source([], TopK(1))

    def test_unknown_mode_rejected(self):
        with pytest.raises(TypeError, match="unknown selection mode: 'top3'"):
            select_source([Score("a", 0.5)], "top3")


class TestScoreSource:
    def make_frame(self, fid, domain, fill):
        return FrameRecord(
            id=fid,
            domain=domain,
            feature_map=np.full((3, 2, 2), fill),
            objectness_map=np.full((1, 2, 2), 0.5),
            roi_features=np.zeros((0, 4)),
            roi_confidences=np.zeros(0),
        )

    def test_order_aligned_scores(self):
        model = DiscriminatorModel.initialize((3, 4, 1), seed=0)
        frames = [
            self.make_frame("f%d" % i, Domain.SOURCE, float(i)) for i in range(4)
        ]
        scores = score_source(frames, model)
        assert [s.frame_id for s in scores] == [f.id for f in frames]
        assert all(0.0 < s.value < 1.0 for s in scores)

    def test_rejects_target_frames(self):
        model = DiscriminatorModel.initialize((3, 4, 1), seed=0)
        frames = [self.make_frame("t0", Domain.TARGET, 1.0)]
        with pytest.raises(ValueError):
            score_source(frames, model)
