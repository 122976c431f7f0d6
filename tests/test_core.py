import numpy as np
import pytest

from bidal import (
    BudgetSchedule,
    Domain,
    FrameRecord,
    validate_frame,
)


def make_frame(fid="f0", domain=Domain.SOURCE, C=3, H=2, W=2, k=2, d=4, **kw):
    rng = np.random.default_rng(0)
    defaults = dict(
        id=fid,
        domain=domain,
        feature_map=rng.normal(size=(C, H, W)),
        objectness_map=rng.uniform(size=(1, H, W)),
        roi_features=rng.normal(size=(k, d)),
        roi_confidences=rng.uniform(size=k),
        hidden_label=None,
    )
    defaults.update(kw)
    return FrameRecord(**defaults)


class TestValidateFrame:
    def test_valid_frame_has_no_errors(self):
        assert validate_frame(make_frame()) == []

    def test_zero_rois_is_valid(self):
        frame = make_frame(
            roi_features=np.zeros((0, 4)), roi_confidences=np.zeros(0)
        )
        assert validate_frame(frame) == []

    def test_objectness_out_of_range(self):
        frame = make_frame(objectness_map=np.full((1, 2, 2), 1.5))
        assert any("objectness" in e for e in validate_frame(frame))

    def test_negative_objectness(self):
        frame = make_frame(objectness_map=np.full((1, 2, 2), -0.1))
        assert any("objectness" in e for e in validate_frame(frame))

    def test_roi_length_mismatch(self):
        frame = make_frame(roi_confidences=np.array([0.5]))  # 2 rois, 1 conf
        assert any("mismatch" in e for e in validate_frame(frame))

    def test_roi_confidence_out_of_range(self):
        frame = make_frame(roi_confidences=np.array([0.5, 1.5]))
        assert any("confidence" in e for e in validate_frame(frame))

    def test_spatial_shape_disagreement(self):
        frame = make_frame(objectness_map=np.random.uniform(size=(1, 3, 3)))
        assert any("spatial" in e for e in validate_frame(frame))

    @pytest.mark.parametrize(
        "field", ["feature_map", "objectness_map", "roi_features", "roi_confidences"]
    )
    def test_non_finite_values(self, field):
        # NaN fails every comparison, so a min/max range check would let it through
        values = np.array(getattr(make_frame(), field), dtype=float)
        values.flat[0] = np.nan
        frame = make_frame(**{field: values})
        assert validate_frame(frame) != []

    def test_empty_id(self):
        frame = make_frame(fid="")
        assert any("id" in e for e in validate_frame(frame))

    def test_wrong_feature_rank(self):
        frame = make_frame(feature_map=np.zeros((2, 2)))
        assert any("feature_map" in e for e in validate_frame(frame))


class TestBudgetSchedule:
    def test_basic_construction(self):
        s = BudgetSchedule(2, (18, 18), (0, 5))
        assert s.total_budget == 36

    def test_budget_sum_property(self):
        s = BudgetSchedule(5, (37,) * 5, (0, 2, 4, 6, 8))
        assert s.total_budget == 185

    def test_trigger_epochs_must_increase(self):
        with pytest.raises(ValueError):
            BudgetSchedule(2, (1, 1), (5, 5))
        with pytest.raises(ValueError):
            BudgetSchedule(2, (1, 1), (5, 0))

    def test_budgets_must_be_positive(self):
        with pytest.raises(ValueError):
            BudgetSchedule(2, (1, 0), (0, 5))

    def test_lengths_must_match_rounds(self):
        with pytest.raises(ValueError):
            BudgetSchedule(3, (1, 1), (0, 5))

    @pytest.mark.parametrize(
        "per_round, epochs",
        [((1.5, 2), (0, 5)), ((1, 2), (0, 5.0)), ((True, 2), (0, 5))],
    )
    def test_non_integral_values_rejected(self, per_round, epochs):
        with pytest.raises(ValueError, match="must hold integers"):
            BudgetSchedule(2, per_round, epochs)

    def test_numpy_integers_accepted(self):
        s = BudgetSchedule(2, np.array([3, 4]), (np.int32(0), 5))
        assert s.per_round == (3, 4) and s.trigger_epochs == (0, 5)
        assert all(type(v) is int for v in s.per_round + s.trigger_epochs)
        with pytest.raises(ValueError):
            BudgetSchedule(2, (1, 1), (0, 5, 9))

    def test_equal_split_exact(self):
        s = BudgetSchedule.equal_split(10, 5, (0, 2, 4, 6, 8))
        assert s.per_round == (2, 2, 2, 2, 2)

    def test_equal_split_remainder_goes_to_early_rounds(self):
        s = BudgetSchedule.equal_split(11, 5, (0, 2, 4, 6, 8))
        assert s.per_round == (3, 2, 2, 2, 2)
        assert s.total_budget == 11

    def test_equal_split_too_small(self):
        with pytest.raises(ValueError):
            BudgetSchedule.equal_split(2, 5, (0, 2, 4, 6, 8))

    def test_zero_rounds_schedule(self):
        s = BudgetSchedule(0, (), ())
        assert s.total_budget == 0
