import numpy as np
import pytest

from lusk.evaluate import (evaluate, landmark_distance, pleura_accuracy, temporal_jitter,
                           write_frame_csv, write_report)
from lusk.synth import GroundTruth
from oracles import read_report


def kp(*frames):
    """Build a (T, k, 2) array from per-frame lists of (row, col)."""
    return np.array(frames, dtype=np.float64)


class TestPleuraAccuracy:
    def test_all_correct(self):
        pts = kp([(10.0, 5.0), (50.0, 5.0)], [(12.0, 9.0), (40.0, 1.0)])
        correct, total, acc = pleura_accuracy(pts, [10.0, 11.0], delta=5.0)
        assert (correct, total, acc) == (2, 2, 1.0)

    def test_none_correct(self):
        pts = kp([(30.0, 5.0)], [(30.0, 5.0)])
        correct, total, acc = pleura_accuracy(pts, [10.0, 11.0], delta=5.0)
        assert (correct, total, acc) == (0, 2, 0.0)

    def test_boundary_inclusive(self):
        pts = kp([(15.0, 0.0)])
        _, _, acc = pleura_accuracy(pts, [10.0], delta=5.0)
        assert acc == 1.0

    def test_column_ignored(self):
        pts = kp([(10.0, 500.0)])
        _, _, acc = pleura_accuracy(pts, [10.0], delta=5.0)
        assert acc == 1.0

    def test_reported_ratio_arithmetic(self):
        _, _, acc = pleura_accuracy(
            kp(*([[(0.0, 0.0)]] * 1081)),
            [0.0] * 950 + [100.0] * 131, delta=5.0)
        assert acc == pytest.approx(950 / 1081)

    def test_slot_permutation_invariant(self):
        pts = kp([(10.0, 1.0), (40.0, 2.0), (25.0, 3.0)])
        perm = pts[:, [2, 0, 1], :]
        rows = [11.0]
        assert pleura_accuracy(pts, rows, 5.0) == pleura_accuracy(perm, rows, 5.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="1 keypoint sets vs 2"):
            pleura_accuracy(kp([(0.0, 0.0)]), [1.0, 2.0], 5.0)

    def test_bad_delta(self):
        for delta in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="delta"):
                pleura_accuracy(kp([(0.0, 0.0)]), [1.0], delta)

    def test_delta_monotonicity(self):
        pts = kp([(13.0, 0.0)], [(18.0, 0.0)], [(30.0, 0.0)])
        rows = [10.0, 10.0, 10.0]
        accs = [pleura_accuracy(pts, rows, d)[2] for d in (1.0, 4.0, 9.0, 25.0)]
        assert accs == sorted(accs)


class TestLandmarkDistance:
    def truth3(self):
        return GroundTruth(
            pleura_rows=[10.0, 11.0, 12.0],
            a_line_rows=[[20.0, 30.0], [22.0], []],
            b_line_cols=[[40.0], [41.0], [42.0]])

    def test_hand_enumerated_oracle(self):
        pts = kp([(10.0, 40.0), (21.0, 5.0)],
                 [(15.0, 39.0), (25.0, 5.0)],
                 [(12.0, 50.0), (60.0, 5.0)])
        # nearest row distances to pleura: 0, 4, 0
        # a-lines: |21-20|=1, |21-30|=9 (frame 0); |25-22|=3 (frame 1)
        # b-cols: |40-40|=0, |39-41|=2, |50-42|=8
        out = landmark_distance(pts, self.truth3())
        assert out["pleura"]["mean"] == pytest.approx((0 + 4 + 0) / 3)
        assert out["pleura"]["median"] == 0.0
        assert out["a_line"]["mean"] == pytest.approx((1 + 9 + 3) / 3)
        assert out["a_line"]["median"] == 3.0
        assert out["b_line"]["mean"] == pytest.approx((0 + 2 + 8) / 3)
        assert out["b_line"]["median"] == 2.0

    def test_empty_truth_group_is_nan(self):
        truth = GroundTruth(pleura_rows=[10.0], a_line_rows=[[]], b_line_cols=[[]])
        out = landmark_distance(kp([(10.0, 0.0)]), truth)
        assert np.isnan(out["a_line"]["mean"])
        assert out["pleura"]["mean"] == 0.0

    def test_slot_permutation_invariant(self):
        pts = kp([(10.0, 40.0), (21.0, 5.0)],
                 [(15.0, 39.0), (25.0, 5.0)],
                 [(12.0, 50.0), (60.0, 5.0)])
        perm = pts[:, ::-1, :]
        assert landmark_distance(pts, self.truth3()) == \
            landmark_distance(perm, self.truth3())


class TestTemporalJitter:
    def test_static_keypoints_zero(self):
        pts = kp(*[[(10.0, 20.0), (30.0, 40.0)]] * 5)
        assert np.array_equal(temporal_jitter(pts), [0.0, 0.0])

    def test_unit_steps(self):
        pts = kp([(0.0, 0.0)], [(1.0, 0.0)], [(2.0, 0.0)])
        assert np.allclose(temporal_jitter(pts), [1.0])

    def test_pythagorean_step(self):
        pts = kp([(0.0, 0.0)], [(3.0, 4.0)])
        assert np.allclose(temporal_jitter(pts), [5.0])

    def test_not_permutation_invariant(self):
        # swapping slots between frames creates apparent motion
        pts = kp([(0.0, 0.0), (10.0, 10.0)], [(10.0, 10.0), (0.0, 0.0)])
        assert temporal_jitter(pts).min() > 0.0

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError, match="2 frames"):
            temporal_jitter(kp([(0.0, 0.0)]))


class TestReport:
    def test_evaluate_round_trip(self, tmp_path):
        truth = GroundTruth(pleura_rows=[10.0, 11.0],
                            a_line_rows=[[20.0], [21.0]],
                            b_line_cols=[[40.0], [40.5]])
        pts = kp([(10.0, 40.0), (20.5, 3.0)], [(13.0, 41.0), (22.0, 3.0)])
        report = evaluate(pts, truth, delta=5.0)
        assert report.frames_total == 2
        assert report.pleura_accuracy == 1.0
        path = tmp_path / "report.txt"
        write_report(path, report)
        loaded = read_report(path)
        assert loaded.frames_total == report.frames_total
        assert loaded.pleura_accuracy == report.pleura_accuracy
        assert loaded.jitter == pytest.approx(report.jitter)
        assert loaded.b_line_mean_dist == pytest.approx(report.b_line_mean_dist)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_text("bogus=1\n")
        with pytest.raises(ValueError, match="bogus"):
            read_report(path)

    def test_frame_csv(self, tmp_path):
        truth = GroundTruth(pleura_rows=[10.0, 50.0],
                            a_line_rows=[[], []], b_line_cols=[[], []])
        pts = kp([(12.0, 0.0)], [(10.0, 0.0)])
        path = tmp_path / "frames.csv"
        write_frame_csv(path, pts, truth, delta=5.0)
        lines = path.read_text().splitlines()
        assert lines[0] == "frame,pleura_row,best_dist,correct"
        assert lines[1].endswith(",1")
        assert lines[2].endswith(",0")
