import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lusk.pgm import write_pgm
from lusk.synth import (BLineSpec, DatasetError, GroundTruth, SceneSpec,
                        generate, load_frames, load_truth, save_dataset)


class TestGenerate:
    def test_deterministic_bit_identical(self):
        spec = SceneSpec(frames=8, seed=42)
        a, ta = generate(spec)
        b, tb = generate(spec)
        assert np.array_equal(a, b)
        assert ta.pleura_rows == tb.pleura_rows

    def test_different_seed_differs(self):
        a, _ = generate(SceneSpec(frames=4, seed=0))
        b, _ = generate(SceneSpec(frames=4, seed=1))
        assert not np.array_equal(a, b)

    def test_shapes_and_range(self):
        video, truth = generate(SceneSpec(frames=6, size=48))
        assert video.shape == (6, 48, 48)
        assert video.min() >= 0.0 and video.max() <= 1.0
        assert len(truth) == 6

    def test_zero_amplitude_constant_pleura_row(self):
        _, truth = generate(SceneSpec(frames=10, amplitude=0.0))
        assert len(set(truth.pleura_rows)) == 1
        assert truth.pleura_rows[0] == pytest.approx(0.25 * 63)

    def test_pleura_is_brightest_row(self):
        # column-mean argmax lands on the pleural band
        spec = SceneSpec(frames=5, speckle_strength=0.0, b_lines=())
        video, truth = generate(spec)
        for frame, p in zip(video, truth.pleura_rows):
            got = int(np.argmax(frame.mean(axis=1)))
            assert abs(got - p) <= 0.5 + 1e-9

    def test_a_line_rows_are_multiples(self):
        _, truth = generate(SceneSpec(frames=3, amplitude=0.0, a_line_count=2))
        p = truth.pleura_rows[0]
        assert truth.a_line_rows[0] == pytest.approx([2 * p, 3 * p])

    def test_oscillation_matches_sine(self):
        spec = SceneSpec(frames=12, amplitude=0.03, frequency=0.05)
        _, truth = generate(spec)
        for t, p in enumerate(truth.pleura_rows):
            want = (0.25 + 0.03 * np.sin(2 * np.pi * 0.05 * t)) * 63
            assert p == pytest.approx(want)

    def test_b_line_clamped_at_edge(self):
        spec = SceneSpec(frames=60, b_lines=(BLineSpec(column=0.9, drift=1.0),))
        _, truth = generate(spec)
        cols = [c[0] for c in truth.b_line_cols]
        assert max(cols) == 63.0
        assert all(c <= 63.0 for c in cols)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="pleura_depth"):
            generate(SceneSpec(pleura_depth=0.1))
        with pytest.raises(ValueError, match="upper half"):
            generate(SceneSpec(pleura_depth=0.39, amplitude=0.2))
        with pytest.raises(ValueError, match="brightness"):
            generate(SceneSpec(b_lines=(BLineSpec(brightness=1.5),)))

    @settings(max_examples=60, deadline=None)
    @given(frames=st.integers(1, 6), size=st.integers(8, 40),
           depth=st.floats(0.15, 0.4, exclude_min=True, exclude_max=True),
           amplitude=st.floats(-0.5, 0.5), frequency=st.floats(-1e3, 1e3),
           columns=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-1e300, 1e300)),
                            max_size=3))
    def test_valid_scene_truth_stays_in_frame(self, frames, size, depth, amplitude,
                                              frequency, columns):
        spec = SceneSpec(frames=frames, size=size, pleura_depth=depth, amplitude=amplitude,
                         frequency=frequency, speckle_strength=0.0,
                         b_lines=tuple(BLineSpec(column=c, drift=d) for c, d in columns))
        try:
            spec.validate()
        except ValueError:
            return
        _, truth = generate(spec)
        assert all(0.0 <= row < (size - 1) / 2 for row in truth.pleura_rows)
        assert all(0.0 <= col <= size - 1 for cols in truth.b_line_cols for col in cols)


class TestDatasetIo:
    def test_round_trip(self, tmp_path):
        video, truth = generate(SceneSpec(frames=5, size=32))
        save_dataset(video, truth, tmp_path)
        frames, loaded = load_frames(tmp_path), load_truth(tmp_path / "truth.txt")
        assert frames.shape == video.shape
        assert np.abs(frames - video).max() <= 1.0 / 255.0 + 1e-12
        assert loaded.pleura_rows == truth.pleura_rows
        assert loaded.a_line_rows == truth.a_line_rows
        assert loaded.b_line_cols == truth.b_line_cols

    def test_file_count(self, tmp_path):
        video, truth = generate(SceneSpec(frames=40, size=16))
        save_dataset(video, truth, tmp_path)
        assert len(list(tmp_path.glob("frame_*.pgm"))) == 40
        assert len((tmp_path / "truth.txt").read_text().splitlines()) == 40

    def test_missing_frame_names_index(self, tmp_path):
        video, truth = generate(SceneSpec(frames=4, size=16))
        save_dataset(video, truth, tmp_path)
        (tmp_path / "frame_00002.pgm").unlink()
        with pytest.raises(DatasetError, match="index 2"):
            load_frames(tmp_path)

    @pytest.mark.parametrize("blob, message", [
        (b"P5\n4 4\n255\n" + bytes(15), "truncated pixel data"),
        (b"P5\n0 0\n255\n", "PGM has no pixels"),
        (b"P5\n4 -4\n255\n" + bytes(16), "malformed PGM header"),
        (b"P5\n4 4\n", "truncated PGM header")],
        ids=["pixels", "empty", "negative", "header"])
    def test_bad_frame_names_file(self, blob, message, tmp_path):
        video, truth = generate(SceneSpec(frames=3, size=16))
        save_dataset(video, truth, tmp_path)
        (tmp_path / "frame_00001.pgm").write_bytes(blob)
        with pytest.raises(DatasetError, match=rf"frame_00001\.pgm: {message}"):
            load_frames(tmp_path)

    def test_frames_of_two_sizes_name_file(self, tmp_path):
        video, truth = generate(SceneSpec(frames=3, size=16))
        save_dataset(video, truth, tmp_path)
        write_pgm(tmp_path / "frame_00002.pgm", np.zeros((16, 12)))
        with pytest.raises(DatasetError, match=r"frame_00002\.pgm: frame is \(16, 12\)"):
            load_frames(tmp_path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(DatasetError, match="no frame"):
            load_frames(tmp_path)

    def test_malformed_truth_line(self, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text("12.5 A 25.0 garbage\n")
        with pytest.raises(DatasetError, match="truth.txt:1"):
            load_truth(path)

    @pytest.mark.parametrize("line", ["nan A 25.0 B 40.0", "12.5 A inf B 40.0",
                                      "12.5 A 25.0 B -inf"])
    def test_non_finite_truth_value_is_malformed(self, line, tmp_path):
        path = tmp_path / "truth.txt"
        path.write_text(f"12.5 A 25.0 B 40.0\n{line}\n")
        with pytest.raises(DatasetError, match="truth.txt:2: malformed"):
            load_truth(path)
