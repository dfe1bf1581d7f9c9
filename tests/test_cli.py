import shutil
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from lusk import fusion, model, synth
from lusk import train as training
from lusk.cli import main, read_keypoints_csv
from lusk.config import _KEYS, ConfigError, RunConfig, load_config, parse_config
from lusk.pgm import read_pgm, write_pgm
from lusk.synth import BLineSpec, DatasetError
from lusk.tensor import CheckpointError, load_tensors, save_tensors
from oracles import read_report

TINY = ["--set", "size=32", "--set", "frames=10", "--set", "input_size=32",
        "--set", "base_channels=8", "--set", "k=3", "--set", "epochs=2",
        "--set", "batch_size=4", "--set", "pair_count=6",
        "--set", "ssim_threshold=0.5"]


class TestConfig:
    def test_tuple_settings_parse(self):
        values = parse_config("lambdas=3,6,9\nb_lines=0.3:0.1:1.5:0.9;0.5:0:2:1\n")
        assert values["lambdas"] == (3.0, 6.0, 9.0)
        assert values["b_lines"] == (BLineSpec(0.3, 0.1, 1.5, 0.9), BLineSpec(0.5, 0.0, 2.0, 1.0))

    def test_unknown_keys_listed_with_lines(self):
        with pytest.raises(ConfigError, match=r"'bogus' \(line 2\).*'wat' \(line 4\)"):
            parse_config("seed=1\nbogus=2\nk=5\nwat=3\n")

    def test_comments_and_blanks_ignored(self):
        assert parse_config("# a comment\n\nseed=7  # trailing\n") == {"seed": 7}

    def test_bad_value_diagnostic(self):
        with pytest.raises(ConfigError, match="<config>:1.*'k'"):
            parse_config("k=abc\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/run.cfg")

    def test_non_utf8_file_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"k=6\n# \xff\n")
        with pytest.raises(ConfigError, match="cannot read config") as info:
            load_config(path)
        assert str(path) in str(info.value)

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=1\nk=4\n")
        cfg = load_config(path, overrides=["k=6"])
        assert cfg.model.k == 6 and cfg.train.seed == 1

    def test_seed_propagates(self):
        cfg = load_config(None, ["seed=9"])
        assert cfg.train.seed == 9 and cfg.scene.seed == 9

    def test_seed_is_the_only_key_of_two_fields(self):
        assert {key: sections for key, (sections, _) in _KEYS.items()
                if len(sections) > 1} == {"seed": ("train", "scene")}
        # the seed lives in the sections only
        with pytest.raises(TypeError):
            RunConfig(seed=5)

    @pytest.mark.parametrize("section,field", [
        (RunConfig, "pair_count"), (fusion.FusionConfig, "sigma0"), (model.ModelConfig, "k"),
        (training.TrainConfig, "epochs"), (synth.SceneSpec, "frames"), (BLineSpec, "column")],
        ids=lambda v: getattr(v, "__name__", v))
    def test_built_configs_are_frozen(self, section, field):
        cfg = section()
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, field, getattr(cfg, field))

    @pytest.mark.parametrize("section,field", [
        *((training.TrainConfig, f) for f in ("lr0", "lr_decay", "ssim_threshold")),
        *((synth.SceneSpec, f) for f in ("pleura_depth", "amplitude", "frequency",
                                         "pleura_brightness", "pleura_thickness",
                                         "a_line_decay", "speckle_strength")),
        *((BLineSpec, f) for f in ("column", "drift", "width", "brightness"))],
        ids=lambda v: getattr(v, "__name__", v))
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_float_settings_rejected(self, section, field, value):
        # the config parser refuses these; a config built in code must too,
        # or SceneSpec renders NaN frames and TrainConfig trains to a NaN loss
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            section(**{field: value})

    def test_key_list_pinned(self):
        # every dataclass field is a user setting; a new field must show up
        # here on purpose
        assert list(_KEYS) == [
            "sigma0", "lambdas", "thresh", "attenuation_a",
            "k", "input_size", "heatmap_sigma", "use_cbam", "base_channels", "input_mode",
            "epochs", "batch_size", "lr0", "lr_decay", "lr_interval", "ssim_threshold",
            "max_pair_gap", "seed", "use_ssim_gate", "pretrain_epochs", "checkpoint_every",
            "frames", "size", "pleura_depth", "amplitude", "frequency",
            "pleura_brightness", "pleura_thickness", "a_line_count", "a_line_decay",
            "b_lines", "speckle_strength",
            "pair_count"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["synth", *TINY, "--set", "seed=0", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt") / "model.lusk"
    assert main(["train", *TINY, "--set", "seed=0",
                 "--data", str(dataset), "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_outputs(self, dataset):
        assert len(list(dataset.glob("frame_*.pgm"))) == 10
        assert (dataset / "truth.txt").exists()

    def test_byte_identical_for_same_seed(self, dataset, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", *TINY, "--set", "seed=0", "--out", str(again)]) == 0
        for name in ("frame_00000.pgm", "frame_00007.pgm", "truth.txt"):
            assert (again / name).read_bytes() == (dataset / name).read_bytes()


class TestFuse:
    def test_emits_ten_channels(self, dataset, tmp_path):
        out = tmp_path / "fused"
        assert main(["fuse", *TINY, "--in", str(dataset / "frame_00000.pgm"),
                     "--out", str(out)]) == 0
        assert len(list(out.glob("channel_*.pgm"))) == 10
        stack = load_tensors(out / "stack.lusk")
        assert len(stack) == 10
        assert stack["channel_00"].shape == (32, 32)

    def test_norm_mode(self, dataset, tmp_path):
        out = tmp_path / "norm"
        assert main(["fuse", *TINY, "--set", "input_mode=norm_stack",
                     "--in", str(dataset / "frame_00000.pgm"),
                     "--out", str(out)]) == 0
        assert len(list(out.glob("channel_*.pgm"))) == 10
        prepared = fusion.prepare_frame(read_pgm(dataset / "frame_00000.pgm"), 32,
                                        fusion.FusionConfig().attenuation_a)
        stack = load_tensors(out / "stack.lusk")
        assert np.array_equal(stack["channel_00"], fusion.norm_stack(prepared, 10)[0])


class TestPipeline:
    def test_train_writes_checkpoint_and_loss_csv(self, checkpoint):
        assert checkpoint.exists()
        lines = (checkpoint.parent / "model_loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,mean_loss,lr"
        assert len(lines) == 3
        # lr column follows the step-decay schedule
        assert float(lines[1].split(",")[2]) == 0.001
        assert float(lines[2].split(",")[2]) == 0.001

    def test_pretrain_then_train_init(self, dataset, tmp_path):
        enc = tmp_path / "enc.lusk"
        assert main(["pretrain", *TINY, "--set", "pretrain_epochs=1",
                     "--data", str(dataset), "--out", str(enc)]) == 0
        out = tmp_path / "model.lusk"
        assert main(["train", *TINY, "--set", "epochs=1", "--data", str(dataset),
                     "--init", str(enc), "--out", str(out)]) == 0

    def test_infer_then_eval(self, dataset, checkpoint, tmp_path):
        pred = tmp_path / "pred"
        assert main(["infer", "--ckpt", str(checkpoint),
                     "--data", str(dataset), "--out", str(pred)]) == 0
        pts = read_keypoints_csv(pred / "keypoints.csv")
        assert pts.shape == (10, 3, 2)
        assert len(list(pred.glob("overlay_*.pgm"))) == 10
        report_path = tmp_path / "report.txt"
        assert main(["eval", "--pred", str(pred), "--truth", str(dataset),
                     "--out", str(report_path)]) == 0
        report = read_report(report_path)
        assert report.frames_total == 10
        assert 0.0 <= report.pleura_accuracy <= 1.0
        assert (tmp_path / "report_frames.csv").exists()

    def test_failed_infer_keeps_previous_keypoints(self, dataset, checkpoint, tmp_path,
                                                   monkeypatch):
        argv = ["infer", "--ckpt", str(checkpoint), "--data", str(dataset),
                "--out", str(tmp_path)]
        assert main(argv) == 0
        before = (tmp_path / "keypoints.csv").read_bytes()
        infer, frames = model.infer_keypoints, []

        def fails_at_frame_3(frame, *args):
            if len(frames) == 3:
                raise FloatingPointError("non-finite keypoints at frame 3")
            frames.append(frame)
            return infer(frame, *args)

        monkeypatch.setattr(model, "infer_keypoints", fails_at_frame_3)
        assert main(argv) == 4
        assert (tmp_path / "keypoints.csv").read_bytes() == before
        assert not (tmp_path / "keypoints.csv.tmp").exists()

    def test_infer_maps_keypoints_back_per_axis(self, dataset, checkpoint, tmp_path):
        # each column of the 32x32 frames repeated 4x: the align-corners
        # resize back to 32x32 gives the model the same input, so rows match
        # and columns are 127/31 times the square run's (float32 arithmetic)
        wide = tmp_path / "wide"
        wide.mkdir()
        for t, frame in enumerate(synth.load_frames(dataset)):
            write_pgm(wide / f"frame_{t:05d}.pgm", np.repeat(frame, 4, axis=1))
        for data, out in ((dataset, "square"), (wide, "wide")):
            assert main(["infer", "--ckpt", str(checkpoint), "--data", str(data),
                         "--out", str(tmp_path / out)]) == 0
        square = read_keypoints_csv(tmp_path / "square" / "keypoints.csv")
        widened = read_keypoints_csv(tmp_path / "wide" / "keypoints.csv")
        assert np.array_equal(widened[..., 0], square[..., 0])
        scale = np.float32(127 / 31)
        assert np.array_equal(widened[..., 1], square[..., 1].astype(np.float32) * scale)

    def test_infer_preprocesses_as_trained(self, dataset, tmp_path, capsys):
        # the checkpoint records the input pipeline, so infer needs no --config
        switches = ["--set", "input_mode=norm_stack", "--set", "attenuation_a=0"]
        ckpt = tmp_path / "norm.lusk"
        assert main(["train", *TINY, *switches, "--set", "seed=0",
                     "--data", str(dataset), "--out", str(ckpt)]) == 0
        config = tmp_path / "norm.cfg"
        config.write_text("\n".join(TINY[1::2] + switches[1::2]) + "\n")
        for name, extra in (("bare", []), ("configured", ["--config", str(config)])):
            assert main(["infer", *extra, "--ckpt", str(ckpt), "--data", str(dataset),
                         "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "bare" / "keypoints.csv").read_bytes()
                == (tmp_path / "configured" / "keypoints.csv").read_bytes())
        # a config whose input pipeline disagrees with the checkpoint is refused
        config.write_text("\n".join(TINY[1::2]) + "\n")
        capsys.readouterr()
        assert main(["infer", "--config", str(config), "--ckpt", str(ckpt),
                     "--data", str(dataset), "--out", str(tmp_path / "fused")]) == 2
        assert "input_mode" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_key_is_config_error(self, tmp_path):
        # phase symmetry and B-line drift each have one rule, not a setting
        for setting in ("nope=1", "energy_denominator_mode=sqrt_energy", "b_line_wrap=true"):
            assert main(["synth", "--set", setting, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("delta", ["nan", "inf"])
    def test_non_finite_delta_is_config_error(self, delta, dataset, tmp_path, capsys):
        pred = _write_pred(tmp_path / "pred", GOOD_CSV)
        capsys.readouterr()
        assert main(["eval", "--pred", str(pred), "--truth", str(dataset),
                     "--delta", delta, "--out", str(tmp_path / "report.txt")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "delta" in err
        assert not (tmp_path / "report.txt").exists()

    def test_invalid_value_is_config_error(self, tmp_path):
        assert main(["synth", "--set", "pleura_depth=0.9",
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("settings", [
        ["amplitude=-0.3"], ["pleura_depth=0.16", "amplitude=0.33"],
        ["pleura_depth=0.39", "amplitude=-0.2"], ["pleura_thickness=0"],
        ["pleura_thickness=-1.5"], ["b_lines=0.7:0.15:2:0.8;0.5:0.1:0:0.8"],
        ["b_lines=1.5:0.1:2:0.8"], ["a_line_count=-1"], ["a_line_decay=-0.5"],
        ["pleura_thickness=1e200"], ["pleura_thickness=1e-200"],
        ["b_lines=0.7:0.15:0.05:0.8"], ["size=32", "b_lines=0.7:0.15:33:0.8"]], ids=",".join)
    def test_scene_out_of_bounds_writes_nothing(self, settings, tmp_path, capsys):
        sets = [a for s in settings for a in ("--set", s)]
        assert main(["synth", *sets, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert settings[-1].partition("=")[0] in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_truth_is_data_error(self, value, dataset, tmp_path, capsys):
        truth = tmp_path / "truth"
        shutil.copytree(dataset, truth)
        lines = (truth / "truth.txt").read_text().splitlines()
        lines[3] = f"{value} " + lines[3].partition(" ")[2]
        (truth / "truth.txt").write_text("\n".join(lines) + "\n")
        pred = _write_pred(tmp_path / "pred", GOOD_CSV)
        capsys.readouterr()
        assert main(["eval", "--pred", str(pred), "--truth", str(truth),
                     "--out", str(tmp_path / "report.txt")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert f"{truth / 'truth.txt'}:4" in err

    def test_missing_data_is_data_error(self, tmp_path):
        assert main(["train", *TINY, "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "m.lusk")]) == 3

    def test_pair_exhaustion_is_numeric_error(self, dataset, tmp_path):
        code = main(["train", *TINY, "--set", "ssim_threshold=1.0",
                     "--data", str(dataset), "--out", str(tmp_path / "m.lusk")])
        assert code == 4

    def test_checkpoint_config_mismatch(self, dataset, checkpoint, tmp_path):
        code = main(["train", *TINY, "--set", "k=5", "--data", str(dataset),
                     "--init", str(checkpoint), "--out", str(tmp_path / "m.lusk")])
        assert code == 2

    def test_init_from_cbam_encoder_into_plain_model(self, dataset, tmp_path, capsys):
        # the CBAM weights would be dropped without a word
        enc = tmp_path / "enc.lusk"
        assert main(["pretrain", *TINY, "--set", "use_cbam=true", "--set",
                     "pretrain_epochs=1", "--data", str(dataset), "--out", str(enc)]) == 0
        capsys.readouterr()
        assert main(["train", *TINY, "--data", str(dataset), "--init", str(enc),
                     "--out", str(tmp_path / "m.lusk")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "use_cbam=True" in err

    def test_init_with_other_base_channels_refused_before_any_work(
            self, dataset, checkpoint, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("pairs sampled before the checkpoint was compared")

        monkeypatch.setattr(training, "sample_pairs", refuse)
        capsys.readouterr()
        assert main(["train", *TINY, "--set", "base_channels=16", "--data", str(dataset),
                     "--init", str(checkpoint), "--out", str(tmp_path / "m.lusk")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "base_channels=8" in err

    @pytest.mark.parametrize("command", ["infer", "train"])
    def test_non_finite_checkpoint_is_data_error(self, command, checkpoint, tmp_path, capsys):
        # the data directory does not exist: the checkpoint must be refused first
        records = load_tensors(checkpoint)
        records["keynet.head.b"][0] = np.nan
        bad = tmp_path / "nan.lusk"
        save_tensors(bad, records)
        missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
        argv = {"infer": ["infer", "--ckpt", str(bad), "--data", missing, "--out", out],
                "train": ["train", *TINY, "--init", str(bad), "--data", missing,
                          "--out", out + ".lusk"]}[command]
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert f"{bad}: parameter keynet.head.b holds NaN" in err

    def test_init_cut_at_a_record_boundary_is_data_error(self, dataset, checkpoint,
                                                        tmp_path, capsys):
        # a file of the first 8 records is as long as the full file cut after them
        records = load_tensors(checkpoint)
        assert len(records) == 15
        first = tmp_path / "first.lusk"
        save_tensors(first, dict(list(records.items())[:8]))
        cut = tmp_path / "cut.lusk"
        cut.write_bytes(checkpoint.read_bytes()[:first.stat().st_size])
        capsys.readouterr()
        assert main(["train", *TINY, "--data", str(dataset), "--init", str(cut),
                     "--out", str(tmp_path / "m.lusk")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and str(cut) in err

    @pytest.mark.parametrize("setting", [
        "checkpoint_every=0", "lr_interval=0", "batch_size=0",
        "pretrain_epochs=0", "lr_decay=0", "lr_decay=-0.5", "lr0=nan", "lr0=inf",
        "heatmap_sigma=inf", "thresh=nan", "lambdas=3.0,nan", "lambdas=3.0,6.0,9.0",
        "input_size=0", "input_size=-4", "base_channels=0", "base_channels=-1",
        "thresh=-0.1", "attenuation_a=-0.5", "lambdas=2,4,6,8,10,12,14,16,18,20",
        "heatmap_sigma=1e-200", "heatmap_sigma=1e-20"])
    @pytest.mark.parametrize("command", ["pretrain", "train"])
    def test_bad_train_setting_is_config_error(self, command, setting, tmp_path, capsys):
        # the data directory does not exist: the setting must be rejected first
        code = main([command, *TINY, "--set", setting, "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "m.lusk")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error:") and err.count("\n") == 1
        assert setting.partition("=")[0] in err

    def test_one_frame_video_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "one"
        assert main(["synth", *TINY, "--set", "frames=1", "--out", str(data)]) == 0
        capsys.readouterr()
        assert main(["train", *TINY, "--data", str(data),
                     "--out", str(tmp_path / "m.lusk")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "fewer than 2 frames" in err

    @pytest.mark.parametrize("shape", [(8, 8), (10, 40)], ids=["8x8", "10x40"])
    def test_frames_smaller_than_ssim_window_are_data_error(self, shape, tmp_path, capsys):
        data = tmp_path / "small"
        data.mkdir()
        for t in range(3):
            write_pgm(data / f"frame_{t:05d}.pgm", np.full(shape, 0.5))
        assert main(["train", *TINY, "--data", str(data),
                     "--out", str(tmp_path / "m.lusk")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert f"{shape} frames, smaller than the 11x11 SSIM window" in err

    @pytest.mark.parametrize("command", ["pretrain", "train"])
    def test_diverging_loss_is_numeric_error(self, command, dataset, tmp_path, capsys):
        # on this data lr0=1e30 saturates the sigmoid head but keeps the loss
        # finite; 1e36 overflows float32 within the first epoch
        code = main([command, *TINY, "--set", "lr0=1e36", "--data", str(dataset),
                     "--out", str(tmp_path / "m.lusk")])
        assert code == 4
        assert capsys.readouterr().err.splitlines()[-1].startswith("numeric failure:")

    def test_infer_without_config_rejects_bad_override(self, dataset, checkpoint,
                                                       tmp_path):
        assert main(["infer", "--set", "bogus=1", "--ckpt", str(checkpoint),
                     "--data", str(dataset), "--out", str(tmp_path / "pred")]) == 2

    @pytest.mark.parametrize("settings", [
        ["k=7", "attenuation_a=0"], ["input_size=64"], ["heatmap_sigma=3.0"],
        ["use_cbam=true"], ["base_channels=16"], ["input_mode=norm_stack"]])
    def test_infer_rejects_model_override_unlike_checkpoint(self, settings, dataset,
                                                           checkpoint, tmp_path, capsys):
        # the checkpoint fixes the model; a model key set on the command line
        # must agree with it, with or without --config
        sets = [a for s in settings for a in ("--set", s)]
        capsys.readouterr()
        assert main(["infer", *sets, "--ckpt", str(checkpoint), "--data", str(dataset),
                     "--out", str(tmp_path / "pred")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert settings[0].partition("=")[0] in err

    def test_infer_config_unlike_checkpoint(self, dataset, checkpoint, tmp_path, capsys):
        # the config agrees with the checkpoint on every key but base_channels
        config = tmp_path / "m.cfg"
        config.write_text("input_size=32\nk=3\nbase_channels=16\n")
        capsys.readouterr()
        assert main(["infer", "--config", str(config), "--ckpt", str(checkpoint),
                     "--data", str(dataset), "--out", str(tmp_path / "pred")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "base_channels=16" in err

    def test_infer_accepts_model_override_like_checkpoint(self, dataset, checkpoint,
                                                          tmp_path):
        plain, same = tmp_path / "plain", tmp_path / "same"
        assert main(["infer", "--ckpt", str(checkpoint), "--data", str(dataset),
                     "--out", str(plain)]) == 0
        assert main(["infer", *TINY, "--set", "attenuation_a=1.5", "--ckpt", str(checkpoint),
                     "--data", str(dataset), "--out", str(same)]) == 0
        assert ((plain / "keypoints.csv").read_bytes()
                == (same / "keypoints.csv").read_bytes())

    @pytest.mark.parametrize("setting", [
        "attenuation_a=0.2", "sigma0=0.6", "thresh=0.02",
        "lambdas=4,7,10,13,16,19,22,25,28,31"])
    def test_infer_rejects_fusion_override_unlike_checkpoint(self, setting, dataset,
                                                            checkpoint, tmp_path, capsys):
        # the model was trained on stacks fused with the default settings
        key = setting.partition("=")[0]
        capsys.readouterr()
        assert main(["infer", "--set", setting, "--ckpt", str(checkpoint),
                     "--data", str(dataset), "--out", str(tmp_path / "pred")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        expected = getattr(fusion.FusionConfig(), key)
        assert f"checkpoint {key}={expected} does not match configured {key}=" in err

    def test_infer_config_fusion_unlike_checkpoint(self, dataset, checkpoint, tmp_path,
                                                   capsys):
        config = tmp_path / "m.cfg"
        config.write_text("\n".join(TINY[1::2] + ["attenuation_a=0.2"]) + "\n")
        capsys.readouterr()
        assert main(["infer", "--config", str(config), "--ckpt", str(checkpoint),
                     "--data", str(dataset), "--out", str(tmp_path / "pred")]) == 2
        assert ("checkpoint attenuation_a=1.5 does not match configured attenuation_a=0.2"
                in capsys.readouterr().err)

    def test_init_with_other_fusion_refused_before_any_work(
            self, dataset, checkpoint, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("pairs sampled before the checkpoint was compared")

        monkeypatch.setattr(training, "sample_pairs", refuse)
        capsys.readouterr()
        assert main(["train", *TINY, "--set", "attenuation_a=0.2", "--data", str(dataset),
                     "--init", str(checkpoint), "--out", str(tmp_path / "m.lusk")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "attenuation_a=1.5" in err

    def test_init_with_misshapen_parameter_refused_before_any_work(
            self, dataset, checkpoint, tmp_path, monkeypatch, capsys):
        # the config record matches; the first convolution reads 7 channels, not 10
        def refuse(*args, **kwargs):
            raise AssertionError("pairs sampled before the parameters were checked")

        records = load_tensors(checkpoint)
        records["encoder.conv1.w"] = np.zeros((8, 7, 3, 3), np.float32)
        bad = tmp_path / "bad.lusk"
        save_tensors(bad, records)
        monkeypatch.setattr(training, "sample_pairs", refuse)
        capsys.readouterr()
        assert main(["train", *TINY, "--data", str(dataset), "--init", str(bad),
                     "--out", str(tmp_path / "m.lusk")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert str(bad) in err and "encoder.conv1.w has shape (8, 7, 3, 3)" in err


class TestCheckpointIsTheRunRecord:
    """The checkpoint keeps every model and fusion setting exactly as trained."""

    def test_float_setting_matches_its_checkpoint(self, dataset, tmp_path):
        # 0.3 is no float32 value: a record rounded to float32 would not match
        sigma = ["--set", "heatmap_sigma=0.3"]
        ckpt = tmp_path / "sigma.lusk"
        assert main(["train", *TINY, *sigma, "--data", str(dataset), "--out", str(ckpt)]) == 0
        assert main(["infer", *sigma, "--ckpt", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "pred")]) == 0
        assert main(["train", *TINY, *sigma, "--set", "epochs=1", "--data", str(dataset),
                     "--init", str(ckpt), "--out", str(tmp_path / "again.lusk")]) == 0

    def test_infer_fuses_as_trained(self, dataset, tmp_path):
        # infer needs no setting to fuse frames with the trained attenuation
        ckpt = tmp_path / "attenuated.lusk"
        assert main(["train", *TINY, "--set", "attenuation_a=0.2", "--set", "seed=0",
                     "--data", str(dataset), "--out", str(ckpt)]) == 0
        for name, extra in (("bare", []), ("set", ["--set", "attenuation_a=0.2"])):
            assert main(["infer", *extra, "--ckpt", str(ckpt), "--data", str(dataset),
                         "--out", str(tmp_path / name)]) == 0
        assert ((tmp_path / "bare" / "keypoints.csv").read_bytes()
                == (tmp_path / "set" / "keypoints.csv").read_bytes())


# an --in or --out of the wrong kind: `afile` is an existing regular file and
# `adir` an existing directory
WRONG_KIND = {
    "synth_out_file": lambda data, ckpt, afile, adir: ["synth", *TINY, "--out", afile],
    "fuse_out_file": lambda data, ckpt, afile, adir: [
        "fuse", *TINY, "--in", f"{data}/frame_00000.pgm", "--out", afile],
    "infer_out_file": lambda data, ckpt, afile, adir: [
        "infer", "--ckpt", ckpt, "--data", data, "--out", afile],
    "fuse_in_dir": lambda data, ckpt, afile, adir: [
        "fuse", *TINY, "--in", adir, "--out", f"{adir}/fused"],
}


@pytest.mark.parametrize("case", sorted(WRONG_KIND))
def test_path_of_wrong_kind_is_data_error(case, dataset, checkpoint, tmp_path, capsys):
    afile, adir = tmp_path / "afile", tmp_path / "adir"
    afile.write_text("")
    adir.mkdir()
    argv = WRONG_KIND[case](str(dataset), str(checkpoint), str(afile), str(adir))
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1
    assert str(afile if "file" in case else adir) in err


def _damaged_copy(dataset, tmp_path, damage):
    """A copy of the dataset with frame 3 replaced: `truncated` cuts its
    pixel data short, `resized` writes it at another size."""
    data = tmp_path / "damaged"
    shutil.copytree(dataset, data)
    frame = data / "frame_00003.pgm"
    if damage == "truncated":
        frame.write_bytes(frame.read_bytes()[:-5])
    else:
        write_pgm(frame, np.zeros((16, 16)))
    return data, frame


class TestBadFrames:
    """A truncated frame, or frames of two sizes, exit 3 naming the file."""

    @pytest.mark.parametrize("damage", ["truncated", "resized"])
    def test_data_directory(self, damage, dataset, tmp_path, capsys):
        data, frame = _damaged_copy(dataset, tmp_path, damage)
        capsys.readouterr()
        assert main(["train", *TINY, "--data", str(data),
                     "--out", str(tmp_path / "m.lusk")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert str(frame) in err

    def test_fuse_input(self, dataset, tmp_path, capsys):
        _, frame = _damaged_copy(dataset, tmp_path, "truncated")
        capsys.readouterr()
        assert main(["fuse", *TINY, "--in", str(frame), "--out", str(tmp_path / "f")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "truncated pixel data" in err
        assert str(frame) in err


# cut offset and the part it cuts: the 12-byte header is magic, version and
# record count; the first record is the 10-byte name "__config__": its rank
# is at bytes 26-33 and its dims at 34-41; -2 cuts the last value short
CHECKPOINT_CUTS = {"in_header": (6, "the version"), "in_dims": (38, "the dims of __config__"),
                   "in_data": (-2, "the values of refine.conv2.b")}


class TestBadCheckpoint:
    """Every unusable --ckpt exits 3 with a single `data error:` line."""

    def _infer_fails(self, ckpt, dataset, tmp_path, capsys):
        capsys.readouterr()
        assert main(["infer", "--ckpt", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "pred")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert str(ckpt) in err
        return err

    @pytest.mark.parametrize("cut", sorted(CHECKPOINT_CUTS))
    def test_truncated(self, cut, dataset, checkpoint, tmp_path, capsys):
        offset, part = CHECKPOINT_CUTS[cut]
        path = tmp_path / "cut.lusk"
        path.write_bytes(checkpoint.read_bytes()[:offset])
        assert f"file ends inside {part}" in self._infer_fails(path, dataset, tmp_path, capsys)

    def test_directory(self, dataset, tmp_path, capsys):
        self._infer_fails(tmp_path, dataset, tmp_path, capsys)

    def test_three_slot_header(self, dataset, checkpoint, tmp_path, capsys):
        # the config record cut to its first three bytes, `k=3`
        records = load_tensors(checkpoint)
        records["__config__"] = records["__config__"][:3]
        path = tmp_path / "short.lusk"
        save_tensors(path, records)
        assert "record lacks input_size" in self._infer_fails(path, dataset, tmp_path, capsys)

    def test_seven_input_channels(self, dataset, checkpoint, tmp_path, capsys):
        # the feature stack has 10 channels, which is no setting, so a config
        # record that declares 7 is not one of ours
        records = load_tensors(checkpoint)
        extra = np.frombuffer(b"input_channels=7\n", dtype=np.uint8).astype(np.float32)
        records["__config__"] = np.concatenate([records["__config__"], extra])
        path = tmp_path / "seven.lusk"
        save_tensors(path, records)
        err = self._infer_fails(path, dataset, tmp_path, capsys)
        assert "'input_channels=7' names no setting" in err

    def test_pretrained_encoder(self, dataset, tmp_path, capsys):
        path = tmp_path / "enc.lusk"
        assert main(["pretrain", *TINY, "--set", "pretrain_epochs=1", "--data", str(dataset),
                     "--out", str(path)]) == 0
        err = self._infer_fails(path, dataset, tmp_path, capsys)
        assert "parameter keynet.conv1.b has shape None in the checkpoint" in err


OUT_PATHS = {"directory": lambda tmp: tmp, "missing_parent": lambda tmp: tmp / "no" / "m.lusk"}


class TestUnwritableOut:
    """train and pretrain reject an --out they cannot write before reading
    data or training: exit 3 with a single `data error:` line."""

    @pytest.mark.parametrize("where", sorted(OUT_PATHS))
    @pytest.mark.parametrize("command", ["pretrain", "train"])
    def test_rejected_before_any_work(self, command, where, dataset, tmp_path,
                                      monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before --out was checked")

        for module, name in [(synth, "load_frames"), (training, "train"),
                             (training, "pretrain_encoder")]:
            monkeypatch.setattr(module, name, refuse)
        out = OUT_PATHS[where](tmp_path)
        capsys.readouterr()
        assert main([command, *TINY, "--data", str(dataset), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert str(out) in err

    @pytest.mark.parametrize("where", sorted(OUT_PATHS))
    def test_save_tensors_names_the_path(self, where, tmp_path):
        out = OUT_PATHS[where](tmp_path)
        with pytest.raises(CheckpointError, match="cannot write checkpoint") as info:
            save_tensors(out, {"x": np.zeros(3, np.float32)})
        assert str(out) in str(info.value)
        assert not Path(f"{out}.tmp").exists()


# 10 frames x 3 slots, matching the TINY dataset
GOOD_CSV = [f"{t},{s},{10.0 + s},5.0\n" for t in range(10) for s in range(3)]
BAD_CSVS = {
    "missing_slot": GOOD_CSV[:13] + GOOD_CSV[14:],  # frame 4 lacks slot 1
    "extra_slot": GOOD_CSV + ["9,3,1.0,1.0\n"],
    "repeated_slot": GOOD_CSV + ["2,0,1.0,1.0\n"],
    "malformed_line": GOOD_CSV[:5] + ["1,2,3.0\n"] + GOOD_CSV[5:],
    "renumbered_frame": GOOD_CSV[:27] + ["12" + line[1:] for line in GOOD_CSV[27:]],
    "nan_row": ["0,0,nan,3\n"] + GOOD_CSV[1:],
    "inf_col": GOOD_CSV[:3] + ["1,0,15,inf\n"] + GOOD_CSV[4:],
    "not_utf8": GOOD_CSV[:4] + ["1,1,11.0,5.0\xff\n"] + GOOD_CSV[5:],
}


def _write_pred(directory, lines):
    directory.mkdir()
    # latin-1 writes "\xff" as the byte 0xff, which is no UTF-8
    (directory / "keypoints.csv").write_text("frame,slot,row,col\n" + "".join(lines),
                                             encoding="latin-1")
    return directory


class TestKeypointsCsv:
    def test_good_csv_round_trips(self, tmp_path):
        pts = read_keypoints_csv(_write_pred(tmp_path / "pred", GOOD_CSV) / "keypoints.csv")
        assert pts.shape == (10, 3, 2)
        assert np.array_equal(pts[4, 1], [11.0, 5.0])

    @pytest.mark.parametrize("case", sorted(BAD_CSVS))
    def test_bad_csv_is_data_error(self, case, dataset, tmp_path, capsys):
        pred = _write_pred(tmp_path / "pred", BAD_CSVS[case])
        with pytest.raises(DatasetError, match="keypoints.csv"):
            read_keypoints_csv(pred / "keypoints.csv")
        assert main(["eval", "--pred", str(pred), "--truth", str(dataset),
                     "--out", str(tmp_path / "report.txt")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_missing_frame_named(self, tmp_path):
        # frame 9 renumbered as 12 would be scored against frame 9's truth
        path = _write_pred(tmp_path / "pred", BAD_CSVS["renumbered_frame"]) / "keypoints.csv"
        with pytest.raises(DatasetError, match="frame 9 is missing") as info:
            read_keypoints_csv(path)
        assert str(path) in str(info.value)

    def test_fewer_prediction_frames_than_truth_is_data_error(self, dataset, tmp_path,
                                                              capsys):
        pred = _write_pred(tmp_path / "pred", GOOD_CSV[:27])
        assert main(["eval", "--pred", str(pred), "--truth", str(dataset),
                     "--out", str(tmp_path / "report.txt")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
