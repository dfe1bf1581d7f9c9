import shutil
from pathlib import Path

import numpy as np
import pytest

from lusk import fusion, synth
from lusk import train as training
from lusk.cli import main, read_keypoints_csv
from lusk.config import (ConfigError, RunConfig, load_config, parse_config,
                         serialize_config)
from lusk.pgm import read_pgm, write_pgm
from lusk.synth import BLineSpec, DatasetError
from lusk.tensor import CheckpointError, load_tensors, save_tensors
from oracles import read_report

TINY = ["--set", "size=32", "--set", "frames=10", "--set", "input_size=32",
        "--set", "base_channels=8", "--set", "k=3", "--set", "epochs=2",
        "--set", "batch_size=4", "--set", "pair_count=6",
        "--set", "ssim_threshold=0.5"]


class TestConfig:
    def test_serialize_parse_fixed_point(self):
        cfg = RunConfig()
        cfg.fusion.sigma0 = 0.6
        cfg.model.use_cbam = True
        cfg.scene.b_lines = (BLineSpec(0.3, 0.1, 1.5, 0.9), BLineSpec())
        text = serialize_config(cfg.validate())
        cfg2 = parse_config(text).validate()
        assert serialize_config(cfg2) == text
        assert cfg2.scene.b_lines == cfg.scene.b_lines
        assert cfg2.fusion.lambdas == cfg.fusion.lambdas

    def test_unknown_keys_listed_with_lines(self):
        with pytest.raises(ConfigError, match=r"'bogus' \(line 2\).*'wat' \(line 4\)"):
            parse_config("seed=1\nbogus=2\nk=5\nwat=3\n")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nseed=7  # trailing\n")
        assert cfg.seed == 7

    def test_bad_value_diagnostic(self):
        with pytest.raises(ConfigError, match="<config>:1.*'k'"):
            parse_config("k=abc\n")

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/run.cfg")

    def test_overrides_win(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=1\nk=4\n")
        cfg = load_config(path, overrides=["k=6"])
        assert cfg.model.k == 6 and cfg.seed == 1

    def test_seed_propagates(self):
        cfg = parse_config("seed=9\n").validate()
        assert cfg.train.seed == 9 and cfg.scene.seed == 9

    def test_key_list_pinned(self):
        # every dataclass field not marked internal in config.py is a user
        # setting; a new field must show up here on purpose
        keys = [line.partition("=")[0]
                for line in serialize_config(RunConfig().validate()).splitlines()]
        assert keys == [
            "sigma0", "lambdas", "thresh", "epsilon", "attenuation_a",
            "k", "input_size", "heatmap_sigma", "use_cbam", "base_channels",
            "use_tga", "input_mode",
            "epochs", "batch_size", "lr0", "lr_decay", "lr_interval", "ssim_threshold",
            "max_pair_gap", "use_ssim_gate",
            "pair_retry_factor", "pretrain_epochs", "checkpoint_every",
            "frames", "size", "pleura_depth", "amplitude", "frequency",
            "pleura_brightness", "pleura_thickness", "a_line_count", "a_line_decay",
            "b_lines", "speckle_strength",
            "seed", "pair_count"]


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert main(["synth", *TINY, "--seed", "0", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def checkpoint(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt") / "model.lusk"
    assert main(["train", *TINY, "--seed", "0",
                 "--data", str(dataset), "--out", str(out)]) == 0
    return out


class TestSynth:
    def test_outputs(self, dataset):
        assert len(list(dataset.glob("frame_*.pgm"))) == 10
        assert (dataset / "truth.txt").exists()

    def test_byte_identical_for_same_seed(self, dataset, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", *TINY, "--seed", "0", "--out", str(again)]) == 0
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
        assert np.array_equal(stack["channel_00"], fusion.norm_stack(prepared)[0])


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

    def test_infer_preprocesses_as_trained(self, dataset, tmp_path, capsys):
        # the checkpoint records the input pipeline, so infer needs no --config
        switches = ["--set", "input_mode=norm_stack", "--set", "use_tga=false"]
        ckpt = tmp_path / "norm.lusk"
        assert main(["train", *TINY, *switches, "--seed", "0",
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
        assert "use_tga" in capsys.readouterr().err


class TestExitCodes:
    def test_unknown_key_is_config_error(self, tmp_path):
        # phase symmetry and B-line drift each have one rule, not a setting
        for setting in ("nope=1", "energy_denominator_mode=sqrt_energy", "b_line_wrap=true"):
            assert main(["synth", "--set", setting, "--out", str(tmp_path / "x")]) == 2

    def test_invalid_value_is_config_error(self, tmp_path):
        assert main(["synth", "--set", "pleura_depth=0.9",
                     "--out", str(tmp_path / "x")]) == 2

    def test_missing_data_is_data_error(self, tmp_path):
        assert main(["train", *TINY, "--data", str(tmp_path / "missing"),
                     "--out", str(tmp_path / "m.lusk")]) == 3

    def test_pair_exhaustion_is_numeric_error(self, dataset, tmp_path):
        code = main(["train", *TINY, "--set", "ssim_threshold=1.0",
                     "--set", "pair_retry_factor=3",
                     "--data", str(dataset), "--out", str(tmp_path / "m.lusk")])
        assert code == 4

    def test_checkpoint_config_mismatch(self, dataset, checkpoint, tmp_path):
        code = main(["train", *TINY, "--set", "k=5", "--data", str(dataset),
                     "--init", str(checkpoint), "--out", str(tmp_path / "m.lusk")])
        assert code == 2

    @pytest.mark.parametrize("setting", [
        "checkpoint_every=0", "lr_interval=0", "batch_size=0", "pair_retry_factor=0",
        "pretrain_epochs=0", "lr_decay=0", "lr_decay=-0.5", "lr0=nan", "lr0=inf",
        "heatmap_sigma=inf", "thresh=nan", "lambdas=3.0,nan", "lambdas=3.0,6.0,9.0"])
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
        ["k=7", "use_tga=false"], ["input_size=64"], ["heatmap_sigma=3.0"],
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

    def test_infer_accepts_model_override_like_checkpoint(self, dataset, checkpoint,
                                                          tmp_path):
        plain, same = tmp_path / "plain", tmp_path / "same"
        assert main(["infer", "--ckpt", str(checkpoint), "--data", str(dataset),
                     "--out", str(plain)]) == 0
        assert main(["infer", *TINY, "--set", "use_tga=true", "--ckpt", str(checkpoint),
                     "--data", str(dataset), "--out", str(same)]) == 0
        assert ((plain / "keypoints.csv").read_bytes()
                == (same / "keypoints.csv").read_bytes())


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


# the first record is the 16-byte name "__model_config__": its rank is at
# bytes 28-35 and its dims at 36-43; -2 cuts the last value short
CHECKPOINT_CUTS = {"in_header": 6, "in_dims": 40, "in_data": -2}


class TestBadCheckpoint:
    """Every unusable --ckpt exits 3 with a single `data error:` line."""

    def _infer_fails(self, ckpt, dataset, tmp_path, capsys):
        capsys.readouterr()
        assert main(["infer", "--ckpt", str(ckpt), "--data", str(dataset),
                     "--out", str(tmp_path / "pred")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert str(ckpt) in err

    @pytest.mark.parametrize("cut", sorted(CHECKPOINT_CUTS))
    def test_truncated(self, cut, dataset, checkpoint, tmp_path, capsys):
        path = tmp_path / "cut.lusk"
        path.write_bytes(checkpoint.read_bytes()[:CHECKPOINT_CUTS[cut]])
        self._infer_fails(path, dataset, tmp_path, capsys)

    def test_directory(self, dataset, tmp_path, capsys):
        self._infer_fails(tmp_path, dataset, tmp_path, capsys)

    def test_three_slot_header(self, dataset, checkpoint, tmp_path, capsys):
        records = load_tensors(checkpoint)
        records["__model_config__"] = records["__model_config__"][:3]
        path = tmp_path / "short.lusk"
        save_tensors(path, records)
        self._infer_fails(path, dataset, tmp_path, capsys)

    def test_pretrained_encoder(self, dataset, tmp_path, capsys):
        path = tmp_path / "enc.lusk"
        assert main(["pretrain", *TINY, "--set", "pretrain_epochs=1", "--data", str(dataset),
                     "--out", str(path)]) == 0
        self._infer_fails(path, dataset, tmp_path, capsys)


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
}


def _write_pred(directory, lines):
    directory.mkdir()
    (directory / "keypoints.csv").write_text("frame,slot,row,col\n" + "".join(lines))
    return directory


class TestKeypointsCsv:
    def test_good_csv_round_trips(self, tmp_path):
        pts = read_keypoints_csv(_write_pred(tmp_path / "pred", GOOD_CSV) / "keypoints.csv")
        assert pts.shape == (10, 3, 2)
        assert np.array_equal(pts[4, 1], [11.0, 5.0])

    @pytest.mark.parametrize("case", sorted(BAD_CSVS))
    def test_bad_csv_is_data_error(self, case, dataset, tmp_path, capsys):
        pred = _write_pred(tmp_path / "pred", BAD_CSVS[case])
        with pytest.raises(DatasetError):
            read_keypoints_csv(pred / "keypoints.csv")
        assert main(["eval", "--pred", str(pred), "--truth", str(dataset),
                     "--out", str(tmp_path / "report.txt")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1

    def test_fewer_prediction_frames_than_truth_is_data_error(self, dataset, tmp_path,
                                                              capsys):
        pred = _write_pred(tmp_path / "pred", GOOD_CSV[:27])
        assert main(["eval", "--pred", str(pred), "--truth", str(dataset),
                     "--out", str(tmp_path / "report.txt")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
