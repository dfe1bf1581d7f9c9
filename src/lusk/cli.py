"""Batch command-line front end.

Subcommands: synth (dataset generation), fuse (feature-channel export),
pretrain, train, infer (keypoints + overlays), eval. Exit codes: 0 ok,
2 config error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import evaluate, fusion, model, synth, train as training
from .config import ConfigError, RunConfig, load_config
from .pgm import read_pgm, write_pgm
from .synth import DatasetError
from .tensor import CheckpointError, atomic_open, save_tensors

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _run_config(args) -> RunConfig:
    return load_config(args.config, args.set or ())


def cmd_synth(args) -> int:
    cfg = _run_config(args)
    video, truth = synth.generate(cfg.scene)
    synth.save_dataset(video, truth, args.out)
    print(f"wrote {len(video)} frames to {args.out}")
    return 0


def cmd_fuse(args) -> int:
    cfg = _run_config(args)
    stack = model.preprocess_frame(read_pgm(args.infile), cfg.model, cfg.fusion)
    os.makedirs(args.out, exist_ok=True)
    for i, channel in enumerate(stack):
        write_pgm(os.path.join(args.out, f"channel_{i:02d}.pgm"),
                  fusion.minmax_normalize(channel))
    save_tensors(os.path.join(args.out, "stack.lusk"),
                 {f"channel_{i:02d}": ch for i, ch in enumerate(stack)})
    print(f"wrote {len(stack)} channels to {args.out}")
    return 0


def _check_checkpoint_path(path):
    """Reject an --out that save_model cannot write, before any training."""
    if os.path.isdir(path):
        raise CheckpointError(f"{path}: cannot write checkpoint: is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise CheckpointError(f"{path}: cannot write checkpoint: no directory {parent}")


def cmd_pretrain(args) -> int:
    cfg = _run_config(args)
    _check_checkpoint_path(args.out)
    frames = synth.load_frames(args.data)
    stacks = training.compute_stacks([frames], cfg.model, cfg.fusion)[0]
    enc_params, losses = training.pretrain_encoder(stacks, cfg.model, cfg.train)
    model.save_model(args.out, enc_params, cfg.model, cfg.fusion)
    print(f"pretrained encoder: loss {losses[0]:.6f} -> {losses[-1]:.6f}, wrote {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _run_config(args)
    _check_checkpoint_path(args.out)
    init = None
    if args.init:
        init, init_cfg, init_fusion = model.read_checkpoint(args.init)
        model.check_config_match(init_cfg, cfg.model)
        model.check_config_match(init_fusion, cfg.fusion)
        model.check_params(init, cfg.model, args.init)
    frames = synth.load_frames(args.data)
    result = training.train([frames], cfg.model, cfg.fusion, cfg.train,
                            cfg.pair_count, init=init, checkpoint_path=args.out)
    training.write_loss_csv(os.path.splitext(args.out)[0] + "_loss.csv",
                            result.losses, result.lrs)
    print(f"trained {cfg.train.epochs} epochs: loss {result.losses[0]:.6f} "
          f"-> {result.losses[-1]:.6f}, wrote {args.out}")
    return 0


def _overlay(frame: np.ndarray, coords: np.ndarray) -> np.ndarray:
    out = frame.copy()
    h, w = out.shape
    for row, col in coords:
        r, c = int(round(row)), int(round(col))
        out[max(r - 1, 0):min(r + 2, h), max(c - 1, 0):min(c + 2, w)] = 1.0
    return out


def cmd_infer(args) -> int:
    cfg = _run_config(args)
    params, model_cfg, fusion_cfg = model.read_checkpoint(args.ckpt)
    model.check_params(params, model_cfg, args.ckpt, required="keynet.")
    # the checkpoint fixes model and fusion: --config, and any such key --set gives, must agree
    keys = {item.partition("=")[0].strip() for item in args.set or ()}
    for loaded, configured in ((model_cfg, cfg.model), (fusion_cfg, cfg.fusion)):
        model.check_config_match(loaded, configured, None if args.config else keys)
    frames = synth.load_frames(args.data)
    os.makedirs(args.out, exist_ok=True)
    rows, cols = frames.shape[1:]
    with atomic_open(os.path.join(args.out, "keypoints.csv")) as f:
        f.write("frame,slot,row,col\n")
        for t, frame in enumerate(frames):
            coords = model.infer_keypoints(frame, params, model_cfg, fusion_cfg)
            # the model sees an input_size square, resized align-corners (pixel
            # j reads source j*(rows-1)/(input_size-1)): map each axis back alike
            coords[:, 0] *= (rows - 1) / (model_cfg.input_size - 1)
            coords[:, 1] *= (cols - 1) / (model_cfg.input_size - 1)
            for slot, (row, col) in enumerate(coords):
                f.write(f"{t},{slot},{float(row)!r},{float(col)!r}\n")
            write_pgm(os.path.join(args.out, f"overlay_{t:05d}.pgm"),
                      _overlay(frame, coords))
    print(f"wrote keypoints for {len(frames)} frames to {args.out}")
    return 0


def read_keypoints_csv(path) -> np.ndarray:
    """(frames, k, 2) keypoints; frames 0..T-1 each list slots 0..k-1 once."""
    rows: dict[int, list] = {}
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip()
        if header != "frame,slot,row,col":
            raise DatasetError(f"{path}: unexpected header {header!r}")
        for lineno, line in enumerate(f, 2):
            try:
                t, slot, r, c = line.strip().split(",")
                t, slot, rc = int(t), int(slot), (synth.finite_float(r), synth.finite_float(c))
            except ValueError:
                raise DatasetError(
                    f"{path}:{lineno}: malformed line {line.strip()!r}") from None
            rows.setdefault(t, []).append((slot, rc))
    if not rows:
        raise DatasetError(f"{path}: no keypoints")
    frames = range(len(rows))
    k = len(rows[min(rows)])
    for t in frames:
        if t not in rows:
            raise DatasetError(f"{path}: frame {t} is missing, expected 0..{len(rows) - 1}")
        slots = sorted(slot for slot, _ in rows[t])
        if slots != list(range(k)):
            raise DatasetError(f"{path}: frame {t} has slots {slots}, expected 0..{k - 1}")
    return np.array([[rc for _, rc in sorted(rows[t])] for t in frames])


def cmd_eval(args) -> int:
    keypoints = read_keypoints_csv(os.path.join(args.pred, "keypoints.csv"))
    truth_path = os.path.join(args.truth, "truth.txt")
    if not os.path.exists(truth_path):
        raise DatasetError(f"missing truth file {truth_path}")
    truth = synth.load_truth(truth_path)
    if len(keypoints) != len(truth):
        raise DatasetError(f"{args.pred}: {len(keypoints)} prediction frames "
                           f"vs {len(truth)} truth records")
    report = evaluate.evaluate(keypoints, truth, delta=args.delta)
    evaluate.write_report(args.out, report)
    evaluate.write_frame_csv(os.path.splitext(args.out)[0] + "_frames.csv",
                             keypoints, truth, args.delta)
    print(f"pleura accuracy {report.pleura_accuracy:.4f} "
          f"({report.frames_pleura_correct}/{report.frames_total}, delta={args.delta})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lusk",
                                     description="unsupervised ultrasound keypoints")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="config override (repeatable, later wins)")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("fuse", help="export feature channels for one frame")
    common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("pretrain", help="autoencoder pretraining of the encoder")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_pretrain)

    p = sub.add_parser("train", help="main transporter training")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--init", help="initial checkpoint (e.g. pretrained encoder)")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="per-frame keypoints plus overlays")
    common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--delta", type=float, default=evaluate.DEFAULT_DELTA)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DatasetError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FloatingPointError, training.PairSamplingError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
