"""SSIM-gated pair sampling, autoencoder pretraining and the main
transporter training loop.

The whole run is deterministic given the config seed: parameter init,
pair sampling and batch order all draw from one seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fusion, model
from .synth import DatasetError
from .tensor import Adam, Tensor, atomic_open, mse
from .tensor import conv2d  # noqa: F401  unused; perfbench/tracing.py wraps train.conv2d


class PairSamplingError(RuntimeError):
    pass


# sample_pairs gives up after this many draws per pair asked for
PAIR_RETRY_FACTOR = 50


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 60
    batch_size: int = 32
    lr0: float = 0.001
    lr_decay: float = 0.95
    lr_interval: int = 6
    ssim_threshold: float = 0.85
    max_pair_gap: int = 10
    seed: int = 0
    use_ssim_gate: bool = True
    pretrain_epochs: int = 10
    checkpoint_every: int = 10

    def __post_init__(self):
        for name in ("lr0", "lr_decay", "ssim_threshold"):
            object.__setattr__(self, name, fusion.as_float(name, getattr(self, name)))
        if not 0.0 < self.ssim_threshold <= 1.0:
            raise ValueError(f"ssim_threshold must be in (0,1], got {self.ssim_threshold}")
        for name in ("lr0", "lr_decay"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for name in ("epochs", "batch_size", "lr_interval", "max_pair_gap",
                     "pretrain_epochs", "checkpoint_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class PairSample:
    video: int
    source: int
    target: int
    ssim: float


@dataclass
class TrainResult:
    params: dict
    losses: list          # mean loss per epoch
    lrs: list             # lr per epoch


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Step-decayed learning rate: lr0 * decay^floor(epoch / interval)."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    return cfg.lr0 * cfg.lr_decay ** (epoch // cfg.lr_interval)


def sample_pairs(videos, cfg: TrainConfig, count: int,
                 rng: np.random.Generator) -> list[PairSample]:
    """Uniformly sample same-video frame pairs with |i-j| <= max_pair_gap.

    With the SSIM gate on, pairs below the threshold are rejected and
    resampled; runs out of retries with a diagnostic acceptance rate.
    SSIM is symmetric, so each unordered frame pair is scored once.
    """
    for v, frames in enumerate(videos):
        if len(frames) < 2:
            raise DatasetError(f"video {v} has fewer than 2 frames")
        if min(frames[0].shape) < fusion.SSIM_WINDOW_SIZE:
            raise DatasetError(f"video {v} has {frames[0].shape} frames, smaller than the "
                               f"{fusion.SSIM_WINDOW_SIZE}x{fusion.SSIM_WINDOW_SIZE} SSIM window")
    pairs: list[PairSample] = []
    scores: dict[tuple[int, int, int], float] = {}
    attempts = 0
    budget = PAIR_RETRY_FACTOR * count
    while len(pairs) < count:
        if attempts >= budget:
            rate = len(pairs) / attempts if attempts else 0.0
            raise PairSamplingError(
                f"could not sample {count} pairs within {budget} attempts "
                f"(acceptance rate {rate:.3f}, ssim_threshold {cfg.ssim_threshold})")
        attempts += 1
        v = int(rng.integers(len(videos)))
        n = len(videos[v])
        i = int(rng.integers(n))
        lo = max(0, i - cfg.max_pair_gap)
        hi = min(n - 1, i + cfg.max_pair_gap)
        j = int(rng.integers(lo, hi + 1))
        if j == i:
            continue
        key = (v, min(i, j), max(i, j))
        if key not in scores:
            scores[key] = fusion.ssim(videos[v][i], videos[v][j])
        s = scores[key]
        if cfg.use_ssim_gate and s < cfg.ssim_threshold:
            continue
        pairs.append(PairSample(video=v, source=i, target=j, ssim=s))
    return pairs


def compute_stacks(videos, model_cfg: model.ModelConfig,
                   fusion_cfg: fusion.FusionConfig):
    """Per-frame feature stacks for every video, computed once and cached:
    one float32 (frames, channels, size, size) array per video, filled in
    place."""
    size = model_cfg.input_size
    stacks = []
    for frames in videos:
        stack = np.empty((len(frames), model_cfg.input_channels, size, size), np.float32)
        for i, frame in enumerate(frames):
            stack[i] = model.preprocess_frame(frame, model_cfg, fusion_cfg)
        stacks.append(stack)
    return stacks


def _epochs(opt: Adam, n: int, batch_loss, cfg: TrainConfig,
            rng: np.random.Generator, epochs: int):
    """Adam over `epochs` shuffles of n examples in batches of
    cfg.batch_size; batch_loss(indices) builds one batch's loss. Yields
    (epoch, mean batch loss, lr) after each epoch."""
    for epoch in range(epochs):
        lr = lr_at(epoch, cfg)
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            loss = batch_loss(order[start:start + cfg.batch_size])
            value = loss.item()
            if not np.isfinite(value):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, batch {start // cfg.batch_size}")
            loss.backward()
            opt.step(lr)
            batch_losses.append(value)
        yield epoch, float(np.mean(batch_losses)), lr


# -- autoencoder pretraining ----------------------------------------------------


def pretrain_encoder(stacks: np.ndarray, model_cfg: model.ModelConfig,
                     cfg: TrainConfig) -> tuple[dict[str, Tensor], list]:
    """Train the encoder and the model's refine decoder on stack reconstruction.

    Returns (encoder parameters only, per-epoch losses); the decoder is
    discarded.
    """
    stacks = np.asarray(stacks, dtype=np.float32)
    if stacks.ndim != 4 or stacks.shape[0] < 1:
        raise ValueError(f"expected (N, C, H, W) stacks, got {stacks.shape}")
    rng = np.random.default_rng(cfg.seed)
    params = {name: p for name, p in model.init_params(model_cfg, rng).items()
              if name.startswith(("encoder.", "refine."))}
    enc_params = {k: v for k, v in params.items() if k.startswith("encoder.")}
    opt = Adam(params, lr=cfg.lr0)

    def batch_loss(idx):
        batch = Tensor(stacks[idx])
        recon = model.refine(model.encode(batch, params, model_cfg), params, model_cfg)
        return mse(recon, batch)

    epochs = _epochs(opt, stacks.shape[0], batch_loss, cfg, rng, cfg.pretrain_epochs)
    return enc_params, [loss for _, loss, _ in epochs]


# -- main training loop -----------------------------------------------------------


def train(videos, model_cfg: model.ModelConfig, fusion_cfg: fusion.FusionConfig,
          cfg: TrainConfig, pair_count: int,
          init: dict[str, Tensor] | None = None,
          checkpoint_path=None) -> TrainResult:
    """Main transporter training.

    Per step: batch of sampled pairs, encode + keynet both frames,
    transport, refine, MSE against the target stack, Adam update at the
    epoch's learning rate. Deterministic given cfg.seed.
    """
    rng = np.random.default_rng(cfg.seed)
    params = model.init_params(model_cfg, rng)
    if init is not None:
        for name, tensor in init.items():
            if name in params:
                params[name] = Tensor(tensor.data.astype(np.float32), requires_grad=True)
    pairs = sample_pairs(videos, cfg, pair_count, rng)
    stacks = compute_stacks(videos, model_cfg, fusion_cfg)

    def batch_loss(idx):
        batch = [pairs[i] for i in idx]
        src = Tensor(np.stack([stacks[p.video][p.source] for p in batch]))
        tgt = Tensor(np.stack([stacks[p.video][p.target] for p in batch]))
        return mse(model.reconstruct(src, tgt, params, model_cfg), tgt)

    losses, lrs = [], []
    opt = Adam(params, lr=cfg.lr0)
    for epoch, loss, lr in _epochs(opt, len(pairs), batch_loss, cfg, rng, cfg.epochs):
        losses.append(loss)
        lrs.append(lr)
        done = epoch + 1
        if checkpoint_path and (done % cfg.checkpoint_every == 0 or done == cfg.epochs):
            model.save_model(checkpoint_path, params, model_cfg, fusion_cfg)
    return TrainResult(params=params, losses=losses, lrs=lrs)


def write_loss_csv(path, losses, lrs):
    with atomic_open(path) as f:
        f.write("epoch,mean_loss,lr\n")
        for epoch, (loss, lr) in enumerate(zip(losses, lrs)):
            f.write(f"{epoch},{loss!r},{lr!r}\n")
