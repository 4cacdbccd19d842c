"""Training regimen: Adam with step-decay schedule, seeded epoch loop with
on-the-fly augmentation, per-epoch checkpointing, best-on-validation
selection, and evaluation into a metrics report."""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import augment, normalize, resize_bilinear, validation_split
from .layers import cross_entropy
from .metrics import MetricsReport
from .models import ModelConfig, build_model


# ---- optimizer --------------------------------------------------------------


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def ensure(self, name, param):
        if name not in self.m:
            self.m[name] = np.zeros_like(param.data)
            self.v[name] = np.zeros_like(param.data)


def adam_step(named_params, state, lr):
    """One Adam update over ``{name: Tensor}`` using each tensor's grad."""
    if lr < 0:
        raise ValueError("learning rate must be >= 0")
    state.t += 1
    bc1 = 1.0 - state.beta1**state.t
    bc2 = 1.0 - state.beta2**state.t
    for name, p in named_params.items():
        state.ensure(name, p)
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} != param shape {p.data.shape} for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        p.data -= (lr * mhat / (np.sqrt(vhat) + state.eps)).astype(p.dtype)


def lr_schedule(epoch, base_lr=1e-4, factor=0.1, every=10):
    """Step decay: base_lr * factor^floor(epoch/every)."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    return base_lr * factor ** (epoch // every)


# ---- run specification ------------------------------------------------------


@dataclass
class RunSpec:
    epochs: int = 30
    batch_size: int = 128
    base_lr: float = 1e-4
    lr_decay_factor: float = 0.1
    lr_decay_every: int = 10
    seed: int = 42
    val_fraction: float = 0.2
    augment: bool = True
    rotation_deg: float = 10.0
    hflip: bool = True
    vflip: bool = True
    drop_last: bool = False
    workers: int = 1
    norm_mean: tuple = (0.5, 0.5, 0.5)
    norm_std: tuple = (0.25, 0.25, 0.25)
    resize_to: tuple | None = None


@dataclass
class TrainState:
    model: object
    config: ModelConfig
    adam: AdamState
    epoch: int = 0          # epochs completed
    seed: int = 0
    best_val_acc: float = -1.0
    best_epoch: int = -1
    norm_mean: tuple = (0.5, 0.5, 0.5)
    norm_std: tuple = (0.25, 0.25, 0.25)


# ---- batching ---------------------------------------------------------------


def _epoch_rng(seed, epoch, *key):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(epoch,) + key)))


def _prepare_sample(sample, spec, train, seed, epoch, index):
    img = sample.load()
    if spec.resize_to is not None and img.shape[1:] != tuple(spec.resize_to):
        img = resize_bilinear(img, spec.resize_to)
    if train and spec.augment:
        # per-sample stream keyed by (epoch, index): worker-count independent
        rng = _epoch_rng(seed, epoch, 1, index)
        img = augment(img, rng, max_rotation_deg=spec.rotation_deg,
                      hflip=spec.hflip, vflip=spec.vflip)
    return normalize(img, spec.norm_mean, spec.norm_std)


def iter_batches(samples, spec, train, epoch, shuffle):
    """Deterministic batch stream: seeded shuffle, sequential batches, the
    short final batch kept unless drop_last."""
    order = np.arange(len(samples))
    if shuffle:
        order = _epoch_rng(spec.seed, epoch, 0).permutation(len(samples))
    bs = spec.batch_size
    if bs < 1:
        raise ValueError("batch_size must be >= 1")
    pool = ThreadPoolExecutor(spec.workers) if spec.workers > 1 else None
    try:
        for start in range(0, len(order), bs):
            idx = order[start : start + bs]
            if spec.drop_last and train and len(idx) < bs:
                break
            batch_samples = [samples[i] for i in idx]
            if pool is not None:
                imgs = list(pool.map(
                    lambda si: _prepare_sample(si[1], spec, train, spec.seed, epoch, si[0]),
                    zip(idx, batch_samples)))
            else:
                imgs = [_prepare_sample(s, spec, train, spec.seed, epoch, i)
                        for i, s in zip(idx, batch_samples)]
            x = np.stack(imgs).astype(np.float32, copy=False)
            y = np.array([s.label for s in batch_samples], dtype=np.int64)
            yield T.Tensor(x), y
    finally:
        if pool is not None:
            pool.shutdown()


# ---- epoch loop -------------------------------------------------------------


def train_epoch(model, named_params, samples, adam, spec, epoch):
    """Seeded shuffle; per batch: augment, forward(train), cross-entropy,
    backward, Adam. Returns (mean loss, accuracy) over the epoch; a
    non-finite loss raises RuntimeError before its update is applied, and
    the floating-point warnings of the diverging step stay silent."""
    if not samples:
        raise ValueError("empty training set")
    model.train()
    lr = lr_schedule(epoch, spec.base_lr, spec.lr_decay_factor, spec.lr_decay_every)
    total_loss = 0.0
    correct = 0
    seen = 0
    batches = iter_batches(samples, spec, train=True, epoch=epoch, shuffle=True)
    for batch, (x, y) in enumerate(batches):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            logits = model.forward(x)
            loss = cross_entropy(logits, y)
            value = loss.item()
            if not math.isfinite(value):
                raise RuntimeError(f"training diverged: loss {value} at epoch {epoch}, "
                                   f"batch {batch}")
            model.zero_grad()
            loss.backward()
            adam_step(named_params, adam, lr)
        n = len(y)
        total_loss += value * n
        correct += int((logits.data.argmax(axis=1) == y).sum())
        seen += n
    return total_loss / seen, correct / seen


def evaluate(model, samples, spec, classes):
    """Eval-mode forward over the whole set; argmax with lowest-index
    tie-break fills the confusion matrix."""
    if not samples:
        raise ValueError("empty evaluation set")
    model.eval()
    k = len(classes)
    confusion = np.zeros((k, k), dtype=np.int64)
    total_loss = 0.0
    with T.no_grad():
        for x, y in iter_batches(samples, spec, train=False, epoch=0, shuffle=False):
            logits = model.forward(x)
            if logits.shape[1] != k:
                raise ValueError(f"model scores {logits.shape[1]} classes, "
                                 f"the evaluation set has {k}")
            total_loss += cross_entropy(logits, y).item() * len(y)
            pred = logits.data.argmax(axis=1)
            np.add.at(confusion, (y, pred), 1)
    report = MetricsReport.from_confusion(classes, confusion)
    return report, total_loss / len(samples)


# ---- checkpoint format ------------------------------------------------------

_CKPT_MAGIC = b"CBCK"
_CKPT_VERSION = 1


def _write_block(fh, text):
    raw = text.encode()
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)


def _read_block(raw, offset):
    (n,), offset = T.unpack("<I", raw, offset)
    (text,), offset = T.unpack(f"<{n}s", raw, offset)
    return text.decode(), offset


def checkpoint_save(state, path):
    """``CBCK`` container: config text, run metadata, named tensor table
    (parameters, batchnorm buffers, Adam moments)."""
    tensors = {}
    for name, p in state.model.named_parameters():
        tensors[f"param.{name}"] = p.data
    for name, b in state.model.named_buffers():
        tensors[f"buffer.{name}"] = b.data
    for name, m in state.adam.m.items():
        tensors[f"adam.m.{name}"] = m
    for name, v in state.adam.v.items():
        tensors[f"adam.v.{name}"] = v

    meta = {
        "adam_beta1": repr(state.adam.beta1),
        "adam_beta2": repr(state.adam.beta2),
        "adam_eps": repr(state.adam.eps),
        "adam_t": str(state.adam.t),
        "best_epoch": str(state.best_epoch),
        "best_val_acc": repr(state.best_val_acc),
        "epoch": str(state.epoch),
        "norm_mean": ",".join(repr(v) for v in state.norm_mean),
        "norm_std": ",".join(repr(v) for v in state.norm_std),
        "seed": str(state.seed),
    }
    meta_text = "".join(f"{k}={meta[k]}\n" for k in sorted(meta))

    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<H", _CKPT_VERSION))
        _write_block(fh, state.config.to_text())
        _write_block(fh, meta_text)
        fh.write(struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            raw_name = name.encode()
            fh.write(struct.pack("<H", len(raw_name)))
            fh.write(raw_name)
            T.write_record(fh, tensors[name])
    os.replace(tmp, path)


def checkpoint_load(path, expected_config=None):
    """Rebuilds a TrainState. The config (against ``expected_config`` when
    given), the metadata and the name, shape and dtype of every tensor are
    checked before any tensor is assigned; a malformed file raises
    ValueError naming ``path``."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _decode_checkpoint(raw, expected_config)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _decode_checkpoint(raw, expected_config):
    if raw[:4] != _CKPT_MAGIC:
        raise ValueError(f"bad checkpoint magic {raw[:4]!r}")
    (version,), offset = T.unpack("<H", raw, 4)
    if version != _CKPT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    config_text, offset = _read_block(raw, offset)
    meta_text, offset = _read_block(raw, offset)
    config = ModelConfig.from_text(config_text)
    if expected_config is not None and expected_config.to_text() != config_text:
        raise ValueError("checkpoint config does not match the requested model")
    meta = dict(line.partition("=")[::2] for line in meta_text.splitlines())
    try:
        adam = AdamState(beta1=float(meta["adam_beta1"]), beta2=float(meta["adam_beta2"]),
                         eps=float(meta["adam_eps"]), t=int(meta["adam_t"]))
        run = dict(epoch=int(meta["epoch"]), seed=int(meta["seed"]),
                   best_val_acc=float(meta["best_val_acc"]),
                   best_epoch=int(meta["best_epoch"]),
                   norm_mean=tuple(float(v) for v in meta["norm_mean"].split(",")),
                   norm_std=tuple(float(v) for v in meta["norm_std"].split(",")))
    except KeyError as exc:
        raise ValueError(f"checkpoint metadata has no {exc.args[0]} key") from None

    (count,), offset = T.unpack("<I", raw, offset)
    tensors = {}
    for _ in range(count):
        (name_len,), offset = T.unpack("<H", raw, offset)
        (name,), offset = T.unpack(f"<{name_len}s", raw, offset)
        name = name.decode()
        if name in tensors:
            raise ValueError(f"tensor {name} stored twice")
        tensors[name], offset = T.read_record(raw, offset)
    if offset != len(raw):
        raise ValueError(f"{len(raw) - offset} trailing bytes after the tensor table")

    model = build_model(config, seed=None)
    params = dict(model.named_parameters())
    slots = {f"param.{n}": p for n, p in params.items()}
    slots.update((f"buffer.{n}", b) for n, b in model.named_buffers())
    missing = set(slots) - set(tensors)
    if missing:
        raise ValueError(f"tensor table lacks {len(missing)} of the model's "
                         f"{len(slots)} tensors, e.g. {min(missing)}")
    for name, arr in tensors.items():
        if name in slots:
            like = slots[name]
        elif name[:7] in ("adam.m.", "adam.v.") and name[7:] in params:
            like = params[name[7:]]
        else:
            raise ValueError(f"tensor {name} belongs to no model parameter or buffer")
        if arr.shape != like.shape or arr.dtype != like.dtype:
            raise ValueError(f"{name} is {arr.dtype.name}{list(arr.shape)}, the model "
                             f"expects {like.dtype.name}{list(like.shape)}")
    moments = {"adam.m.": adam.m, "adam.v.": adam.v}
    for name, arr in tensors.items():
        if name[:7] in moments:
            moments[name[:7]][name[7:]] = arr
    if adam.m.keys() != adam.v.keys():
        raise ValueError("Adam first and second moments cover different parameters")

    for name, t in slots.items():
        t.data = tensors[name]
    return TrainState(model=model, config=config, adam=adam, **run)


# ---- full regimen -----------------------------------------------------------

LOG_HEADER = "epoch\tlr\ttrain_loss\ttrain_acc\tval_loss\tval_acc"


def format_log_line(epoch, lr, train_loss, train_acc, val_loss, val_acc):
    return (f"{epoch}\t{lr:.8g}\t{train_loss:.6f}\t{train_acc:.4f}"
            f"\t{val_loss:.6f}\t{val_acc:.4f}")


def fit(config, train_set, spec, out_dir=None, resume_state=None, log_fn=None):
    """Run the full regimen on a training set: stratified fit/val split,
    seeded epochs, checkpoint per epoch, best-on-validation tracking.

    Returns (final TrainState, best TrainState or None, log lines).
    The best state is reloaded from its checkpoint when that checkpoint is
    in ``out_dir``; it is None without ``out_dir`` or when a resumed run's
    best epoch precedes the resume point. A non-finite validation loss
    raises RuntimeError before the epoch is logged or checkpointed.
    """
    fit_set, val_set = validation_split(train_set, fraction=spec.val_fraction,
                                        seed=spec.seed)
    state = resume_state
    if state is None:
        model = build_model(config, seed=spec.seed)
        state = TrainState(model=model, config=config, adam=AdamState(),
                           epoch=0, seed=spec.seed,
                           norm_mean=tuple(spec.norm_mean),
                           norm_std=tuple(spec.norm_std))
    elif state.config.to_text() != config.to_text():
        raise ValueError("resume checkpoint config does not match the requested model")

    ckpt_dir = None
    log_path = None
    if out_dir is not None:
        ckpt_dir = os.path.join(out_dir, "checkpoints")
        os.makedirs(ckpt_dir, exist_ok=True)
        log_path = os.path.join(out_dir, "epochs.log")
        if state.epoch == 0 or not os.path.exists(log_path):
            with open(log_path, "w") as fh:
                fh.write(LOG_HEADER + "\n")

    named_params = dict(state.model.named_parameters())
    lines = []
    for epoch in range(state.epoch, spec.epochs):
        lr = lr_schedule(epoch, spec.base_lr, spec.lr_decay_factor, spec.lr_decay_every)
        train_loss, train_acc = train_epoch(
            state.model, named_params, fit_set.samples, state.adam, spec, epoch)
        val_report, val_loss = evaluate(state.model, val_set.samples, spec,
                                        train_set.classes)
        if not math.isfinite(val_loss):
            raise RuntimeError(f"training diverged: validation loss {val_loss} after "
                               f"epoch {epoch}")
        state.epoch = epoch + 1
        if val_report.accuracy > state.best_val_acc:
            state.best_val_acc = val_report.accuracy
            state.best_epoch = epoch
        line = format_log_line(epoch, lr, train_loss, train_acc, val_loss,
                               val_report.accuracy)
        lines.append(line)
        if log_fn is not None:
            log_fn(line)
        if log_path is not None:
            with open(log_path, "a") as fh:
                fh.write(line + "\n")
        if ckpt_dir is not None:
            checkpoint_save(state, os.path.join(ckpt_dir, f"epoch_{epoch:03d}.ckpt"))

    best_state = None
    if ckpt_dir is not None and state.best_epoch >= 0:
        with open(os.path.join(ckpt_dir, "best.txt"), "w") as fh:
            fh.write(f"epoch={state.best_epoch}\nval_acc={state.best_val_acc!r}\n")
        best_path = os.path.join(ckpt_dir, f"epoch_{state.best_epoch:03d}.ckpt")
        # a resumed run may not hold the pre-resume best checkpoint
        if os.path.exists(best_path):
            best_state = checkpoint_load(best_path, expected_config=config)
    return state, best_state, lines
