"""The three benchmark workloads, each a CLI command driven through the public
functions its ``shipnet`` command composes.

The loops of ``shipnet compare`` (``cli._train_one`` -> ``train.fit`` ->
``train.train_epoch``) and of ``shipnet eval`` (``train.evaluate``) are
written out here step by step, so that each train step and each eval batch
can be timed from outside the program without patching it. The benchmark's
tests check that these loops write the same files as the CLI.

Every call into shipnet goes through a module attribute (``train.fit``, not a
name imported from it), so that ``Tracer`` can wrap it in traced runs.

- ``compare``: backward, train-mode BatchNorm, augmentation, Adam and
  checkpoint writes; unit = one train step.
- ``eval``: forward only, eval-mode BatchNorm, 96 -> 64 resize and a fresh
  decode of every file per pass; unit = one batch of 32.
- ``heatmap``: batch-1 Grad-CAM and spatial-gate maps, where per-op Python and
  tape overhead outweighs BLAS work; unit = one image, decoded and overlaid
  once per checkpoint and method.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from shipnet import (config, data, heatmap, layers, metrics, models, synthetic,
                     tensor, train)

BATCH = 32
INPUT = models.ModelConfig.make("baseline", preset="tiny").input_size
VARIANTS = models.VARIANTS
ATTENTION_VARIANTS = ("cbam", "enhanced")

# Originals used by the output checks, so that checks never record spans.
_checkpoint_load = train.checkpoint_load
_checkpoint_save = train.checkpoint_save

# Batch-32 logits may differ from batch-1 logits by float32 summation order.
LOGIT_RTOL = 1e-4


@dataclass
class OpResult:
    """One CLI-equivalent operation: its wall time (output checks excluded),
    one time per unit, the images it handled, its failed units and a digest
    of its outputs, which must be equal for every op of a run."""

    wall_s: float = 0.0
    unit_s: list = field(default_factory=list)
    images: int = 0
    failed: int = 0
    digest: str = ""


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _run_config(seed, data_dir, out_dir, **keys):
    """The RunConfig the CLI builds from ``--preset tiny --batch-size 32 ...``."""
    overrides = [("preset", "tiny"), ("batch_size", str(BATCH)), ("seed", str(seed)),
                 ("data_dir", data_dir), ("out_dir", out_dir)]
    overrides += [(k, str(v)) for k, v in keys.items()]
    return config.RunConfig.load(None, overrides)


def _emit_report(out_dir, report):
    _write(os.path.join(out_dir, "report.txt"), metrics.render_table(report))
    _write(os.path.join(out_dir, "report.json"), metrics.report_to_json(report))
    _write(os.path.join(out_dir, "confusion.csv"), metrics.confusion_csv(report))


def _calibrated_checkpoint(variant, seed, batch, norm, path):
    """An untrained model whose BatchNorm running statistics are set from one
    train-mode batch, saved as a checkpoint the eval and heatmap paths load."""
    model_config = models.ModelConfig.make(variant, preset="tiny")
    model = models.build_model(model_config, seed=seed)
    bns = [m for _, m in model.modules() if isinstance(m, layers.BatchNorm2d)]
    momenta = [bn.momentum for bn in bns]
    for bn in bns:
        bn.momentum = 1.0
    model.train()
    with tensor.no_grad():
        model.forward(tensor.Tensor(batch))
    for bn, mom in zip(bns, momenta):
        bn.momentum = mom
    state = train.TrainState(model=model, config=model_config, adam=train.AdamState(),
                             seed=seed, norm_mean=norm[0], norm_std=norm[1])
    train.checkpoint_save(state, path)
    return path


def _norm_and_batch(root):
    ds, _ = data.scan_directory(root)
    mean, std = data.dataset_mean_std(ds.samples)
    norm = (tuple(float(v) for v in mean), tuple(float(v) for v in std))
    imgs = []
    for s in ds.samples[:BATCH]:
        img = s.load()
        if img.shape[1:] != INPUT:
            img = data.resize_bilinear(img, INPUT)
        imgs.append(data.normalize(img, *norm))
    return norm, np.stack(imgs).astype(np.float32)


class _Workload:
    name = unit = ""
    min_units = 100     # a p90 needs ten samples beyond it

    def final_check(self, ctx):
        """Failed units found by checks run once, after the timed phase."""
        return 0


# ---- compare ----------------------------------------------------------------


class Compare(_Workload):
    """``shipnet compare --preset tiny --epochs 3 --batch-size 32 --lr 1e-3``
    on 4 x 50 generated 64x64 images: 128 fit images make 4 full batches per
    epoch, so one op is 36 train steps, 12 per variant."""

    name = "compare"
    unit = "step"
    per_class = 50
    epochs = 3

    def setup(self, seed, root):
        corpus = os.path.join(root, "corpus")
        synthetic.generate_synthetic(corpus, per_class=self.per_class, size=64, seed=seed)
        data.scan_directory(corpus)
        return {"seed": seed, "corpus": corpus, "out": os.path.join(root, "out")}

    def op(self, ctx, tracer):
        res = OpResult()
        t0 = perf_counter()
        cfg = _run_config(ctx["seed"], ctx["corpus"], _fresh_dir(ctx["out"]),
                          epochs=self.epochs, lr="1e-3")
        losses = []
        with tracer.span("cli.compare"):
            _write(os.path.join(cfg.out_dir, "config.txt"), cfg.echo())
            ds, _ = data.scan_directory(cfg.data_dir)
            train_set, test_set = data.split_dataset(ds, ratio=cfg.split_ratio, seed=cfg.seed)
            rows = []
            for variant in VARIANTS:
                vdir = os.path.join(cfg.out_dir, variant)
                os.makedirs(vdir)
                report = self._train_one(cfg, variant, train_set, test_set, vdir, tracer,
                                         res, losses)
                rows.append((variant, report.accuracy, report.macro[2]))
            lines = ["variant\ttest_accuracy\tmacro_f1"]
            lines += [f"{v}\t{acc:.6f}\t{mf1:.6f}" for v, acc, mf1 in rows]
            tsv = "\n".join(lines) + "\n"
            _write(os.path.join(cfg.out_dir, "compare.tsv"), tsv)
        res.wall_s = perf_counter() - t0
        for variant in VARIANTS:
            ckpt_dir = os.path.join(cfg.out_dir, variant, "checkpoints")
            final = os.path.join(ckpt_dir, f"epoch_{self.epochs - 1:03d}.ckpt")
            if not _checkpoint_round_trips(final, os.path.join(ckpt_dir, "roundtrip.ckpt")):
                res.failed += 1
        res.digest = hashlib.sha256((repr(losses) + tsv).encode()).hexdigest()
        return res

    def _train_one(self, cfg, variant, train_set, test_set, out_dir, tracer, res, losses):
        model_config = cfg.model_config(variant)
        mean, std = data.dataset_mean_std(train_set.samples)
        spec = cfg.run_spec(tuple(float(v) for v in mean), tuple(float(v) for v in std))
        spec.resize_to = model_config.input_size
        # train.fit
        fit_set, val_set = data.validation_split(train_set, fraction=spec.val_fraction,
                                                 seed=spec.seed)
        model = models.build_model(model_config, seed=spec.seed)
        state = train.TrainState(model=model, config=model_config, adam=train.AdamState(),
                                 epoch=0, seed=spec.seed, norm_mean=tuple(spec.norm_mean),
                                 norm_std=tuple(spec.norm_std))
        ckpt_dir = os.path.join(out_dir, "checkpoints")
        os.makedirs(ckpt_dir)
        log_path = os.path.join(out_dir, "epochs.log")
        _write(log_path, train.LOG_HEADER + "\n")
        named_params = dict(model.named_parameters())
        for epoch in range(spec.epochs):
            lr = train.lr_schedule(epoch, spec.base_lr, spec.lr_decay_factor,
                                   spec.lr_decay_every)
            train_loss, train_acc = self._train_epoch(model, named_params, fit_set.samples,
                                                      state.adam, spec, epoch, lr, variant,
                                                      tracer, res, losses)
            with tracer.span("train.val_eval"):
                val_report, val_loss = train.evaluate(model, val_set.samples, spec,
                                                      train_set.classes)
            state.epoch = epoch + 1
            if val_report.accuracy > state.best_val_acc:
                state.best_val_acc = val_report.accuracy
                state.best_epoch = epoch
            line = train.format_log_line(epoch, lr, train_loss, train_acc, val_loss,
                                         val_report.accuracy)
            with open(log_path, "a") as fh:
                fh.write(line + "\n")
            train.checkpoint_save(state, os.path.join(ckpt_dir, f"epoch_{epoch:03d}.ckpt"))
        _write(os.path.join(ckpt_dir, "best.txt"),
               f"epoch={state.best_epoch}\nval_acc={state.best_val_acc!r}\n")
        best_state = train.checkpoint_load(
            os.path.join(ckpt_dir, f"epoch_{state.best_epoch:03d}.ckpt"),
            expected_config=model_config)
        # cli._train_one
        with tracer.span("train.test_eval"):
            report, _ = train.evaluate(best_state.model, test_set.samples, spec,
                                       test_set.classes)
        with tracer.span("metrics.report"):
            _emit_report(out_dir, report)
        _write(os.path.join(out_dir, "model_layers.txt"),
               models.layer_spec_dump(best_state.model))
        return report

    def _train_epoch(self, model, named_params, samples, adam, spec, epoch, lr, variant,
                     tracer, res, losses):
        model.train()
        total_loss = 0.0
        correct = 0
        seen = 0
        batches = train.iter_batches(samples, spec, train=True, epoch=epoch, shuffle=True)
        step_name = f"models.{variant}.step"
        for _ in range(math.ceil(len(samples) / spec.batch_size)):
            tracer.unit = len(res.unit_s)
            t0 = perf_counter()
            with tracer.span(step_name):
                with tracer.span("data.batch"):
                    x, y = next(batches)
                logits = model.forward(x)
                loss = layers.cross_entropy(logits, y)
                model.zero_grad()
                loss.backward()
                train.adam_step(named_params, adam, lr)
            res.unit_s.append(perf_counter() - t0)
            tracer.unit = None
            value = loss.item()
            if not math.isfinite(value):
                res.failed += 1
            losses.append(value)
            n = len(y)
            res.images += n
            total_loss += value * n
            correct += int((logits.data.argmax(axis=1) == y).sum())
            seen += n
        batches.close()
        return total_loss / seen, correct / seen


def _checkpoint_round_trips(path, copy):
    """save -> load -> save gives identical bytes."""
    _checkpoint_save(_checkpoint_load(path), copy)
    with open(path, "rb") as a, open(copy, "rb") as b:
        same = a.read() == b.read()
    os.remove(copy)
    return same


# ---- eval -------------------------------------------------------------------


class Eval(_Workload):
    """``shipnet eval --preset tiny --batch-size 32`` of three checkpoints over a
    held-out directory of 4 x 24 generated 96x96 images (3 full batches per
    checkpoint). One op runs the command once per checkpoint."""

    name = "eval"
    unit = "batch"
    per_class = 24

    def setup(self, seed, root):
        held_out = os.path.join(root, "held_out")
        synthetic.generate_synthetic(held_out, per_class=self.per_class, size=96, seed=seed)
        norm, batch = _norm_and_batch(held_out)
        ckpts = {v: _calibrated_checkpoint(v, seed, batch, norm,
                                           os.path.join(root, f"{v}.ckpt"))
                 for v in VARIANTS}
        return {"seed": seed, "held_out": held_out, "ckpts": ckpts,
                "out": os.path.join(root, "out")}

    def op(self, ctx, tracer):
        res = OpResult()
        t0 = perf_counter()
        outputs = []
        with tracer.span("cli.eval"):
            for variant in VARIANTS:
                state = train.checkpoint_load(ctx["ckpts"][variant])
                cfg = _run_config(ctx["seed"], ctx["held_out"],
                                  _fresh_dir(os.path.join(ctx["out"], variant)))
                ds, _ = data.scan_directory(cfg.data_dir)
                spec = cfg.run_spec(state.norm_mean, state.norm_std)
                spec.resize_to = state.config.input_size
                confusion, loss, first = self._evaluate(state.model, ds, spec, tracer, res)
                with tracer.span("metrics.report"):
                    report = metrics.MetricsReport.from_confusion(ds.classes, confusion)
                    _emit_report(cfg.out_dir, report)
                    metrics.render_table(report)    # the table the CLI prints
                if int(confusion.sum()) != len(ds.samples):
                    res.failed += math.ceil(len(ds.samples) / spec.batch_size)
                outputs.append((variant, confusion.tolist(), loss))
                ctx.setdefault("first_batch", {})[variant] = (state.model, first)  # final_check
        res.wall_s = perf_counter() - t0
        res.digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
        return res

    def _evaluate(self, model, ds, spec, tracer, res):
        # train.evaluate, timed per batch
        model.eval()
        k = len(ds.classes)
        confusion = np.zeros((k, k), dtype=np.int64)
        total_loss = 0.0
        first = None
        with tensor.no_grad():
            batches = train.iter_batches(ds.samples, spec, train=False, epoch=0, shuffle=False)
            for _ in range(math.ceil(len(ds.samples) / spec.batch_size)):
                tracer.unit = len(res.unit_s)
                t0 = perf_counter()
                with tracer.span("eval.batch"):
                    with tracer.span("data.batch"):
                        x, y = next(batches)
                    logits = model.forward(x)
                    total_loss += layers.cross_entropy(logits, y).item() * len(y)
                    pred = logits.data.argmax(axis=1)
                    np.add.at(confusion, (y, pred), 1)
                res.unit_s.append(perf_counter() - t0)
                tracer.unit = None
                res.images += len(y)
                if first is None:
                    first = (x.data, logits.data)
            batches.close()
        return confusion, total_loss / len(ds.samples), first

    def final_check(self, ctx):
        """Eval-mode logits of each checkpoint's first batch of the last op
        equal its per-image logits to LOGIT_RTOL of the largest logit."""
        failed = 0
        for model, (x, logits) in ctx["first_batch"].values():
            with tensor.no_grad():
                single = np.concatenate([model.forward(tensor.Tensor(x[i:i + 1])).data
                                         for i in range(len(x))])
            scale = 1.0 + float(np.abs(logits).max())
            failed += bool(np.abs(single - logits).max() > LOGIT_RTOL * scale)
        return failed


# ---- heatmap ----------------------------------------------------------------


class Heatmap(_Workload):
    """``shipnet heatmap --method gradcam`` and ``--method spatial-gate`` with
    the cbam and enhanced checkpoints over 4 x 4 generated 64x64 images. One op
    runs the four commands; each image is one unit covering its four maps, so
    the unit time is not split between fast and slow methods."""

    name = "heatmap"
    unit = "image"
    per_class = 4

    def setup(self, seed, root):
        images = os.path.join(root, "images")
        synthetic.generate_synthetic(images, per_class=self.per_class, size=64, seed=seed)
        norm, batch = _norm_and_batch(images)
        ckpts = {v: _calibrated_checkpoint(v, seed, batch, norm,
                                           os.path.join(root, f"{v}.ckpt"))
                 for v in ATTENTION_VARIANTS}
        dirs = sorted(os.path.join(images, d) for d in os.listdir(images))
        return {"dirs": dirs, "ckpts": ckpts, "out": os.path.join(root, "out")}

    def op(self, ctx, tracer):
        res = OpResult()
        t0 = perf_counter()
        _fresh_dir(ctx["out"])
        written = []    # per image: (map, input extents, overlay path) of its four maps
        with tracer.span("cli.heatmap"):
            states = {v: train.checkpoint_load(ctx["ckpts"][v]) for v in ATTENTION_VARIANTS}
            for image_dir in ctx["dirs"]:
                names = sorted(f for f in os.listdir(image_dir) if f.endswith(".ppm"))
                outs = {(v, m): os.path.join(ctx["out"], f"{v}.{m}", os.path.basename(image_dir))
                        for v in ATTENTION_VARIANTS for m in heatmap.METHODS}
                for out_dir in outs.values():
                    os.makedirs(out_dir)
                for fname in names:
                    tracer.unit = len(res.unit_s)
                    start = perf_counter()
                    maps = []
                    with tracer.span("heatmap.image"):
                        for (variant, method), out_dir in outs.items():
                            dst = os.path.join(out_dir, f"{fname[:-4]}.{method}.ppm")
                            maps.append(self._one_map(states[variant], method,
                                                      os.path.join(image_dir, fname), dst))
                    res.unit_s.append(perf_counter() - start)
                    tracer.unit = None
                    res.images += 1
                    written.append(maps)
        res.wall_s = perf_counter() - t0
        digest = hashlib.sha256()
        res.failed = sum(not all([_map_ok(*m, digest) for m in maps]) for maps in written)
        res.digest = digest.hexdigest()
        return res

    @staticmethod
    def _one_map(state, method, src, dst):
        # the per-image body of cli.cmd_heatmap
        img = data.read_ppm(src)
        if img.shape[1:] != tuple(state.config.input_size):
            img = data.resize_bilinear(img, state.config.input_size)
        img_norm = data.normalize(img, state.norm_mean, state.norm_std)
        if method == "spatial-gate":
            heat = heatmap.spatial_gate_map(state.model, img_norm, stage=None)
        else:
            heat = heatmap.gradcam_map(state.model, img_norm, stage=5, target_class=None)
        heatmap.overlay_emit(img, heat, dst)
        return heat, img.shape[1:], dst


def _map_ok(heat, extents, path, digest):
    """A finite map in [0,1] at the input's extents, written as a decodable PPM."""
    with open(path, "rb") as fh:
        raw = fh.read()
    digest.update(raw)
    ok = (heat.shape == tuple(extents) and bool(np.all(np.isfinite(heat)))
          and float(heat.min()) >= 0.0 and float(heat.max()) <= 1.0)
    try:
        return ok and data.decode_ppm(raw).shape == (3,) + tuple(extents)
    except ValueError:
        return False


WORKLOADS = {w.name: w for w in (Compare(), Eval(), Heatmap())}
