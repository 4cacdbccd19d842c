"""Command-line entry point: synthetic corpus generation, training,
evaluation, three-way comparative runs, heatmap export and the gradient
verification sweep."""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time

from .config import RunConfig
from .data import (dataset_mean_std, exclude_small_classes, normalize,
                   read_ppm, resize_bilinear, scan_directory, split_dataset)
from .gradcheck import run_sweep
from .heatmap import METHODS, gradcam_map, overlay_emit, spatial_gate_map
from .metrics import confusion_csv, render_table, report_to_json, round2
from .models import STAGES, layer_spec_dump
from .synthetic import FAMILIES, generate_synthetic
from .train import checkpoint_load, evaluate, fit


class CliError(Exception):
    """User/config error; exits 2 without touching the filesystem."""


def _add_config_flags(sub):
    sub.add_argument("--config", help="key=value config file")
    sub.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config key (repeatable)")
    sub.add_argument("--data", help="dataset root (overrides data_dir)")
    sub.add_argument("--out", help="run output directory (overrides out_dir)")
    sub.add_argument("--force", action="store_true",
                     help="clear the output directory if it already has content")
    for flag, key in (("--variant", "variant"), ("--preset", "preset"),
                      ("--seed", "seed"), ("--epochs", "epochs"),
                      ("--batch-size", "batch_size"), ("--lr", "lr"),
                      ("--workers", "workers")):
        sub.add_argument(flag, dest=f"key_{key}", metavar=key.upper())


def _load_config(args):
    overrides = []
    for item in args.set:
        if "=" not in item:
            raise CliError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        overrides.append((key.strip(), value.strip()))
    for key in ("variant", "preset", "seed", "epochs", "batch_size", "lr", "workers"):
        value = getattr(args, f"key_{key}", None)
        if value is not None:
            overrides.append((key, value))
    if getattr(args, "data", None):
        overrides.append(("data_dir", args.data))
    if getattr(args, "out", None):
        overrides.append(("out_dir", args.out))
    try:
        return RunConfig.load(args.config, overrides)
    except (KeyError, ValueError, OSError) as exc:
        raise CliError(str(exc)) from exc


def _prepare_out_dir(path, force):
    if not path:
        raise CliError("an output directory is required (--out or out_dir=...)")
    if os.path.exists(path) and os.listdir(path):
        if not force:
            raise CliError(f"output directory {path} is not empty; pass --force to clobber")
        shutil.rmtree(path)
    os.makedirs(path, exist_ok=True)
    return path


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _emit_run_metadata(out_dir, cfg):
    _write(os.path.join(out_dir, "config.txt"), cfg.echo())
    # the only file carrying wall-clock state
    _write(os.path.join(out_dir, "metadata.txt"),
           f"created_unix={time.time():.3f}\n")


def _load_dataset(cfg, out_dir, num_classes):
    ds, report = scan_directory(cfg.data_dir, lenient=cfg.lenient_scan)
    if report.skipped:
        _write(os.path.join(out_dir, "cleaning_report.txt"), report.render())
    if cfg.exclude_below > 0:
        ds, dropped = exclude_small_classes(ds, ratio=cfg.split_ratio,
                                            threshold=cfg.exclude_below)
        if dropped:
            _write(os.path.join(out_dir, "excluded_classes.txt"),
                   "".join(f"{c}\n" for c in dropped))
    if len(ds.classes) != num_classes:
        raise CliError(f"dataset has {len(ds.classes)} classes but the model has "
                       f"num_classes={num_classes}")
    return ds


def _resolve_norm(cfg, samples):
    if cfg.norm == "custom":
        return tuple(cfg.norm_mean), tuple(cfg.norm_std)
    mean, std = dataset_mean_std(samples)
    return tuple(float(v) for v in mean), tuple(float(v) for v in std)


def _emit_report(out_dir, report, prefix="report"):
    _write(os.path.join(out_dir, f"{prefix}.txt"), render_table(report))
    _write(os.path.join(out_dir, f"{prefix}.json"), report_to_json(report))
    if report.confusion is not None:
        _write(os.path.join(out_dir, "confusion.csv"), confusion_csv(report))


def _train_one(cfg, variant, train_set, test_set, out_dir, log_prefix="",
               resume_path=None):
    """Fit one variant (from scratch or from the checkpoint at
    ``resume_path``), then report the best-on-validation model on the test
    split."""
    model_config = cfg.model_config(variant)
    if resume_path is None:
        resume_state = None
        norm_mean, norm_std = _resolve_norm(cfg, train_set.samples)
    else:
        resume_state = checkpoint_load(resume_path, expected_config=model_config)
        norm_mean, norm_std = resume_state.norm_mean, resume_state.norm_std
    spec = cfg.run_spec(norm_mean, norm_std)

    def log(line):
        print(f"{log_prefix}{line}")

    print(f"{log_prefix}{len(train_set)} train / {len(test_set)} test samples; "
          f"variant={variant}")
    state, best_state, _ = fit(model_config, train_set, spec, out_dir=out_dir,
                               resume_state=resume_state, log_fn=log)
    if best_state is None and resume_path is not None:
        # the best epoch preceded the resume point: its checkpoint sits
        # beside the one the run resumed from
        best_state = checkpoint_load(
            os.path.join(os.path.dirname(resume_path), f"epoch_{state.best_epoch:03d}.ckpt"),
            expected_config=model_config)
    chosen = best_state if best_state is not None else state
    report, test_loss = evaluate(chosen.model, test_set.samples, spec, test_set.classes)
    _emit_report(out_dir, report)
    _write(os.path.join(out_dir, "model_layers.txt"), layer_spec_dump(chosen.model))
    print(f"{log_prefix}test accuracy {report.accuracy:.4f} "
          f"(best val epoch {state.best_epoch})")
    return report


def cmd_gen_synth(args):
    if args.classes < 1 or args.classes > len(FAMILIES):
        raise CliError(f"--classes must be in [1, {len(FAMILIES)}]")
    out = _prepare_out_dir(args.out, args.force)
    paths = generate_synthetic(out, per_class=args.per_class, size=args.size,
                               seed=args.seed, classes=FAMILIES[: args.classes])
    print(f"wrote {len(paths)} images across {args.classes} classes under {out}")
    return 0


def cmd_train(args):
    cfg = _load_config(args)
    if args.force and args.resume and cfg.out_dir:
        out = os.path.realpath(cfg.out_dir)
        if os.path.commonpath([out, os.path.realpath(args.resume)]) == out:
            raise CliError(f"--resume {args.resume} lies inside {cfg.out_dir}, which "
                           "--force would clear; resume into another directory")
    out_dir = _prepare_out_dir(cfg.out_dir, args.force)
    _emit_run_metadata(out_dir, cfg)
    ds = _load_dataset(cfg, out_dir, cfg.num_classes)
    train_set, test_set = split_dataset(ds, ratio=cfg.split_ratio, seed=cfg.seed)
    _train_one(cfg, cfg.variant, train_set, test_set, out_dir, resume_path=args.resume)
    return 0


def cmd_eval(args):
    cfg = _load_config(args)
    state = checkpoint_load(args.checkpoint)
    out_dir = _prepare_out_dir(cfg.out_dir, args.force)
    _emit_run_metadata(out_dir, cfg)
    # the class count, like the model and the resize, comes from the checkpoint
    ds = _load_dataset(cfg, out_dir, state.config.num_classes)
    if args.split != "full":
        train_set, test_set = split_dataset(ds, ratio=cfg.split_ratio, seed=cfg.seed)
        ds = train_set if args.split == "train" else test_set
    spec = cfg.run_spec(state.norm_mean, state.norm_std)
    spec.resize_to = state.config.input_size
    report, loss = evaluate(state.model, ds.samples, spec, ds.classes)
    _emit_report(out_dir, report)
    print(render_table(report))
    print(f"loss {loss:.6f}")
    return 0


def cmd_compare(args):
    cfg = _load_config(args)
    out_dir = _prepare_out_dir(cfg.out_dir, args.force)
    _emit_run_metadata(out_dir, cfg)
    ds = _load_dataset(cfg, out_dir, cfg.num_classes)
    # one shared split and seed across all variants
    train_set, test_set = split_dataset(ds, ratio=cfg.split_ratio, seed=cfg.seed)
    rows = []
    for variant in ("baseline", "cbam", "enhanced"):
        vdir = os.path.join(out_dir, variant)
        os.makedirs(vdir, exist_ok=True)
        report = _train_one(cfg, variant, train_set, test_set, vdir,
                            log_prefix=f"[{variant}] ")
        rows.append((variant, report.accuracy, report.macro[2]))
    lines = ["variant\ttest_accuracy\tmacro_f1"]
    for variant, acc, mf1 in rows:
        lines.append(f"{variant}\t{acc:.6f}\t{mf1:.6f}")
    _write(os.path.join(out_dir, "compare.tsv"), "\n".join(lines) + "\n")
    print("\nvariant        accuracy  macro-F1")
    for variant, acc, mf1 in rows:
        print(f"{variant:<12}{round2(acc):>8.2f}{round2(mf1):>10.2f}")
    return 0


def cmd_heatmap(args):
    state = checkpoint_load(args.checkpoint)
    model = state.model
    if args.method == "spatial-gate" and not state.config.cbam_stages:
        raise CliError("spatial-gate maps need an attention-equipped variant; "
                       "use --method gradcam for the baseline")

    if os.path.isdir(args.image):
        images = sorted(os.path.join(args.image, f) for f in os.listdir(args.image)
                        if f.endswith(".ppm"))
        if not images:
            raise CliError(f"no .ppm files under {args.image}")
        os.makedirs(args.out, exist_ok=True)
        outs = [os.path.join(args.out,
                             os.path.splitext(os.path.basename(p))[0]
                             + f".{args.method}.ppm")
                for p in images]
    else:
        images = [args.image]
        outs = [args.out]

    for src, dst in zip(images, outs):
        img = read_ppm(src)
        if img.shape[1:] != tuple(state.config.input_size):
            img = resize_bilinear(img, state.config.input_size)
        img_norm = normalize(img, state.norm_mean, state.norm_std)
        if args.method == "spatial-gate":
            heat = spatial_gate_map(model, img_norm, stage=args.stage)
        else:
            heat = gradcam_map(model, img_norm,
                               stage=args.stage if args.stage is not None else 5,
                               target_class=args.target_class)
        overlay_emit(img, heat, dst)
        print(f"wrote {dst}")
    return 0


def cmd_gradcheck(args):
    results = run_sweep(seed=args.seed, emit=print)
    return 0 if all(ok for _, _, _, ok in results) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="shipnet",
        description="Ship classifiers with channel/spatial attention: "
                    "data generation, training, evaluation and visualization.")
    subs = parser.add_subparsers(dest="command", required=True)

    g = subs.add_parser("gen-synth", help="generate the synthetic ship corpus")
    g.add_argument("--classes", type=int, default=4)
    g.add_argument("--per-class", type=int, required=True)
    g.add_argument("--size", type=int, default=64)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--out", required=True)
    g.add_argument("--force", action="store_true")
    g.set_defaults(fn=cmd_gen_synth)

    t = subs.add_parser("train", help="train one variant and report on the test split")
    _add_config_flags(t)
    t.add_argument("--resume", help="checkpoint to resume from")
    t.set_defaults(fn=cmd_train)

    e = subs.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_config_flags(e)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--split", choices=("full", "train", "test"), default="full",
                   help="evaluate the whole directory or a derived split")
    e.set_defaults(fn=cmd_eval)

    c = subs.add_parser("compare",
                        help="train baseline, cbam and enhanced under identical seeds")
    _add_config_flags(c)
    c.set_defaults(fn=cmd_compare)

    h = subs.add_parser("heatmap", help="export attention/grad-cam overlays")
    h.add_argument("--checkpoint", required=True)
    h.add_argument("--image", required=True, help="a .ppm file or a directory of them")
    h.add_argument("--method", choices=METHODS, default="spatial-gate")
    h.add_argument("--out", required=True)
    h.add_argument("--stage", type=int, choices=STAGES, default=None)
    h.add_argument("--target-class", type=int, default=None)
    h.set_defaults(fn=cmd_heatmap)

    gc = subs.add_parser("gradcheck", help="finite-difference sweep over all layers")
    gc.add_argument("--seed", type=int, default=1234)
    gc.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
