#!/usr/bin/env python3
"""Desk-scale comparative experiment: generate the synthetic corpus, train
all three variants under one seed, then export spatial-gate and Grad-CAM
overlays from the best cbam and the best enhanced checkpoint.

Usage: python scripts/run_desk_experiment.py [--out DIR] [--epochs N]
"""

import argparse
import os
import sys
from pathlib import Path

from shipnet.cli import main as shipnet
from shipnet.models import parse_settings


def run(argv):
    code = shipnet(argv)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="desk_experiment")
    parser.add_argument("--epochs", default="15")
    parser.add_argument("--per-class", default="250")
    parser.add_argument("--seed", default="42")
    parser.add_argument("--force", action="store_true")
    args = parser.parse_args()

    data_dir = os.path.join(args.out, "data")
    cmp_dir = os.path.join(args.out, "compare")
    force = ["--force"] if args.force else []

    run(["gen-synth", "--per-class", args.per_class, "--size", "64",
         "--seed", args.seed, "--out", data_dir] + force)
    run(["compare", "--data", data_dir, "--out", cmp_dir, "--preset", "tiny",
         "--epochs", args.epochs, "--batch-size", "32", "--lr", "1e-3",
         "--seed", args.seed] + force)

    # the enhanced model's Grad-CAM walks back through its multiscale fusion
    for variant in ("cbam", "enhanced"):
        ckpt_dir = os.path.join(cmp_dir, variant, "checkpoints")
        marker = Path(ckpt_dir, "best.txt").read_text()
        best_epoch = parse_settings(marker, {"epoch": int, "val_acc": float}, "best.txt")["epoch"]
        ckpt = os.path.join(ckpt_dir, f"epoch_{best_epoch:03d}.ckpt")
        for method in ("spatial-gate", "gradcam"):
            run(["heatmap", "--checkpoint", ckpt,
                 "--image", os.path.join(data_dir, "oil_tanker"),
                 "--method", method,
                 "--out", os.path.join(args.out, f"heatmaps_{variant}_{method}")])

    print(f"\ndone; see {cmp_dir}/compare.tsv and {args.out}/heatmaps_*/")


if __name__ == "__main__":
    main()
