import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shipnet
from shipnet.cli import main
from shipnet.config import RunConfig
from shipnet.data import decode_ppm, read_ppm
from shipnet.heatmap import METHODS
from shipnet.metrics import round2
from shipnet.models import ModelConfig, build_model
from shipnet.train import AdamState, TrainState, checkpoint_save

MICRO_SETS = ["--set", "preset=tiny", "--set", "input_size=32",
              "--set", "base_width=8", "--set", "reduction_ratio=4",
              "--set", "spatial_kernel=3", "--set", "val_fraction=0.25",
              "--set", "norm=custom"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    assert main(["gen-synth", "--per-class", "12", "--size", "32",
                 "--seed", "7", "--out", str(root / "data")]) == 0
    return str(root / "data")


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, corpus):
    out = str(tmp_path_factory.mktemp("runs") / "cbam")
    code = main(["train", "--data", corpus, "--out", out, "--variant", "cbam",
                 "--epochs", "2", "--batch-size", "8", "--lr", "1e-3",
                 "--seed", "5"] + MICRO_SETS)
    assert code == 0
    return out


class TestGenSynth:
    def test_counts_and_layout(self, corpus):
        classes = sorted(os.listdir(corpus))
        assert classes == ["bulk_carrier", "cargo", "container", "oil_tanker"]
        for c in classes:
            assert len(os.listdir(os.path.join(corpus, c))) == 12

    def test_refuses_nonempty_out_without_force(self, corpus):
        assert main(["gen-synth", "--per-class", "1", "--size", "32",
                     "--out", corpus]) == 2

    def test_class_count_bound(self, tmp_path):
        assert main(["gen-synth", "--per-class", "1", "--classes", "9",
                     "--out", str(tmp_path / "x")]) == 2


class TestArgHandling:
    def test_unknown_flag_exits_2_without_writing(self, tmp_path):
        out = tmp_path / "never"
        code = main(["train", "--frobnicate", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_unknown_subcommand(self):
        assert main(["explode"]) == 2

    def test_unknown_config_key_exits_2(self, tmp_path, corpus):
        out = tmp_path / "never"
        code = main(["train", "--data", corpus, "--out", str(out),
                     "--set", "learning_rate=1"])
        assert code == 2
        assert not out.exists()

    def test_bad_config_value_exits_2(self, tmp_path, corpus):
        code = main(["train", "--data", corpus, "--out", str(tmp_path / "n"),
                     "--set", "epochs=soon"])
        assert code == 2

    @pytest.mark.parametrize("flags,key", [
        (["--batch-size", "0"], "batch_size"),
        (["--lr", "-1"], "lr"),
        (["--lr", "nan"], "lr"),
        (["--set", "lr_decay_every=0"], "lr_decay_every"),
        (["--set", "rotation_deg=-5"], "rotation_deg"),
        (["--set", "rotation_deg=1e308"], "rotation_deg"),
        (["--workers", "-3"], "workers"),
    ])
    def test_out_of_range_setting_exits_2_without_writing(self, tmp_path, corpus, capsys,
                                                          flags, key):
        out = tmp_path / "never"
        code = main(["train", "--data", corpus, "--out", str(out), "--epochs", "1"]
                    + MICRO_SETS + flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not out.exists()

    def test_config_file_layering(self, tmp_path, corpus):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\nepochs=1\nbatch_size=8\nlr=1e-3\n"
                       "preset=tiny\ninput_size=32\nbase_width=8\n"
                       "reduction_ratio=4\nspatial_kernel=3\nval_fraction=0.25\n"
                       "norm=custom\n")
        out = tmp_path / "run"
        code = main(["train", "--config", str(cfg), "--data", corpus,
                     "--out", str(out), "--variant", "baseline", "--seed", "3"])
        assert code == 0
        echo = (out / "config.txt").read_text()
        assert "epochs=1" in echo
        assert "variant=baseline" in echo


CONFIG_TEXT = (b"# comment line\nepochs=1\nbatch_size=8\nlr=1e-3\npreset=tiny\n"
               b"rotation_deg=10\nnorm_mean=0.5,0.5,0.5\ncbam_stages=3,4\n")


def _load_or_clean_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(raw)
    try:
        RunConfig.load(str(path))
    except (ValueError, KeyError):
        pass


class TestConfigFileFuzz:
    """A mutated config file loads or raises ValueError or KeyError, the two
    errors the CLI reports as a clean exit 2."""

    @given(st.integers(0, len(CONFIG_TEXT) - 1))
    @settings(max_examples=40, deadline=None)
    def test_truncated_at_any_byte(self, tmp_path_factory, cut):
        _load_or_clean_error(tmp_path_factory, CONFIG_TEXT[:cut])

    @given(st.lists(st.tuples(st.integers(0, len(CONFIG_TEXT) - 1), st.integers(1, 255)),
                    min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_bytes_flipped(self, tmp_path_factory, flips):
        raw = bytearray(CONFIG_TEXT)
        for pos, mask in flips:
            raw[pos] ^= mask
        _load_or_clean_error(tmp_path_factory, bytes(raw))

    @given(st.integers(0, len(CONFIG_TEXT)), st.binary(min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_bytes_inserted(self, tmp_path_factory, pos, extra):
        _load_or_clean_error(tmp_path_factory, CONFIG_TEXT[:pos] + extra + CONFIG_TEXT[pos:])


class TestTrainRunDir:
    def test_expected_artifacts(self, trained_run):
        names = set(os.listdir(trained_run))
        assert {"config.txt", "metadata.txt", "epochs.log", "report.txt",
                "report.json", "confusion.csv", "checkpoints",
                "model_layers.txt"} <= names
        ckpts = os.listdir(os.path.join(trained_run, "checkpoints"))
        assert sorted(c for c in ckpts if c.startswith("epoch_")) == [
            "epoch_000.ckpt", "epoch_001.ckpt"]
        assert "best.txt" in ckpts

    def test_timestamps_confined_to_metadata(self, trained_run):
        meta = Path(trained_run, "metadata.txt").read_text()
        assert meta.startswith("created_unix=")
        config = Path(trained_run, "config.txt").read_text()
        assert "created" not in config

    def test_refuses_overwrite_without_force(self, trained_run, corpus):
        code = main(["train", "--data", corpus, "--out", trained_run,
                     "--epochs", "1"] + MICRO_SETS)
        assert code == 2

    def test_log_has_per_epoch_lines(self, trained_run):
        lines = Path(trained_run, "epochs.log").read_text().splitlines()
        assert lines[0].split("\t") == ["epoch", "lr", "train_loss", "train_acc",
                                        "val_loss", "val_acc"]
        assert len(lines) == 3


def _checkpoint(path, num_classes, favoured=None):
    """An untrained cbam checkpoint, optionally scoring one class highest."""
    cfg = ModelConfig.make("cbam", preset="tiny", input_size=(32, 32), base_width=8,
                           reduction_ratio=4, spatial_kernel=3, num_classes=num_classes)
    model = build_model(cfg, seed=0)
    if favoured is not None:
        model.head.bias.data[favoured] = 50.0
    checkpoint_save(TrainState(model=model, config=cfg, adam=AdamState()), str(path))
    return str(path)


@pytest.fixture(scope="module")
def corpus3(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus3")
    assert main(["gen-synth", "--classes", "3", "--per-class", "4", "--size", "32",
                 "--seed", "7", "--out", str(root / "data")]) == 0
    return str(root / "data")


class TestEval:
    def test_checkpoint_class_count_mismatch_exits_2(self, tmp_path, corpus3, capsys):
        ckpt = _checkpoint(tmp_path / "four.ckpt", 4, favoured=3)
        code = main(["eval", "--checkpoint", ckpt, "--data", corpus3,
                     "--out", str(tmp_path / "e"), "--set", "num_classes=3"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "3 classes" in err and "num_classes=4" in err

    def test_class_count_comes_from_the_checkpoint(self, tmp_path, corpus3):
        ckpt = _checkpoint(tmp_path / "three.ckpt", 3)
        out = tmp_path / "e"
        assert main(["eval", "--checkpoint", ckpt, "--data", corpus3,
                     "--out", str(out)]) == 0
        import json
        assert sum(json.loads((out / "report.json").read_text())["support"]) == 12

    def test_eval_on_test_split(self, tmp_path, corpus, trained_run):
        ckpt = os.path.join(trained_run, "checkpoints", "epoch_001.ckpt")
        out = str(tmp_path / "eval")
        code = main(["eval", "--checkpoint", ckpt, "--data", corpus,
                     "--split", "test", "--out", out, "--seed", "5"] + MICRO_SETS)
        assert code == 0
        assert os.path.exists(os.path.join(out, "report.json"))
        import json
        payload = json.loads(Path(out, "report.json").read_text())
        assert sum(payload["support"]) == 12  # 25% of 48 at the 80:20 split

    def test_missing_checkpoint_fails(self, tmp_path, corpus):
        code = main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
                     "--data", corpus, "--out", str(tmp_path / "e")])
        assert code == 1


class TestHeatmapCli:
    def test_single_image_overlay(self, tmp_path, corpus, trained_run):
        ckpt = os.path.join(trained_run, "checkpoints", "epoch_001.ckpt")
        img = os.path.join(corpus, "cargo", "img_00000.ppm")
        out = str(tmp_path / "h.ppm")
        assert main(["heatmap", "--checkpoint", ckpt, "--image", img,
                     "--method", "spatial-gate", "--out", out]) == 0
        overlay = decode_ppm(Path(out).read_bytes())
        assert overlay.shape == (3, 32, 32)

    def test_gradcam_batch_mode(self, tmp_path, corpus, trained_run):
        ckpt = os.path.join(trained_run, "checkpoints", "epoch_001.ckpt")
        src_dir = os.path.join(corpus, "container")
        out_dir = str(tmp_path / "maps")
        assert main(["heatmap", "--checkpoint", ckpt, "--image", src_dir,
                     "--method", "gradcam", "--out", out_dir]) == 0
        outs = os.listdir(out_dir)
        assert len(outs) == 12
        assert all(name.endswith(".gradcam.ppm") for name in outs)

    def test_spatial_gate_on_baseline_rejected(self, tmp_path, corpus):
        out = str(tmp_path / "b")
        assert main(["train", "--data", corpus, "--out", out, "--variant",
                     "baseline", "--epochs", "1", "--batch-size", "8",
                     "--seed", "5"] + MICRO_SETS) == 0
        ckpt = os.path.join(out, "checkpoints", "epoch_000.ckpt")
        img = os.path.join(corpus, "cargo", "img_00000.ppm")
        code = main(["heatmap", "--checkpoint", ckpt, "--image", img,
                     "--method", "spatial-gate", "--out", str(tmp_path / "x.ppm")])
        assert code == 2

    def test_bad_method(self, tmp_path, trained_run, corpus, capsys):
        ckpt = os.path.join(trained_run, "checkpoints", "epoch_001.ckpt")
        img = os.path.join(corpus, "cargo", "img_00000.ppm")
        assert main(["heatmap", "--checkpoint", ckpt, "--image", img,
                     "--method", "saliency", "--out", str(tmp_path / "x.ppm")]) == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("stage", ["1", "7"])
    def test_stage_outside_the_backbone_exits_2(self, tmp_path, trained_run, corpus, capsys,
                                                 method, stage):
        ckpt = os.path.join(trained_run, "checkpoints", "epoch_001.ckpt")
        img = os.path.join(corpus, "cargo", "img_00000.ppm")
        out = tmp_path / "x.ppm"
        assert main(["heatmap", "--checkpoint", ckpt, "--image", img, "--method", method,
                     "--stage", stage, "--out", str(out)]) == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not out.exists()


class TestCompare:
    def test_three_way_table(self, tmp_path, corpus, capsys):
        out = str(tmp_path / "cmp")
        code = main(["compare", "--data", corpus, "--out", out, "--epochs", "1",
                     "--batch-size", "8", "--lr", "1e-3", "--seed", "5"]
                    + MICRO_SETS)
        assert code == 0
        tsv = Path(out, "compare.tsv").read_text().splitlines()
        assert tsv[0] == "variant\ttest_accuracy\tmacro_f1"
        assert [line.split("\t")[0] for line in tsv[1:]] == [
            "baseline", "cbam", "enhanced"]
        for line in tsv[1:]:
            _, acc, f1 = line.split("\t")
            assert 0.0 <= float(acc) <= 1.0
            assert 0.0 <= float(f1) <= 1.0
        for variant in ("baseline", "cbam", "enhanced"):
            assert os.path.exists(os.path.join(out, variant, "report.json"))


class TestGradcheckCli:
    def test_sweep_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all("PASS" in line for line in lines)
        assert any(line.startswith("conv2d") for line in lines)


class TestTrainResume:
    def test_resume_reproduces_uninterrupted_run(self, tmp_path, corpus, capsys):
        # dataset normalization: the resumed run must take it from the checkpoint
        args = ["--data", corpus, "--variant", "cbam", "--epochs", "3",
                "--batch-size", "8", "--lr", "1e-3", "--seed", "5"] + MICRO_SETS[:-2]
        full, resumed = tmp_path / "full", tmp_path / "resumed"
        assert main(["train", "--out", str(full)] + args) == 0
        assert main(["train", "--out", str(resumed), "--resume",
                     str(full / "checkpoints" / "epoch_001.ckpt")] + args) == 0
        last = "epoch_002.ckpt"
        assert ((resumed / "checkpoints" / last).read_bytes()
                == (full / "checkpoints" / last).read_bytes())
        full_log = (full / "epochs.log").read_text().splitlines()
        assert (resumed / "epochs.log").read_text().splitlines() == [full_log[0], full_log[-1]]
        # the best epoch precedes the resume point: both runs report its checkpoint
        assert (full / "checkpoints" / "best.txt").read_text().startswith("epoch=0\n")
        assert (resumed / "report.json").read_bytes() == (full / "report.json").read_bytes()
        out = capsys.readouterr().out
        assert out.count("36 train / 12 test samples; variant=cbam") == 2
        assert out.count("(best val epoch") == 2

    def test_force_resume_from_inside_the_out_dir_is_refused(self, tmp_path, corpus, capsys):
        run = tmp_path / "run"
        args = ["--data", corpus, "--out", str(run), "--epochs", "2", "--batch-size", "8",
                "--lr", "1e-3", "--seed", "5"] + MICRO_SETS
        assert main(["train"] + args) == 0
        ckpt = run / "checkpoints" / "epoch_000.ckpt"
        capsys.readouterr()
        assert main(["train", "--force", "--resume", str(ckpt)] + args) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert ckpt.exists() and (run / "epochs.log").exists()


class TestFailureModes:
    def test_diverging_run_exits_1_without_checkpoints(self, tmp_path, corpus, capsys):
        out = tmp_path / "diverged"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--data", corpus, "--out", str(out), "--epochs", "3",
                         "--batch-size", "8", "--lr", "1e12", "--seed", "5"] + MICRO_SETS)
        assert code == 1
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.startswith("error: training diverged") and "epoch 0, batch" in err
        assert not [f for f in os.listdir(out / "checkpoints") if f.endswith(".ckpt")]

    @pytest.mark.parametrize("command", ["eval", "heatmap"])
    def test_truncated_checkpoint_exits_1_without_traceback(self, tmp_path, corpus,
                                                            trained_run, command):
        ckpt = tmp_path / "truncated.ckpt"
        src = os.path.join(trained_run, "checkpoints", "epoch_001.ckpt")
        ckpt.write_bytes(Path(src).read_bytes()[:300])
        if command == "eval":
            args = ["--data", corpus, "--out", str(tmp_path / "e")] + MICRO_SETS
        else:
            args = ["--image", os.path.join(corpus, "cargo", "img_00000.ppm"),
                    "--out", str(tmp_path / "h.ppm")]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(shipnet.__file__)))
        proc = subprocess.run([sys.executable, "-m", "shipnet.cli", command,
                               "--checkpoint", str(ckpt)] + args,
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and str(ckpt) in proc.stderr
        assert "Traceback" not in proc.stderr
