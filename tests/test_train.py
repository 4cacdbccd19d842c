import io
import os
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import naive_augment
from shipnet import tensor as T
from shipnet import train as TR
from shipnet.data import (Dataset, Sample, dataset_mean_std, read_ppm, validation_split,
                          write_ppm)
from shipnet.models import ModelConfig, build_model

MICRO = dict(stage_blocks=(1, 1, 1, 1), base_width=8, input_size=(32, 32),
             reduction_ratio=4, spatial_kernel=3, fusion_width=16)


def parameters(model):
    """Name -> a copy of each parameter array, for array-by-array comparison."""
    return {name: p.data.copy() for name, p in model.named_parameters()}


def assert_same_parameters(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name], b[name]), name


def micro_config(variant="baseline"):
    return ModelConfig.make(variant, **MICRO)


def micro_dataset(per_class=8, classes=4, size=32, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for label in range(classes):
        for i in range(per_class):
            base = np.full((3, size, size), 0.2 + 0.15 * label, dtype=np.float32)
            base += rng.normal(0, 0.05, size=base.shape).astype(np.float32)
            samples.append(Sample(path=f"c{label}/{i}", label=label,
                                  image=np.clip(base, 0, 1)))
    return Dataset(classes=[f"c{label}" for label in range(classes)], samples=samples)


def micro_spec(**overrides):
    fields = dict(epochs=2, batch_size=8, base_lr=1e-3, seed=11, val_fraction=0.25,
                  augment=False, norm_mean=(0.5, 0.5, 0.5),
                  norm_std=(0.25, 0.25, 0.25))
    fields.update(overrides)
    return TR.RunSpec(**fields)


class TestAdam:
    def test_zero_grad_is_noop(self):
        p = T.Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
        p.grad = np.zeros(2, dtype=np.float32)
        state = TR.AdamState()
        before = p.data.copy()
        for _ in range(3):
            TR.adam_step({"p": p}, state, lr=1e-2)
        assert np.array_equal(p.data, before)
        assert state.t == 3

    def test_first_step_magnitude_is_lr(self):
        p = T.Tensor(np.array([0.0]), requires_grad=True, dtype=np.float64)
        p.grad = np.array([0.5])
        state = TR.AdamState()
        TR.adam_step({"p": p}, state, lr=1e-4)
        assert p.data[0] == pytest.approx(-1e-4, rel=1e-6)

    def test_equal_grads_equal_updates(self):
        a = T.Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        b = T.Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        a.grad = np.array([0.3])
        b.grad = np.array([0.3])
        TR.adam_step({"a": a, "b": b}, TR.AdamState(), lr=1e-3)
        assert np.array_equal(a.data, b.data)

    def test_second_moment_nonnegative_and_t_increments(self):
        p = T.Tensor(np.array([1.0]), requires_grad=True, dtype=np.float64)
        state = TR.AdamState()
        for t in range(1, 5):
            p.grad = np.array([(-1.0) ** t])
            TR.adam_step({"p": p}, state, lr=1e-3)
            assert state.t == t
            assert np.all(state.v["p"] >= 0)

    def test_shape_mismatch_rejected(self):
        p = T.Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
        p.grad = np.array([1.0])
        with pytest.raises(ValueError):
            TR.adam_step({"p": p}, TR.AdamState(), lr=1e-3)


class TestPublishedDefaults:
    def test_run_spec_mirrors_training_configuration(self):
        spec = TR.RunSpec()
        assert spec.epochs == 30
        assert spec.batch_size == 128
        assert spec.base_lr == pytest.approx(1e-4)
        assert spec.lr_decay_factor == pytest.approx(0.1)
        assert spec.lr_decay_every == 10
        assert spec.val_fraction == pytest.approx(0.2)

    def test_adam_published_constants(self):
        state = TR.AdamState()
        assert state.beta1 == pytest.approx(0.9)
        assert state.beta2 == pytest.approx(0.999)
        assert state.eps == pytest.approx(1e-8)


class TestLrSchedule:
    def test_published_breakpoints(self):
        assert TR.lr_schedule(0) == pytest.approx(1e-4)
        assert TR.lr_schedule(10) == pytest.approx(1e-5)
        assert TR.lr_schedule(29) == pytest.approx(1e-6)

    def test_piecewise_constant_within_decade(self):
        for e in range(10):
            assert TR.lr_schedule(e) == TR.lr_schedule(0)
        for e in range(10, 20):
            assert TR.lr_schedule(e) == TR.lr_schedule(10)

    @given(st.integers(0, 99))
    @settings(max_examples=50, deadline=None)
    def test_non_increasing(self, epoch):
        assert TR.lr_schedule(epoch + 1) <= TR.lr_schedule(epoch)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            TR.lr_schedule(-1)


class TestTrainEpoch:
    def test_zero_lr_leaves_parameters_unchanged(self):
        config = micro_config()
        model = build_model(config, seed=1)
        before = parameters(model)
        ds = micro_dataset()
        spec = micro_spec(base_lr=0.0)
        TR.train_epoch(model, ds.samples, TR.AdamState(), spec, epoch=0)
        assert_same_parameters(parameters(model), before)

    def test_single_sample_memorization(self):
        config = micro_config()
        model = build_model(config, seed=2)
        ds = micro_dataset(per_class=1, classes=2)
        spec = micro_spec(batch_size=2, base_lr=3e-3)
        adam = TR.AdamState()
        first_loss = None
        last_loss = None
        for epoch in range(12):
            loss, acc = TR.train_epoch(model, ds.samples, adam, spec, epoch)
            first_loss = loss if first_loss is None else first_loss
            last_loss = loss
        assert last_loss < first_loss
        assert last_loss < 0.1

    def test_identical_seeds_identical_stats(self):
        stats = []
        for _ in range(2):
            config = micro_config()
            model = build_model(config, seed=3)
            ds = micro_dataset()
            spec = micro_spec(augment=True)
            out = TR.train_epoch(model, ds.samples, TR.AdamState(), spec, epoch=0)
            stats.append(out)
        assert stats[0] == stats[1]

    def test_empty_set_rejected(self):
        config = micro_config()
        model = build_model(config, seed=1)
        with pytest.raises(ValueError):
            TR.train_epoch(model, [], TR.AdamState(), micro_spec(), 0)

    def test_drop_last_without_a_full_batch_rejected(self):
        model = build_model(micro_config(), seed=1)
        spec = micro_spec(batch_size=64, drop_last=True)
        with pytest.raises(ValueError, match="drop_last.*batch_size=64"):
            TR.train_epoch(model, micro_dataset().samples, TR.AdamState(), spec, 0)


class TestEvaluate:
    def test_perfect_predictions_diagonal(self):
        config = micro_config()
        model = build_model(config, seed=4)
        ds = micro_dataset(per_class=4)
        spec = micro_spec()
        # train briefly so the model separates the (very separable) classes
        adam = TR.AdamState()
        for epoch in range(6):
            TR.train_epoch(model, ds.samples, adam, spec, epoch)
        report, loss = TR.evaluate(model, ds.samples, spec, ds.classes)
        assert report.confusion.sum() == len(ds.samples)
        if report.accuracy == 1.0:
            assert np.array_equal(report.confusion,
                                  np.diag(report.support))

    def test_confusion_total_and_batch_invariance(self):
        config = micro_config()
        model = build_model(config, seed=5)
        ds = micro_dataset(per_class=3)
        r1, l1 = TR.evaluate(model, ds.samples, micro_spec(batch_size=4), ds.classes)
        r2, l2 = TR.evaluate(model, ds.samples, micro_spec(batch_size=5), ds.classes)
        assert np.array_equal(r1.confusion, r2.confusion)
        assert l1 == pytest.approx(l2, abs=1e-5)

    def test_reads_images_without_keeping_them(self, tmp_path):
        # odd samples come from files; even ones are already in memory, with
        # paths that do not exist, so reading one would raise. Evaluation,
        # the normalization pass and a training epoch each decode the files
        # anew and keep no image on their samples
        ds = micro_dataset(per_class=3)
        in_memory = []
        for i, s in enumerate(ds.samples):
            path = str(tmp_path / f"{i}.ppm")
            write_ppm(path, s.image)
            s.image = read_ppm(path)
            in_memory.append(Sample(path=s.path, label=s.label, image=s.image))
            if i % 2:
                s.path, s.image = path, None
        file_backed = [i % 2 == 1 for i in range(len(ds))]
        model = build_model(micro_config(), seed=5)
        spec = micro_spec(batch_size=4)
        report, loss = TR.evaluate(model, ds.samples, spec, ds.classes)
        assert [s.image is None for s in ds.samples] == file_backed
        want_report, want_loss = TR.evaluate(model, in_memory, spec, ds.classes)
        assert np.array_equal(report.confusion, want_report.confusion) and loss == want_loss

        mean_std = dataset_mean_std(ds.samples)
        assert [s.image is None for s in ds.samples] == file_backed
        assert np.array_equal(mean_std, dataset_mean_std(in_memory))

        spec = micro_spec(batch_size=4, augment=True)
        models = [build_model(micro_config(), seed=5) for _ in range(2)]
        out = TR.train_epoch(models[0], ds.samples, TR.AdamState(), spec, epoch=0)
        assert [s.image is None for s in ds.samples] == file_backed
        assert out == TR.train_epoch(models[1], in_memory, TR.AdamState(), spec, epoch=0)
        assert_same_parameters(parameters(models[0]), parameters(models[1]))

    def test_class_count_mismatch_rejected(self):
        model = build_model(micro_config(), seed=5)
        model.head.bias.data[3] = 50.0  # every image scores class 3 highest
        ds = micro_dataset(per_class=2, classes=3)
        with pytest.raises(ValueError, match="4 classes.*has 3"):
            TR.evaluate(model, ds.samples, micro_spec(), ds.classes)


class TestArgmaxTieBreak:
    def test_lowest_index_wins(self):
        class StubModel:
            def eval(self):
                return self

            def forward(self, x):
                n = x.shape[0]
                data = np.zeros((n, 3), dtype=np.float32)  # all-tied logits
                return T.Tensor(data)

        ds = micro_dataset(per_class=2, classes=3)
        report, _ = TR.evaluate(StubModel(), ds.samples, micro_spec(), ds.classes)
        assert report.confusion[:, 0].sum() == len(ds.samples)


class TestCheckpoint:
    def _state(self, variant="cbam"):
        config = micro_config(variant)
        model = build_model(config, seed=6)
        adam = TR.AdamState(t=3)
        for name, p in model.named_parameters():
            adam.ensure(name, p)
            adam.m[name] += 0.01
        return TR.TrainState(model=model, config=config, adam=adam, epoch=4,
                             seed=42, best_val_acc=0.75, best_epoch=2,
                             norm_mean=(0.4, 0.5, 0.6), norm_std=(0.2, 0.2, 0.2))

    def test_roundtrip_bitwise(self, tmp_path):
        state = self._state()
        path = str(tmp_path / "a.ckpt")
        TR.checkpoint_save(state, path)
        loaded = TR.checkpoint_load(path)
        assert_same_parameters(parameters(loaded.model), parameters(state.model))
        assert loaded.epoch == 4 and loaded.seed == 42
        assert loaded.best_val_acc == 0.75 and loaded.best_epoch == 2
        assert loaded.norm_mean == (0.4, 0.5, 0.6)
        assert loaded.adam.t == 3
        for name in state.adam.m:
            assert np.array_equal(loaded.adam.m[name], state.adam.m[name])

    def test_save_load_save_byte_identical(self, tmp_path):
        state = self._state()
        p1 = str(tmp_path / "a.ckpt")
        p2 = str(tmp_path / "b.ckpt")
        TR.checkpoint_save(state, p1)
        TR.checkpoint_save(TR.checkpoint_load(p1), p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    @pytest.mark.parametrize("variant", ["baseline", "cbam", "enhanced"])
    def test_load_fills_every_tensor_without_drawing_an_init(self, tmp_path, monkeypatch,
                                                               variant):
        state = self._state(variant)
        rng = np.random.default_rng(1)
        for _, buf in state.model.named_buffers():
            buf.data = rng.uniform(0.5, 2.0, buf.shape).astype(buf.dtype)
        p1 = str(tmp_path / "a.ckpt")
        p2 = str(tmp_path / "b.ckpt")
        TR.checkpoint_save(state, p1)

        def draw(*args, **kwargs):
            raise AssertionError("checkpoint_load drew an initialization")

        monkeypatch.setattr(T, "normal", draw)
        loaded = TR.checkpoint_load(p1)
        want = dict(state.model.named_parameters(), **dict(state.model.named_buffers()))
        got = dict(loaded.model.named_parameters(), **dict(loaded.model.named_buffers()))
        assert got.keys() == want.keys()
        for name, t in want.items():
            assert got[name].dtype == t.dtype and np.array_equal(got[name].data, t.data), name
        TR.checkpoint_save(loaded, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_config_mismatch_rejected(self, tmp_path):
        state = self._state("cbam")
        path = str(tmp_path / "a.ckpt")
        TR.checkpoint_save(state, path)
        with pytest.raises(ValueError):
            TR.checkpoint_load(path, expected_config=micro_config("baseline"))

    def test_corrupt_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + bytes(32))
        with pytest.raises(ValueError):
            TR.checkpoint_load(str(path))

    def test_text_blocks_are_pinned(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        TR.checkpoint_save(self._state("enhanced"), path)
        config = (b"base_width=8\ncbam_stages=2,3,4,5\ndilated_stage5=1\ndwsep_stages=4,5\n"
                  b"fusion_width=16\ninput_size=32x32\nmultiscale_fusion=1\nnum_classes=4\n"
                  b"reduction_ratio=4\nspatial_kernel=3\nstage_blocks=1,1,1,1\n"
                  b"variant=enhanced\n")
        meta = (b"adam_beta1=0.9\nadam_beta2=0.999\nadam_eps=1e-08\nadam_t=3\nbest_epoch=2\n"
                b"best_val_acc=0.75\nepoch=4\nnorm_mean=0.4,0.5,0.6\nnorm_std=0.2,0.2,0.2\n"
                b"seed=42\n")
        head = b"CBCK\x01\x00" + b"".join(struct.pack("<I", len(b)) + b for b in (config, meta))
        assert Path(path).read_bytes().startswith(head)

    def test_tensor_record_layout(self):
        # dtype code, rank, u64 extents, then the payload little-endian
        # whatever the array's byte order
        arr = np.arange(6.0).reshape(2, 3).astype(">f8")
        buf = io.BytesIO()
        TR.write_record(buf, arr)
        raw = buf.getvalue()
        assert raw == struct.pack("<BB2Q", 1, 2, 2, 3) + arr.astype("<f8").tobytes()
        back, end = TR.read_record(io.BytesIO(raw), len(raw))
        assert end == len(raw)
        assert back.dtype == np.float64 and np.array_equal(back, arr)
        assert back.flags.writeable and back.flags.c_contiguous and back.dtype.isnative

    def test_table_entry_layout(self, tmp_path):
        state = self._state("baseline")
        path = str(tmp_path / "a.ckpt")
        TR.checkpoint_save(state, path)
        raw = Path(path).read_bytes()
        name = b"adam.m.head.bias"
        bias = state.adam.m["head.bias"]
        entry = (struct.pack("<H", len(name)) + name + struct.pack("<BBQ", 0, 1, bias.size)
                 + bias.astype("<f4").tobytes())
        assert entry in raw

    def test_loaded_tensors_are_writeable_native_arrays(self, tmp_path):
        # Adam and BatchNorm update these in place: none may be a read-only
        # view of the file's bytes
        path = str(tmp_path / "a.ckpt")
        TR.checkpoint_save(self._state(), path)
        loaded = TR.checkpoint_load(path)
        arrays = [t.data for _, t in loaded.model.named_parameters()]
        arrays += [t.data for _, t in loaded.model.named_buffers()]
        arrays += list(loaded.adam.m.values()) + list(loaded.adam.v.values())
        for arr in arrays:
            assert arr.flags.writeable and arr.flags.c_contiguous and arr.dtype.isnative

    def test_load_holds_one_copy_of_each_tensor(self, tmp_path):
        # neither the file's bytes nor the fresh model's weights sit beside
        # the arrays a load returns (about 2.4x while the whole file was read)
        config = ModelConfig.make("cbam", preset="tiny")
        model = build_model(config, seed=6)
        adam = TR.AdamState(t=3)
        for name, p in model.named_parameters():
            adam.ensure(name, p)
        path = str(tmp_path / "a.ckpt")
        TR.checkpoint_save(TR.TrainState(model=model, config=config, adam=adam, epoch=1,
                                         seed=42, best_val_acc=0.5, best_epoch=0,
                                         norm_mean=(0.4, 0.5, 0.6),
                                         norm_std=(0.2, 0.2, 0.2)), path)
        TR.checkpoint_load(path)
        tracemalloc.start()
        try:
            loaded = TR.checkpoint_load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [t.data for _, t in loaded.model.named_parameters()]
        arrays += [t.data for _, t in loaded.model.named_buffers()]
        arrays += list(loaded.adam.m.values()) + list(loaded.adam.v.values())
        assert peak <= 1.1 * sum(a.nbytes for a in arrays)

    def test_micro_checkpoint_small(self, tmp_path):
        state = self._state()
        path = str(tmp_path / "a.ckpt")
        TR.checkpoint_save(state, path)
        assert os.path.getsize(path) < 10 * 2**20


class TestFit:
    def test_zero_epochs_returns_initial_state(self, tmp_path):
        config = micro_config()
        ds = micro_dataset()
        spec = micro_spec(epochs=0)
        state, best, lines = TR.fit(config, ds, spec, out_dir=str(tmp_path))
        assert state.epoch == 0
        assert lines == []
        assert best is None

    def test_checkpoint_per_epoch_plus_best_marker(self, tmp_path):
        config = micro_config()
        ds = micro_dataset()
        spec = micro_spec(epochs=3)
        state, best, lines = TR.fit(config, ds, spec, out_dir=str(tmp_path))
        ckpts = sorted(os.listdir(tmp_path / "checkpoints"))
        assert [c for c in ckpts if c.startswith("epoch_")] == [
            "epoch_000.ckpt", "epoch_001.ckpt", "epoch_002.ckpt"]
        assert "best.txt" in ckpts
        marker = (tmp_path / "checkpoints" / "best.txt").read_text()
        assert marker.startswith("epoch=")
        assert best is not None and best.epoch == state.best_epoch + 1

    def test_log_format(self, tmp_path):
        config = micro_config()
        ds = micro_dataset()
        state, _, lines = TR.fit(config, ds, micro_spec(epochs=2), out_dir=str(tmp_path))
        log = (tmp_path / "epochs.log").read_text().splitlines()
        assert log[0] == TR.LOG_HEADER
        assert log[1:] == lines
        for line in lines:
            parts = line.split("\t")
            assert len(parts) == 6
            int(parts[0])
            [float(v) for v in parts[1:]]

    def test_deterministic_two_full_fits(self, tmp_path):
        runs = []
        for name in ("a", "b"):
            config = micro_config("cbam")
            ds = micro_dataset()
            spec = micro_spec(epochs=2, augment=True)
            state, _, lines = TR.fit(config, ds, spec, out_dir=str(tmp_path / name))
            runs.append((lines, parameters(state.model)))
        assert runs[0][0] == runs[1][0]
        assert_same_parameters(runs[0][1], runs[1][1])

    def test_resume_reproduces_uninterrupted_run(self, tmp_path):
        config = micro_config()
        spec = micro_spec(epochs=4, augment=True)

        ds = micro_dataset()
        full_state, _, full_lines = TR.fit(config, ds, spec,
                                           out_dir=str(tmp_path / "full"))

        ds2 = micro_dataset()
        spec2 = micro_spec(epochs=2, augment=True)
        TR.fit(config, ds2, spec2, out_dir=str(tmp_path / "half"))
        resume = TR.checkpoint_load(
            str(tmp_path / "half" / "checkpoints" / "epoch_001.ckpt"),
            expected_config=config)
        ds3 = micro_dataset()
        spec3 = micro_spec(epochs=4, augment=True)
        resumed_state, _, resumed_lines = TR.fit(config, ds3, spec3,
                                                 out_dir=str(tmp_path / "resumed"),
                                                 resume_state=resume)
        assert resumed_lines == full_lines[2:]
        assert_same_parameters(parameters(resumed_state.model), parameters(full_state.model))

    def test_resume_with_another_seed_is_refused(self, tmp_path):
        config = micro_config()
        TR.fit(config, micro_dataset(), micro_spec(epochs=1), out_dir=str(tmp_path / "a"))
        resume = TR.checkpoint_load(str(tmp_path / "a" / "checkpoints" / "epoch_000.ckpt"))
        with pytest.raises(ValueError, match="seed 11, the run has seed 12"):
            TR.fit(config, micro_dataset(), micro_spec(epochs=2, seed=12),
                   out_dir=str(tmp_path / "b"), resume_state=resume)
        assert not (tmp_path / "b").exists()

    def test_nan_from_the_last_step_raises_before_its_checkpoint(self, tmp_path,
                                                                 monkeypatch):
        config = micro_config()
        ds = micro_dataset()
        spec = micro_spec(epochs=2)
        fit_set, _ = validation_split(ds, fraction=spec.val_fraction, seed=spec.seed)
        last_step = spec.epochs * -(-len(fit_set) // spec.batch_size)
        calls = []
        real_step = TR.adam_step

        def poisoned_step(named_params, state, lr):
            real_step(named_params, state, lr)
            calls.append(lr)
            if len(calls) == last_step:
                next(iter(named_params.values())).data[...] = np.nan

        monkeypatch.setattr(TR, "adam_step", poisoned_step)
        with pytest.raises(RuntimeError, match="validation loss nan after epoch 1"):
            TR.fit(config, ds, spec, out_dir=str(tmp_path))
        assert len(calls) == last_step
        assert sorted(os.listdir(tmp_path / "checkpoints")) == ["epoch_000.ckpt"]
        assert len((tmp_path / "epochs.log").read_text().splitlines()) == 2

    def test_progress_on_separable_data(self, tmp_path):
        config = micro_config()
        ds = micro_dataset(per_class=10)
        spec = micro_spec(epochs=5, base_lr=2e-3)
        _, _, lines = TR.fit(config, ds, spec, out_dir=str(tmp_path))
        first = float(lines[0].split("\t")[2])
        last = float(lines[4].split("\t")[2])
        assert last < first


class TestAugmentedBatches:
    def test_batch_equals_the_oracle_preparation(self):
        ds = micro_dataset(per_class=3)
        spec = micro_spec(augment=True, rotation_deg=30.0, seed=13)
        epoch = 2

        def stream(*key):
            return np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(entropy=spec.seed, spawn_key=(epoch,) + key)))

        order = stream(0).permutation(len(ds.samples))
        mean = np.float32(spec.norm_mean).reshape(3, 1, 1)
        std = np.float32(spec.norm_std).reshape(3, 1, 1)
        batches = list(TR.iter_batches(ds.samples, spec, True, epoch, True))
        assert len(batches) == 2
        for b, (x, y) in enumerate(batches):
            idx = order[b * spec.batch_size : (b + 1) * spec.batch_size]
            ref = np.stack([(naive_augment(ds.samples[i].image, stream(1, i), 30.0) - mean)
                            / std for i in idx])
            assert x.data.dtype == ref.dtype and x.data.tobytes() == ref.tobytes()
            assert np.array_equal(y, [ds.samples[i].label for i in idx])


class TestCheckpointValidation:
    """A file the fresh model cannot take raises ValueError naming the path."""

    def _saved(self, tmp_path, mutate=None):
        state = TestCheckpoint()._state()
        if mutate is not None:
            mutate(state)
        path = str(tmp_path / "x.ckpt")
        TR.checkpoint_save(state, path)
        return path

    def test_wrong_shape_rejected(self, tmp_path):
        def mutate(state):
            state.model.head.weight.data = np.zeros((3, 3), dtype=np.float32)
        path = self._saved(tmp_path, mutate)
        with pytest.raises(ValueError, match="param.head.weight"):
            TR.checkpoint_load(path)

    def test_wrong_dtype_rejected(self, tmp_path):
        def mutate(state):
            state.model.head.weight.data = state.model.head.weight.data.astype(np.float64)
        path = self._saved(tmp_path, mutate)
        with pytest.raises(ValueError, match="float64"):
            TR.checkpoint_load(path)

    def test_adam_moment_shape_and_name_checked(self, tmp_path):
        def wrong_shape(state):
            state.adam.v["head.bias"] = np.zeros(7, dtype=np.float32)
        with pytest.raises(ValueError, match="adam.v.head.bias"):
            TR.checkpoint_load(self._saved(tmp_path, wrong_shape))

        def orphan(state):
            state.adam.m["nowhere"] = np.zeros(1, dtype=np.float32)
            state.adam.v["nowhere"] = np.zeros(1, dtype=np.float32)
        with pytest.raises(ValueError, match="adam.m.nowhere"):
            TR.checkpoint_load(self._saved(tmp_path, orphan))

    def test_missing_metadata_and_config_keys_are_value_errors(self, tmp_path):
        raw = Path(self._saved(tmp_path)).read_bytes()
        for key in (b"\nseed=42\n", b"\nvariant=cbam\n"):
            assert key in raw
            # same length, so the block sizes still hold
            path = tmp_path / "k.ckpt"
            path.write_bytes(raw.replace(key, b"\n" + b"x" * (len(key) - 2) + b"\n"))
            with pytest.raises(ValueError, match=str(path)):
                TR.checkpoint_load(str(path))

    @pytest.mark.parametrize("block,edit,key", [
        (0, lambda t: t + "variant=cbam\n", "variant"),
        (0, lambda t: t + "whatever=3\n", "whatever"),
        (0, lambda t: t.replace("spatial_kernel=3", "spatial_kernel=three"), "spatial_kernel"),
        (0, lambda t: t.replace("dilated_stage5=0", "dilated_stage5=2"), "dilated_stage5"),
        (1, lambda t: t + "epoch=4\n", "epoch"),
        (1, lambda t: t + "whatever=3\n", "whatever"),
        (1, lambda t: t.replace("epoch=4", "epoch=abc"), "epoch"),
        (1, lambda t: t.replace("norm_mean=0.4,0.5,0.6", "norm_mean=0.5,0.5"), "norm_mean"),
        (1, lambda t: t.replace("\nepoch=4", "\nepoch=-3"), "epoch"),
        (1, lambda t: t.replace("best_epoch=2", "best_epoch=4"), "best_epoch"),
        (1, lambda t: t.replace("best_epoch=2", "best_epoch=-2"), "best_epoch"),
        (1, lambda t: t.replace("adam_t=3", "adam_t=-1"), "adam_t"),
        (1, lambda t: t.replace("norm_mean=0.4,0.5,0.6", "norm_mean=0.4,nan,0.6"), "norm_mean"),
        (1, lambda t: t.replace("norm_std=0.2,0.2,0.2", "norm_std=0.0,0.2,0.2"), "norm_std"),
        (1, lambda t: t.replace("norm_std=0.2,0.2,0.2", "norm_std=0.2,inf,0.2"), "norm_std"),
        (1, lambda t: t.replace("adam_beta1=0.9", "adam_beta1=-0.1"), "adam_beta1"),
        (1, lambda t: t.replace("adam_beta1=0.9", "adam_beta1=1.0"), "adam_beta1"),
        (1, lambda t: t.replace("adam_beta2=0.999", "adam_beta2=1.0"), "adam_beta2"),
        (1, lambda t: t.replace("adam_beta2=0.999", "adam_beta2=nan"), "adam_beta2"),
        (1, lambda t: t.replace("adam_eps=1e-08", "adam_eps=-1.0"), "adam_eps"),
        (1, lambda t: t.replace("adam_eps=1e-08", "adam_eps=0.0"), "adam_eps"),
        (1, lambda t: t.replace("adam_eps=1e-08", "adam_eps=inf"), "adam_eps"),
        (1, lambda t: t.replace("best_val_acc=0.75", "best_val_acc=nan"), "best_val_acc"),
        (1, lambda t: t.replace("best_val_acc=0.75", "best_val_acc=1.5"), "best_val_acc"),
        (1, lambda t: t.replace("best_val_acc=0.75", "best_val_acc=-1.5"), "best_val_acc"),
    ], ids=["config-repeated", "config-unknown", "config-bad-int", "config-bad-bool",
            "meta-repeated", "meta-unknown", "meta-bad-int", "meta-two-floats",
            "meta-negative-epoch", "meta-best-epoch-not-before-epoch",
            "meta-best-epoch-below-minus-1", "meta-negative-adam-t", "meta-nan-norm-mean",
            "meta-zero-norm-std", "meta-inf-norm-std", "meta-negative-adam-beta1",
            "meta-adam-beta1-one", "meta-adam-beta2-one", "meta-nan-adam-beta2",
            "meta-negative-adam-eps", "meta-zero-adam-eps", "meta-inf-adam-eps",
            "meta-nan-best-val-acc", "meta-best-val-acc-above-1",
            "meta-best-val-acc-below-minus-1"])
    def test_malformed_text_block_names_path_and_key(self, tmp_path, block, edit, key):
        raw = Path(self._saved(tmp_path)).read_bytes()
        blocks, offset = [], 6
        for _ in range(2):
            (n,) = struct.unpack_from("<I", raw, offset)
            blocks.append(raw[offset + 4 : offset + 4 + n].decode())
            offset += 4 + n
        blocks[block] = edit(blocks[block])
        assert blocks[block].encode() not in raw
        path = tmp_path / "k.ckpt"
        path.write_bytes(raw[:6] + b"".join(struct.pack("<I", len(b)) + b.encode()
                                            for b in blocks) + raw[offset:])
        with pytest.raises(ValueError) as info:
            TR.checkpoint_load(str(path))
        message = str(info.value)
        assert message.startswith(f"{path}: ") and key in message[len(str(path)):]

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            TR.checkpoint_load(path)


def _checkpoint_bytes():
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.ckpt")
        TR.checkpoint_save(TestCheckpoint()._state(), path)
        return Path(path).read_bytes()


CHECKPOINT = _checkpoint_bytes()
# magic, version, two text blocks, the table count, then room for a few entries
HEADER_END = CHECKPOINT.index(b"adam.m.") + 512


def _load_or_value_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.ckpt"
    path.write_bytes(raw)
    try:
        return TR.checkpoint_load(str(path))
    except ValueError:
        return None


class TestCheckpointDecoderFuzz:
    """Mutated CBCK files either load or raise ValueError, nothing else."""

    @given(st.integers(0, len(CHECKPOINT) - 1))
    @settings(max_examples=30, deadline=None)
    def test_truncated_at_any_byte(self, tmp_path_factory, cut):
        assert _load_or_value_error(tmp_path_factory, CHECKPOINT[:cut]) is None

    @given(st.lists(st.tuples(st.integers(0, HEADER_END - 1), st.integers(1, 255)),
                    min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_header_bytes_flipped(self, tmp_path_factory, flips):
        raw = bytearray(CHECKPOINT)
        for pos, mask in flips:
            raw[pos] ^= mask
        _load_or_value_error(tmp_path_factory, bytes(raw))

    @given(st.binary(min_size=1, max_size=16))
    @settings(max_examples=10, deadline=None)
    def test_appended_bytes(self, tmp_path_factory, extra):
        assert _load_or_value_error(tmp_path_factory, CHECKPOINT + extra) is None
