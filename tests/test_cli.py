import dataclasses
import gc
import inspect
import json
import os
import shlex

import numpy as np
import pytest

from gradutil import serving
from yolovehicle import cli
from yolovehicle import config as cfgmod
from yolovehicle import detection as det
from yolovehicle import edgecloud as ec
from yolovehicle import model as md
from yolovehicle import ppm
from yolovehicle import tensor_core as tc
from yolovehicle.optim import Adam


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run(argv):
    """main() exit code, treating argparse SystemExit as the code."""
    try:
        return cli.main(argv)
    except SystemExit as e:
        return e.code if e.code is not None else 0


@pytest.fixture()
def image_path(tmp_path):
    raw = np.clip(np.rint(tc.Rng(90).uniform(0, 1, (3, 64, 64)) * 255), 0, 255)
    path = tmp_path / "frame.ppm"
    path.write_bytes(ppm.image_to_ppm_bytes(raw.astype(np.float32) / 255.0))
    return str(path)


class TestConfig:
    def test_defaults_cover_schema(self):
        d = cfgmod.defaults()
        assert d["tau"] == 0.6
        # unset: cli._load_bundle picks the archive from the seed
        assert d["weights"] is None and d["seed"] is None
        assert len(cfgmod.SCHEMA) == 9

    def test_unknown_key_names_line(self):
        with pytest.raises(ValueError, match=":3:"):
            cfgmod.parse_config_text("tau=0.5\n\nbogus_key=1\n")

    def test_bad_value_names_line(self):
        with pytest.raises(ValueError, match=":1:"):
            cfgmod.parse_config_text("tau=very\n")

    def test_unread_keys_rejected_with_line(self):
        # keys that no command reads are not in the schema
        with pytest.raises(ValueError, match=r":2: unknown key 'channels'"):
            cfgmod.parse_config_text("tau=0.5\nchannels=16\n")
        # the loss weights are detection.LAMBDA_* constants, not settings
        for key in ("lambda1", "lambda2", "lambda3", "lambda4", "lambda7",
                    "height", "width"):
            with pytest.raises(ValueError, match=":1: unknown key"):
                cfgmod.parse_config_text(f"{key}=1\n")

    def test_range_validators_name_the_line(self):
        with pytest.raises(ValueError, match=r":2: tau must lie in \[0, 1\]"):
            cfgmod.parse_config_text("seed=1\ntau=1.5\n")
        with pytest.raises(ValueError, match=r":1: mode must be always_edge"):
            cfgmod.parse_config_text("mode=sometimes\n")
        for value in ("-1", "0", "inf", "nan"):
            with pytest.raises(ValueError, match=r":1: timeout_ms must be positive"):
                cfgmod.parse_config_text(f"timeout_ms={value}\n")
        with pytest.raises(ValueError, match=r":1: tau must lie in \[0, 1\]"):
            cfgmod.parse_config_text("tau=nan\n")
        # the text encoder takes 1 to encoders.MAX_PHRASES phrases
        for value in (",", " , ,", ",".join(["bus"] * 17)):
            with pytest.raises(ValueError, match=r":2: text is not a usable prompt"):
                cfgmod.parse_config_text(f"seed=1\ntext={value}\n")
        many = ",".join(["bus"] * 16)
        assert cfgmod.parse_config_text(f"text={many}\n") == {"text": many}
        # decode needs both thresholds strictly inside (0, 1)
        for key in ("obj_thresh", "nms_iou"):
            for value in ("0", "1", "-0.1", "1.5", "nan", "inf"):
                with pytest.raises(ValueError, match=rf":1: {key} must lie in \(0, 1\)"):
                    cfgmod.parse_config_text(f"{key}={value}\n")
            assert cfgmod.parse_config_text(f"{key}=0.05\n") == {key: 0.05}

    def test_cloud_address_names_the_line(self):
        with pytest.raises(ValueError, match=r":2: address ':99999' has port 99999"):
            cfgmod.parse_config_text("seed=1\ncloud=:99999\n")
        with pytest.raises(ValueError, match=r":1: address 'localhost' has no port"):
            cfgmod.parse_config_text("cloud=localhost\n")
        # an empty address is unset
        assert cfgmod.parse_config_text("cloud=\n") == {"cloud": ""}
        assert cfgmod.parse_config_text("cloud=:5956\n") == {"cloud": ":5956"}

    def test_comments_and_blanks_ignored(self):
        got = cfgmod.parse_config_text("# top\n\ntau=0.3  # inline\n")
        assert got == {"tau": 0.3}

    def test_repeated_key_names_both_lines(self):
        with pytest.raises(ValueError, match=r":3: key 'tau' given twice, on lines 1 and 3"):
            cfgmod.parse_config_text("tau=0.5\nseed=1\ntau=0.9\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            cfgmod.parse_config_text("tau 0.5\n")

    def test_flags_win_over_file(self):
        eff = cfgmod.merge({"tau": 0.5, "mode": "always_edge"}, {"tau": 0.7})
        assert eff["tau"] == 0.7
        assert eff["mode"] == "always_edge"
        assert eff["nms_iou"] == det.NMS_IOU  # untouched default


def _default(fn, name):
    return inspect.signature(fn).parameters[name].default


class TestOneHome:
    """Each default is kept in one place: the library's signatures and
    dataclass fields, config.SCHEMA and the CLI flags agree."""

    def test_library_defaults_are_the_schema_defaults(self):
        schema = cfgmod.defaults()
        for fn in (md.detect_frame, det.decode_detections, ec.handle_request,
                   ec.LoopbackTransport, ec.edge_serve):
            for key in ("obj_thresh", "nms_iou"):
                assert _default(fn, key) == schema[key], (fn, key)
        for fn in (ec.LoopbackTransport, ec.edge_serve, md.train_toy):
            assert _default(fn, "text") == schema["text"], fn
        assert _default(ec.SocketTransport, "timeout_ms") == schema["timeout_ms"]
        fields = {f.name: f.default for f in dataclasses.fields(ec.OffloadPolicy)}
        assert (fields["mode"], fields["tau"]) == (schema["mode"], schema["tau"])

    def test_train_toy_defaults(self):
        args = cli.build_parser().parse_args(["train-toy"])
        assert _default(md.train_toy, "lr") == args.lr == md.LR
        assert inspect.signature(md.train_toy).parameters["steps"].default \
            is inspect.Parameter.empty

    def test_adam_takes_lr_alone(self):
        assert tuple(f.name for f in dataclasses.fields(Adam) if f.init) == ("lr",)


# the config keys each command takes as flags
SETTINGS = {
    "detect": ("weights", "seed", "obj_thresh", "nms_iou", "text"),
    "dehaze": ("weights", "seed"),
    "train-toy": ("seed",),
    "eval": (),
    "bench": ("weights", "seed", "obj_thresh", "nms_iou", "mode", "tau",
              "cloud", "timeout_ms"),
    "serve-cloud": ("weights", "seed", "obj_thresh", "nms_iou", "text"),
}


class TestUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_eval_takes_no_config(self, tmp_path, capsys):
        # eval reads no config key, so it offers no --config
        assert run(["eval", "--preds", "p.jsonl", "--gts", "g.jsonl",
                    "--config", "nope.cfg",
                    "--output", str(tmp_path / "r.json")]) == 2
        assert "--config" in capsys.readouterr().err

    def test_help_exits_zero_everywhere(self, capsys):
        assert run(["--help"]) == 0
        for cmd in ("detect", "dehaze", "train-toy", "eval", "bench",
                    "serve-cloud"):
            assert run([cmd, "--help"]) == 0, cmd
            out = capsys.readouterr().out
            assert "default" in out, cmd

    @pytest.mark.parametrize("cmd", sorted(SETTINGS))
    def test_setting_flags_show_their_schema_default(self, cmd, capsys):
        assert run([cmd, "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert ("--config" in out) == bool(SETTINGS[cmd])
        for key, (_, default, _, text) in cfgmod.SCHEMA.items():
            flag = "--" + key.replace("_", "-")
            if key in SETTINGS[cmd]:
                assert f"{flag} {key.upper()} {text} (default {default!r})" in out
            else:
                assert f"{flag} " not in out, (cmd, flag)


class TestReadme:
    def test_cli_examples_parse(self):
        with open(README, encoding="utf-8") as fh:
            section = fh.read().split("\n## CLI\n", 1)[1]
        block = section.split("```sh\n", 1)[1].split("```", 1)[0]
        examples = [shlex.split(line)
                    for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("yolovehicle ")]
        parser = cli.build_parser()
        for argv in examples:
            try:
                parser.parse_args(argv[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {shlex.join(argv)}")
        # every command has an example
        assert {argv[1] for argv in examples} == set(cli.COMMANDS)


class TestDetect:
    def test_valid_inputs_exit_zero(self, tmp_path, image_path):
        out = tmp_path / "dets.jsonl"
        code = run(["detect", "--image", image_path, "--text", "car, truck",
                    "--output", str(out), "--seed", "5"])
        assert code == 0
        assert out.exists()
        for fid, box in det.jsonl_to_detections(out.read_text()):
            assert fid == 0 and 0 < box.score <= 1

    def test_missing_weights_exit_one_names_path(self, tmp_path, image_path,
                                                 capsys):
        code = run(["detect", "--image", image_path,
                    "--weights", str(tmp_path / "nope.bin"),
                    "--output", str(tmp_path / "o.jsonl"), "--seed", "1"])
        assert code == 1
        assert "nope.bin" in capsys.readouterr().err

    def test_unversioned_weights_exit_one_naming_both_versions(self, tmp_path,
                                                               image_path, capsys):
        # an archive from before the version entry: the attention
        # generator's seven-entry stamp
        weights = tmp_path / "old.bin"
        tc.atomic_write(weights, tc.archive_to_bytes(
            {"meta": np.array([8, 3, 7, 8, 2, 4, 2], np.float32)}))
        code = run(["detect", "--image", image_path, "--weights", str(weights),
                    "--output", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert "format version 1, this build reads version 2" in capsys.readouterr().err

    def test_seeded_runs_byte_identical(self, tmp_path, image_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert run(["detect", "--image", image_path, "--output", str(out),
                        "--seed", "7", "--obj-thresh", "0.3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_saved_weights_are_used(self, tmp_path, image_path):
        weights = tmp_path / "w.bin"
        md.save_bundle(weights, md.init_bundle(9))
        out = tmp_path / "o.jsonl"
        code = run(["detect", "--image", image_path, "--weights", str(weights),
                    "--output", str(out)])
        assert code == 0 and out.exists()

    def test_pro_mode_runs(self, tmp_path, image_path):
        out = tmp_path / "o.jsonl"
        assert run(["detect", "--image", image_path, "--output", str(out),
                    "--seed", "2", "--pro"]) == 0


class TestDehaze:
    def test_writes_ppm(self, tmp_path, image_path):
        out = tmp_path / "restored.ppm"
        assert run(["dehaze", "--image", image_path, "--output", str(out),
                    "--seed", "3"]) == 0
        restored = ppm.read_ppm(out)
        assert restored.shape == (3, 64, 64)
        assert restored.min() >= 0.0 and restored.max() <= 1.0

    def test_any_frame_size(self, tmp_path):
        # no attention window to divide the frame: a KITTI-like odd size
        # restores too
        image = tmp_path / "odd.ppm"
        image.write_bytes(ppm.image_to_ppm_bytes(tc.Rng(91).uniform(0, 1, (3, 37, 301))))
        out = tmp_path / "restored.ppm"
        assert run(["dehaze", "--image", str(image), "--output", str(out),
                    "--seed", "3"]) == 0
        assert ppm.read_ppm(out).shape == (3, 37, 301)


class TestTrainToy:
    def test_prints_loss_rows_and_descends(self, capsys):
        assert run(["train-toy", "--steps", "5", "--seed", "0"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if "," in l]
        assert len(lines) == 5
        for i, line in enumerate(lines, 1):
            parts = line.split(",")
            assert len(parts) == 5
            assert int(parts[0]) == i
            float(parts[1]), float(parts[2]), float(parts[3]), float(parts[4])

    def test_step_cap_is_runtime_error(self, capsys):
        assert run(["train-toy", "--steps", "1001", "--seed", "0"]) == 1

    def test_no_seed_trains_from_seed_zero(self, capsys):
        assert run(["train-toy", "--steps", "3"]) == 0
        unseeded = capsys.readouterr().out
        assert run(["train-toy", "--steps", "3", "--seed", "0"]) == 0
        assert capsys.readouterr().out == unseeded
        assert len(unseeded.splitlines()) == 3

    def test_nan_lr_fails_before_training(self, tmp_path, capsys):
        weights = tmp_path / "w.bin"
        assert run(["train-toy", "--lr", "nan", "--save", str(weights)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "lr must be positive and finite, got nan" in captured.err
        assert os.listdir(tmp_path) == []

    def test_save_writes_loadable_archive(self, tmp_path, capsys):
        weights = tmp_path / "w.bin"
        assert run(["train-toy", "--steps", "2", "--seed", "4",
                    "--save", str(weights)]) == 0
        bundle = md.load_bundle(weights)
        assert bundle.head.w_cls.shape[0] == 3
        assert str(os.path.getsize(weights)) in capsys.readouterr().err

    def test_diverged_weights_are_not_saved(self, tmp_path, capsys):
        # lr 1e30 turns the loss to NaN at step 2: training stops there, the
        # step named, and no archive is written
        weights = tmp_path / "w.bin"
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["train-toy", "--steps", "3", "--lr", "1e30", "--seed", "0",
                        "--save", str(weights)]) == 1
        out, err = capsys.readouterr()
        assert "step 2 has a non-finite loss" in err
        assert [line.split(",")[0] for line in out.splitlines()] == ["1", "2"]
        assert os.listdir(tmp_path) == []

    def test_diverged_run_without_save_exits_non_zero(self, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            assert run(["train-toy", "--steps", "3", "--lr", "1e30", "--seed", "0"]) == 1
        assert "step 2 has a non-finite loss" in capsys.readouterr().err

    def test_failed_save_leaves_existing_weights_untouched(self, tmp_path,
                                                           capsys, monkeypatch):
        weights = tmp_path / "w.bin"
        md.save_bundle(weights, md.init_bundle(0))
        before = weights.read_bytes()

        def fail(tensors):
            raise RuntimeError("serialisation failed")

        monkeypatch.setattr(tc, "archive_to_bytes", fail)
        assert run(["train-toy", "--steps", "1", "--seed", "4",
                    "--save", str(weights)]) == 1
        assert weights.read_bytes() == before
        assert os.listdir(tmp_path) == ["w.bin"]


class TestEval:
    def test_empty_preds_nonempty_gts_map_zero(self, tmp_path, capsys):
        preds = tmp_path / "preds.jsonl"
        gts = tmp_path / "gts.jsonl"
        preds.write_text("")
        gts.write_text(det.detections_to_jsonl(
            [det.BBox(0.5, 0.5, 0.2, 0.2, class_id=1)], 0, 0.0))
        out = tmp_path / "report.json"
        assert run(["eval", "--preds", str(preds), "--gts", str(gts),
                    "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["map@50"] == 0.0
        assert report["counts@50"]["1"] == {"tp": 0, "fp": 0, "fn": 1}

    def test_perfect_preds_map_one(self, tmp_path):
        boxes = [det.BBox(0.5, 0.5, 0.2, 0.2, class_id=1, score=0.9)]
        preds = tmp_path / "preds.jsonl"
        gts = tmp_path / "gts.jsonl"
        preds.write_text(det.detections_to_jsonl(boxes, 0, 1.0))
        gts.write_text(det.detections_to_jsonl(
            [det.BBox(0.5, 0.5, 0.2, 0.2, class_id=1)], 0, 0.0))
        out = tmp_path / "report.json"
        assert run(["eval", "--preds", str(preds), "--gts", str(gts),
                    "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["map@50"] == 1.0 and report["map@75"] == 1.0


class TestBench:
    def test_two_images_two_reps(self, tmp_path, capsys):
        indir = tmp_path / "imgs"
        indir.mkdir()
        for i in range(2):
            raw = np.clip(np.rint(tc.Rng(91 + i).uniform(0, 1, (3, 64, 64)) * 255),
                          0, 255)
            (indir / f"{i}.ppm").write_bytes(
                ppm.image_to_ppm_bytes(raw.astype(np.float32) / 255.0))
        out = tmp_path / "bench.json"
        dets = tmp_path / "d.jsonl"
        code = run(["bench", "--input-dir", str(indir), "--repetitions", "2",
                    "--mode", "always_edge", "--seed", "6",
                    "--output", str(out), "--detections", str(dets)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["frames"] == 4
        assert report["edge"] == 4 and report["cloud"] == 0
        assert abs(report["fps"] - 4 / report["wall_seconds"]) \
            <= 0.05 * report["fps"]
        assert report["mean_cloud_compute_ms"] is None
        assert report["mean_cloud_network_ms"] is None
        assert dets.exists()
        fids = [fid for fid, _ in det.jsonl_to_detections(dets.read_text())]
        assert sorted(set(fids)) == [0, 1, 2, 3] and fids == sorted(fids)

    def test_empty_directory_exit_one(self, tmp_path, capsys):
        assert run(["bench", "--input-dir", str(tmp_path), "--mode", "always_edge",
                    "--seed", "1", "--output", str(tmp_path / "r.json")]) == 1
        assert "no .ppm images" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_zero_repetitions_exit_one(self, tmp_path, capsys):
        indir = tmp_path / "imgs"
        indir.mkdir()
        (indir / "a.ppm").write_bytes(
            ppm.image_to_ppm_bytes(np.zeros((3, 32, 32), np.float32)))
        out, dets = tmp_path / "r.json", tmp_path / "d.jsonl"
        assert run(["bench", "--input-dir", str(indir), "--repetitions", "0",
                    "--mode", "always_edge", "--seed", "1",
                    "--output", str(out), "--detections", str(dets)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--repetitions must be at least 1, got 0" in captured.err
        assert sorted(os.listdir(tmp_path)) == ["imgs"]

    def test_cloud_mode_without_address_fails(self, tmp_path, capsys):
        indir = tmp_path / "imgs"
        indir.mkdir()
        (indir / "a.ppm").write_bytes(
            ppm.image_to_ppm_bytes(np.zeros((3, 32, 32), np.float32)))
        assert run(["bench", "--input-dir", str(indir),
                    "--mode", "always_cloud", "--seed", "1",
                    "--output", str(tmp_path / "r.json")]) == 1
        assert "--cloud" in capsys.readouterr().err

    def test_always_edge_over_directory(self, tmp_path):
        indir = tmp_path / "imgs"
        indir.mkdir()
        for i in range(3):
            raw = np.clip(np.rint(tc.Rng(95 + i).uniform(0, 1, (3, 32, 32)) * 255),
                          0, 255)
            (indir / f"{i}.ppm").write_bytes(
                ppm.image_to_ppm_bytes(raw.astype(np.float32) / 255.0))
        out = tmp_path / "dets.jsonl"
        stats = tmp_path / "stats.json"
        code = run(["bench", "--input-dir", str(indir),
                    "--mode", "always_edge", "--seed", "8",
                    "--detections", str(out), "--output", str(stats)])
        assert code == 0
        report = json.loads(stats.read_text())
        assert report["frames"] == 3 and report["edge"] == 3
        assert len(report["haze_scores"]) == 3

    def test_always_cloud_over_tcp(self, tmp_path, monkeypatch):
        indir = tmp_path / "imgs"
        indir.mkdir()
        for i in range(3):
            raw = np.clip(np.rint(tc.Rng(98 + i).uniform(0, 1, (3, 32, 32)) * 255),
                          0, 255)
            (indir / f"{i}.ppm").write_bytes(
                ppm.image_to_ppm_bytes(raw.astype(np.float32) / 255.0))
        bundle = md.init_bundle(9)
        opened = []

        class RecordedTransport(ec.SocketTransport):
            def __init__(self, *args):
                super().__init__(*args)
                opened.append(self)

        monkeypatch.setattr(ec, "SocketTransport", RecordedTransport)
        out = tmp_path / "dets.jsonl"
        with serving(ec.LoopbackTransport(bundle)) as server:
            code = run(["bench", "--input-dir", str(indir),
                        "--mode", "always_cloud", "--cloud", server.addr,
                        "--timeout-ms", "5000", "--seed", "9",
                        "--detections", str(out), "--output", str(tmp_path / "s.json")])
        assert code == 0
        report = json.loads((tmp_path / "s.json").read_text())
        assert report["cloud"] == 3 and report["degraded"] == 0
        assert report["mean_cloud_compute_ms"] > 0
        assert report["mean_cloud_network_ms"] >= 0
        got = det.jsonl_to_detections(out.read_text())
        want = []
        for i in range(3):
            image = ppm.read_ppm(indir / f"{i}.ppm")
            dets, _ = md.detect_frame(image, "car, truck, bus", bundle,
                                      dehaze_first=True)
            want += [(i, d) for d in dets]
        assert want and got == want
        # the one link the command opened is closed; an unclosed socket
        # would also raise a ResourceWarning when collected
        assert len(opened) == 1 and opened[0].sock is None
        gc.collect()

    def test_missing_directory_exit_one(self, tmp_path, capsys):
        assert run(["bench", "--input-dir", str(tmp_path / "missing"),
                    "--mode", "always_edge", "--seed", "1",
                    "--detections", str(tmp_path / "o.jsonl")]) == 1


class TestConfigPrecedence:
    def test_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tau=0.5\nmode=always_edge\n")
        args = cli.build_parser().parse_args(
            ["bench", "--input-dir", "x", "--config", str(cfg), "--tau", "0.7"])
        eff = cli.effective_config(args)
        assert eff["tau"] == 0.7
        assert eff["mode"] == "always_edge"

    @pytest.fixture()
    def no_weights(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("weights loaded before the flags were checked")
        monkeypatch.setattr(cli, "_load_bundle", refuse)

    def test_bad_threshold_flag_fails_before_the_model_runs(self, tmp_path, image_path,
                                                            no_weights, capsys):
        code = run(["detect", "--image", image_path, "--seed", "1",
                    "--obj-thresh", "1.5", "--output", str(tmp_path / "o.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--obj-thresh: obj_thresh must lie in (0, 1), got 1.5" in err
        assert not (tmp_path / "o.jsonl").exists()

    def test_negative_timeout_flag_fails_before_any_frame(self, tmp_path, no_weights,
                                                          capsys):
        indir = tmp_path / "imgs"
        indir.mkdir()
        (indir / "0.ppm").write_bytes(
            ppm.image_to_ppm_bytes(np.full((3, 32, 32), 0.5, np.float32)))
        code = run(["bench", "--input-dir", str(indir), "--mode", "always_cloud",
                    "--cloud", "127.0.0.1:9", "--timeout-ms", "-5", "--seed", "1",
                    "--detections", str(tmp_path / "o.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--timeout-ms: timeout_ms must be positive and finite, got -5.0" in err
        assert not (tmp_path / "o.jsonl").exists()

    def test_unknown_mode_fails_like_any_bad_flag(self, tmp_path, no_weights, capsys):
        code = run(["bench", "--input-dir", str(tmp_path), "--mode", "sometimes",
                    "--seed", "1", "--detections", str(tmp_path / "o.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert ("--mode: mode must be always_edge, always_cloud or adaptive, "
                "got 'sometimes'") in err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("text, reason", [
        (",", "empty text input"),
        (", ".join(["car"] * 17), "too many phrases: 17 > 16"),
    ])
    def test_unusable_prompt_fails_before_the_model_runs(self, text, reason,
                                                         no_weights, capsys):
        code = run(["serve-cloud", "--listen", "127.0.0.1:0", "--seed", "1",
                    "--text", text])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"--text: text is not a usable prompt: {reason}" in err

    @pytest.mark.parametrize("argv, message", [
        (["bench", "--mode", "always_cloud", "--cloud", "localhost"],
         "--cloud: address 'localhost' has no port; expected host:port"),
        (["bench", "--cloud", ":99999"],
         "--cloud: address ':99999' has port 99999 outside [0, 65535]"),
        (["bench", "--cloud", "[::1]:5956"],
         "--cloud: address '[::1]:5956' has a bracketed or IPv6 host '[::1]'"),
        (["bench", "--mode", "adaptive"], "policy 'adaptive' requires --cloud"),
        (["serve-cloud", "--listen", "nohost"],
         "--listen: address 'nohost' has no port; expected host:port"),
    ], ids=["no_port", "port_out_of_range", "ipv6_host", "no_cloud",
            "listen_no_port"])
    def test_unusable_address_fails_before_the_model_runs(self, tmp_path, argv,
                                                          message, no_weights,
                                                          capsys):
        if argv[0] == "bench":
            # a missing directory: the address is checked before any image
            argv = argv + ["--input-dir", str(tmp_path / "missing"),
                           "--detections", str(tmp_path / "o.jsonl")]
        assert run(argv + ["--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert message in err
        assert os.listdir(tmp_path) == []

    def test_config_weights_acts_as_weights_flag(self, tmp_path, monkeypatch,
                                                 capsys):
        # a named archive that is missing is an error, seed or no seed
        monkeypatch.chdir(tmp_path)
        indir = tmp_path / "imgs"
        indir.mkdir()
        (indir / "0.ppm").write_bytes(
            ppm.image_to_ppm_bytes(np.full((3, 32, 32), 0.5, np.float32)))
        missing = tmp_path / "nonexistent" / "w.bin"
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"weights={missing}\nseed=3\n")
        for named in (["--config", str(cfg)],
                      ["--weights", str(missing), "--seed", "3"]):
            assert run(["bench", "--input-dir", str(indir), "--mode", "always_edge",
                        *named, "--output", str(tmp_path / "r.json")]) == 1
            err = capsys.readouterr().err
            assert err == f"yolovehicle: error: weights archive not found: {missing}\n"
        assert sorted(os.listdir(tmp_path)) == ["c.cfg", "imgs"]

    def test_weights_flag_beats_config_weights(self, tmp_path, image_path,
                                               monkeypatch):
        # the file's weights= fills only an unset --weights
        monkeypatch.chdir(tmp_path)
        weights = tmp_path / "w.bin"
        md.save_bundle(weights, md.init_bundle(9))
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"weights={tmp_path / 'nonexistent' / 'w.bin'}\n")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(["detect", "--image", image_path, "--config", str(cfg),
                    "--weights", str(weights), "--output", str(a)]) == 0
        assert run(["detect", "--image", image_path, "--weights", str(weights),
                    "--output", str(b)]) == 0

        def detections(path):
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            return [{k: v for k, v in r.items() if k != "inference_ms"} for r in rows]
        assert detections(a) == detections(b) != []

    def test_bad_config_is_runtime_error(self, tmp_path, image_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("nonsense=1\n")
        code = run(["detect", "--image", image_path, "--config", str(cfg),
                    "--seed", "1", "--output", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert "nonsense" in capsys.readouterr().err

    def test_config_seed_acts_as_seed_flag(self, tmp_path, image_path,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)  # no weights.bin here
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=3\n")
        outs = {name: tmp_path / f"{name}.jsonl"
                for name in ("config", "flag", "flag_over_config", "other")}
        common = ["detect", "--image", image_path, "--obj-thresh", "0.3"]
        assert run(common + ["--config", str(cfg),
                             "--output", str(outs["config"])]) == 0
        assert run(common + ["--seed", "3", "--output", str(outs["flag"])]) == 0
        assert run(common + ["--config", str(cfg), "--seed", "5",
                             "--output", str(outs["flag_over_config"])]) == 0
        assert run(common + ["--seed", "5", "--output", str(outs["other"])]) == 0
        assert outs["config"].read_bytes() == outs["flag"].read_bytes()
        assert outs["flag_over_config"].read_bytes() == outs["other"].read_bytes()
        # the two seeds give different weights, so the checks above can fail
        assert outs["flag"].read_bytes() != outs["other"].read_bytes()

    def test_schema_default_seed_is_not_a_fixed_seed(self, tmp_path, image_path,
                                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("tau=0.5\n")
        assert run(["detect", "--image", image_path, "--config", str(cfg),
                    "--output", str(tmp_path / "o.jsonl")]) == 1
        assert "weights archive not found: weights.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["detect", "--image", "x.ppm"],
        ["dehaze", "--image", "x.ppm"],
        ["train-toy"],
        ["bench", "--input-dir", "x"],
        ["serve-cloud"],
    ])
    def test_every_seeded_command_reads_config_seed(self, tmp_path, argv):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed=3\n")
        parser = cli.build_parser()
        assert cli.effective_config(parser.parse_args(argv))["seed"] is None
        assert cli.effective_config(
            parser.parse_args(argv + ["--config", str(cfg)]))["seed"] == 3
        assert cli.effective_config(
            parser.parse_args(argv + ["--config", str(cfg), "--seed", "4"]))["seed"] == 4


class TestArchiveRule:
    """cli._load_bundle loads the archive that --weights or weights= names;
    with none named, a seed gives init_bundle(seed) and no seed reads
    weights.bin from the working directory."""

    @pytest.fixture()
    def scene(self, tmp_path):
        image, _ = md.make_toy_scene(tc.Rng(31))
        indir = tmp_path / "imgs"
        indir.mkdir()
        (indir / "0.ppm").write_bytes(ppm.image_to_ppm_bytes(image))
        return indir

    @staticmethod
    def argv(cmd, indir, out):
        image = str(indir / "0.ppm")
        return {
            "detect": ["detect", "--image", image, "--obj-thresh", "0.05",
                       "--output", str(out)],
            "dehaze": ["dehaze", "--image", image, "--output", str(out)],
            "bench": ["bench", "--input-dir", str(indir), "--mode", "always_edge",
                      "--obj-thresh", "0.05", "--detections", str(out),
                      "--output", str(out.parent / "bench.json")],
        }[cmd]

    @pytest.mark.parametrize("cmd", ["detect", "dehaze", "bench"])
    def test_seed_ignores_a_stray_weights_bin(self, tmp_path, scene, cmd,
                                              monkeypatch):
        clean, stray = tmp_path / "clean", tmp_path / "stray"
        clean.mkdir()
        stray.mkdir()
        md.save_bundle(stray / "weights.bin", md.init_bundle(9))
        outs = {}
        for name, cwd, extra in (
                ("clean", clean, ["--seed", "3"]),
                ("stray", stray, ["--seed", "3"]),
                ("named", stray, ["--seed", "3", "--weights", "weights.bin"])):
            monkeypatch.chdir(cwd)
            outs[name] = cwd / f"{name}.out"
            assert run(self.argv(cmd, scene, outs[name]) + extra) == 0
        assert outs["clean"].read_bytes() == outs["stray"].read_bytes()
        # a named archive wins over the seed, and its weights change the
        # output, so the equality above can fail
        assert outs["named"].read_bytes() != outs["stray"].read_bytes()

    def test_bench_reports_the_size_of_a_loaded_archive_only(
            self, tmp_path, scene, monkeypatch):
        monkeypatch.chdir(tmp_path)
        md.save_bundle(tmp_path / "weights.bin", md.init_bundle(9))
        size = os.path.getsize(tmp_path / "weights.bin")

        def report(*extra):
            out = tmp_path / "o.jsonl"
            assert run(self.argv("bench", scene, out) + list(extra)) == 0
            return json.loads((tmp_path / "bench.json").read_text())
        assert "model_size_bytes" not in report("--seed", "3")
        assert report("--seed", "3", "--weights", "weights.bin")[
            "model_size_bytes"] == size
        # no seed and no archive named: weights.bin is loaded
        assert report()["model_size_bytes"] == size
