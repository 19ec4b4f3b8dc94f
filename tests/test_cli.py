import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from roadwarn import audio_io, features, synth
from roadwarn.classifiers import CLASS_ORDER, SoundClass, load_model_meta
from roadwarn.cli import RunConfig, main, run_simulation
from roadwarn.deployment import build_plan, load_plan_config
from roadwarn.features import MfccConfig

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

PLAN_INI = """[plan]
road_length = 200
road_width = 7
"""


@pytest.fixture()
def plan_file(tmp_path):
    path = tmp_path / "plan.ini"
    path.write_text(PLAN_INI)
    return path


@pytest.fixture(scope="module")
def dt_model_file(tmp_path_factory, features_csv):
    path = tmp_path_factory.mktemp("models") / "dt.json"
    assert main(["train", str(features_csv), str(path), "--model", "dt"]) == 0
    return path


class TestSynthCommand:
    def test_writes_full_corpus(self, corpus_dir):
        wavs = sorted(corpus_dir.glob("*.wav"))
        assert len(wavs) == 210
        assert (corpus_dir / "manifest.csv").exists()

    def test_same_seed_identical_manifest(self, corpus_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", str(again), "--seed", "0"]) == 0
        assert (again / "manifest.csv").read_bytes() == \
            (corpus_dir / "manifest.csv").read_bytes()

    def test_unwritable_out_dir(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        out = blocker / "corpus"
        assert main(["synth", str(out)]) == 2
        assert not out.exists()


class TestExtractCommand:
    def test_shape(self, features_csv):
        matrix, labels, names = features.load_dataset_csv(features_csv)
        assert matrix.shape == (210 * 40, 31)
        assert len(names) == 31
        assert all(label is not None for label in labels)

    def test_rerun_byte_identical(self, corpus_dir, features_csv, tmp_path):
        other = tmp_path / "again.csv"
        assert main(["extract", str(corpus_dir), str(other)]) == 0
        assert other.read_bytes() == features_csv.read_bytes()

    def test_missing_corpus(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["extract", str(empty), str(tmp_path / "f.csv")]) == 2

    def test_seed0_csv_hash_matches_benchmark_record(self, features_csv):
        # the benchmark's recorded output for the seed-0 corpus: any change
        # to the extracted bytes must show up here, not only in a bench run
        expected = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
        want = json.loads(expected.read_text())["train_cv"]["features_sha256"]
        assert hashlib.sha256(features_csv.read_bytes()).hexdigest() == want


class TestTrainEval:
    def test_train_and_eval_roundtrip(self, features_csv, dt_model_file, tmp_path, capsys):
        r1 = tmp_path / "r1.txt"
        r2 = tmp_path / "r2.txt"
        assert main(["eval", str(features_csv), "--model-file", str(dt_model_file),
                     "--report", str(r1)]) == 0
        assert main(["eval", str(features_csv), "--model-file", str(dt_model_file),
                     "--report", str(r2)]) == 0
        assert r1.read_bytes() == r2.read_bytes()
        text = r1.read_text()
        assert "f-measure" in text and "overall accuracy" in text
        for c in CLASS_ORDER:
            assert c.value in text.splitlines()[0]

    def test_default_mlp_fits_the_corpus(self, features_csv, tmp_path, capsys):
        # no --config: the default learning rate must fit the seed-0 corpus
        # (0.01 stopped at 62% and labelled no H frame as H)
        assert main(["train", str(features_csv), str(tmp_path / "mlp.json")]) == 0
        accuracy = re.search(r"training accuracy ([0-9.]+)%", capsys.readouterr().out)
        assert float(accuracy.group(1)) >= 95.0

    def test_train_refuses_csv_of_other_feature_settings(self, tmp_path, capsys):
        # 28 columns from [features] n_coeffs = 10; without that config, train
        # would record 13 MFCCs and detect would extract 31 columns
        csv = tmp_path / "narrow.csv"
        labels = [CLASS_ORDER[i % 4] for i in range(8)]
        names = features.feature_names(MfccConfig(n_coeffs=10))
        features.save_dataset_csv(csv, np.arange(8 * 28.0).reshape(8, 28), labels, names)
        model = tmp_path / "dt.json"
        assert main(["train", str(csv), str(model), "--model", "dt"]) == 2
        assert "its 28 columns are not the 31 that the [features] settings extract" in \
            capsys.readouterr().err
        assert not model.exists()

        config = tmp_path / "run.ini"
        config.write_text("[features]\nn_coeffs = 10\n")
        assert main(["train", str(csv), str(model), "--model", "dt",
                     "--config", str(config)]) == 0
        assert load_model_meta(model)["mfcc"]["n_coeffs"] == 10

    def test_cv_eval_report(self, features_csv, tmp_path):
        report = tmp_path / "cv.txt"
        assert main(["eval", str(features_csv), "--model", "dt",
                     "--report", str(report)]) == 0
        assert "overall accuracy" in report.read_text()

    def test_compare_grid_on_small_csv(self, tmp_path):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((48, 31))
        labels = [CLASS_ORDER[i % 4] for i in range(48)]
        for i, label in enumerate(labels):
            X[i, :5] += 5 * CLASS_ORDER.index(label)
            X[i, 5:] += 2 * CLASS_ORDER.index(label)
        csv = tmp_path / "small.csv"
        features.save_dataset_csv(csv, X, labels, features.feature_names())
        report = tmp_path / "grid.txt"
        assert main(["eval", str(csv), "--compare", "--folds", "2",
                     "--report", str(report)]) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0].split() == ["classifier", "five", "cepstral", "all"]
        assert len(lines) == 5
        for line in lines[1:]:
            cells = [float(v) for v in line.split()[1:]]
            assert len(cells) == 3 and all(0 <= v <= 100 for v in cells)

    def test_compare_honours_classifier_sections(self, tmp_path, capsys):
        # four separable classes; a depth-1 tree has two leaves, so it names
        # at most two of them and scores at most 50%, where depth 10 scores ~100%
        rng = np.random.default_rng(0)
        X = rng.standard_normal((48, 31))
        labels = [CLASS_ORDER[i % 4] for i in range(48)]
        for i, label in enumerate(labels):
            X[i] += 5 * CLASS_ORDER.index(label)
        csv = tmp_path / "small.csv"
        features.save_dataset_csv(csv, X, labels, features.feature_names())
        config = tmp_path / "run.ini"
        config.write_text("[mlp]\nepochs = 20\n[dt]\nmax_depth = 1\n")
        assert main(["eval", str(csv), "--compare", "--folds", "2",
                     "--config", str(config)]) == 0
        grid = [ln.split() for ln in capsys.readouterr().out.splitlines()
                if not ln.startswith("#")]
        rows = {cells[0]: [float(v) for v in cells[1:]] for cells in grid[1:]}
        assert all(v <= 50.0 for v in rows["dt"])
        assert all(v > 90.0 for v in rows["nb"])

    def test_compare_honours_feature_config(self, tmp_path, capsys):
        mfcc_cfg = MfccConfig(n_coeffs=10)
        names = features.feature_names(mfcc_cfg)
        assert len(names) == 28
        rng = np.random.default_rng(1)
        X = rng.standard_normal((48, 28))
        labels = [CLASS_ORDER[i % 4] for i in range(48)]
        for i, label in enumerate(labels):
            X[i] += 3 * CLASS_ORDER.index(label)
        csv = tmp_path / "narrow.csv"
        features.save_dataset_csv(csv, X, labels, names)
        config = tmp_path / "run.ini"
        config.write_text("[features]\nn_coeffs = 10\n[mlp]\nepochs = 20\n")
        assert main(["eval", str(csv), "--compare", "--folds", "2",
                     "--config", str(config)]) == 0
        grid = [ln for ln in capsys.readouterr().out.splitlines()
                if not ln.startswith("#")]
        assert grid[0].split() == ["classifier", "five", "cepstral", "all"]
        assert [ln.split()[0] for ln in grid[1:]] == ["mlp", "knn", "nb", "dt"]
        for line in grid[1:]:
            cells = [float(v) for v in line.split()[1:]]
            assert len(cells) == 3 and all(0 <= v <= 100 for v in cells)


class TestDetectCommand:
    def _render_wav(self, tmp_path, name, buffer):
        path = tmp_path / name
        audio_io.write_wav(path, buffer)
        return path

    def test_heavy_passby(self, dt_model_file, tmp_path, capsys):
        profile, scenario = synth.corpus_clip_params(SoundClass.H, clip_seed=160)
        buffer, _ = synth.synth_passby(profile, scenario)
        wav = self._render_wav(tmp_path, "h.wav", buffer)
        assert main(["detect", str(wav), str(dt_model_file)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        parts = out[0].split()
        assert parts[0] == "DET" and parts[2] == "H" and parts[3] == "approaching"
        assert len(out) == 2 and out[1].startswith("WARN 0 H approaching")

    def test_birds_clip_no_warning(self, dt_model_file, tmp_path, capsys):
        wav = self._render_wav(tmp_path, "birds.wav", synth.synth_nv("birds", 4.0, 3))
        assert main(["detect", str(wav), str(dt_model_file)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].split()[2] == "NV"
        assert len(out) == 1  # no WARN line

    def test_short_clip_fails(self, dt_model_file, tmp_path):
        short = audio_io.SampleBuffer(
            0.1 * np.sin(np.arange(8000) * 0.2) + 0.01, 16000)  # 0.5 s
        wav = self._render_wav(tmp_path, "short.wav", short)
        assert main(["detect", str(wav), str(dt_model_file)]) == 2

    def test_model_file_that_is_not_an_object(self, features_csv, tmp_path, capsys):
        model = tmp_path / "list.json"
        model.write_text("[1, 2]")
        wav = self._render_wav(tmp_path, "birds.wav", synth.synth_nv("birds", 4.0, 3))
        assert main(["detect", str(wav), str(model)]) == 2
        assert main(["eval", str(features_csv), "--model-file", str(model)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {model}: not a roadwarn model file"] * 2

    def test_model_file_missing_a_field(self, tmp_path, capsys):
        model = tmp_path / "mlp.json"
        model.write_text(json.dumps({"format": "roadwarn-model", "version": 1, "kind": "mlp",
                                     "mean": [0.0], "std": [1.0]}))
        wav = self._render_wav(tmp_path, "birds.wav", synth.synth_nv("birds", 4.0, 3))
        assert main(["detect", str(wav), str(model)]) == 2
        assert capsys.readouterr().err == f"error: {model}: mlp model has no field 'w1'\n"


class TestSimulate:
    def test_lh_vehicle_single_warning(self, plan_file, tmp_path):
        script = tmp_path / "lh.txt"
        script.write_text("PED walker 87.5 2.0 9.0\n"
                          "VEHICLE LH 75 0 10.0\n")
        report = tmp_path / "log.txt"
        assert main(["simulate", str(plan_file), str(script),
                     "--report", str(report)]) == 0
        warns = [ln for ln in report.read_text().splitlines() if ln.startswith("WARN")]
        assert len(warns) == 1
        lead = float(warns[0].split("lead=")[1].rstrip("s"))
        assert 3.6 <= lead <= 4.8

    def test_pedestrian_outside_areas(self, plan_file, tmp_path):
        script = tmp_path / "out.txt"
        script.write_text("PED far 87.5 30.0 9.0\n"
                          "VEHICLE LH 75 0 10.0\n")
        log = run_simulation(build_plan(200.0), script.read_text().splitlines())
        assert [ln for ln in log if ln.startswith("WARN")] == []

    def test_ll_vehicle_never_warns(self, plan_file, tmp_path):
        script = tmp_path / "ll.txt"
        script.write_text("PED walker 87.5 2.0 9.0\n"
                          "VEHICLE LL 40 0 10.0\n")
        log = run_simulation(build_plan(200.0), script.read_text().splitlines())
        assert [ln for ln in log if ln.startswith("WARN")] == []

    @pytest.mark.parametrize("speed", ["0", "-50", "nan", "inf"])
    def test_bad_vehicle_speed_rejected(self, plan_file, tmp_path, capsys, speed):
        script = tmp_path / "speed.txt"
        script.write_text(f"PED walker 87.5 2.0 9.0\nVEHICLE LH {speed} 0 10.0\n")
        assert main(["simulate", str(plan_file), str(script)]) == 2
        captured = capsys.readouterr()
        assert "script line 2:" in captured.err and "speed" in captured.err
        assert "lead=" not in captured.out

    @pytest.mark.parametrize("x, t, field", [("nan", "10.0", "x"), ("inf", "10.0", "x"),
                                             ("-inf", "10.0", "x"), ("0", "nan", "t"),
                                             ("0", "inf", "t")])
    def test_nonfinite_vehicle_position_or_time_rejected(self, plan_file, tmp_path,
                                                         capsys, x, t, field):
        # a NaN event time used to pass the freshness check and warn a stale walker
        script = tmp_path / "vehicle.txt"
        script.write_text(f"PED walker 87.5 2.0 0.0\nVEHICLE LH 75 {x} {t}\n")
        assert main(["simulate", str(plan_file), str(script)]) == 2
        captured = capsys.readouterr()
        assert f"script line 2: vehicle {field} must be a finite number" in captured.err
        assert "WARN" not in captured.out

    @pytest.mark.parametrize("fields, message", [
        ("LH 75 abc 1", "vehicle x must be a finite number, got 'abc'"),
        ("LH fast 0 1", "vehicle speed must be a finite positive number, got 'fast'"),
        ("LH 75 0 soon", "vehicle t must be a finite number, got 'soon'"),
        ("XX 75 0 1", "unknown vehicle class 'XX'"),
    ])
    def test_bad_vehicle_field_names_its_line(self, plan_file, tmp_path, capsys,
                                             fields, message):
        script = tmp_path / "vehicle.txt"
        script.write_text(f"# header\nVEHICLE {fields}\n")
        assert main(["simulate", str(plan_file), str(script)]) == 2
        assert f"script line 2: {message}" in capsys.readouterr().err

    def test_bad_script_line(self, plan_file, tmp_path):
        script = tmp_path / "bad.txt"
        script.write_text("DRIVE fast\n")
        assert main(["simulate", str(plan_file), str(script)]) == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_plan_value_rejected(self, tmp_path, capsys, value):
        # a NaN window used to pass the `<= 0` check, and then no position was fresh
        plan = tmp_path / "plan.ini"
        plan.write_text(PLAN_INI + f"freshness_window = {value}\n")
        script = tmp_path / "walk.txt"
        script.write_text("PED walker 87.5 2.0 9.0\nVEHICLE LH 75 0 10.0\n")
        assert main(["simulate", str(plan), str(script)]) == 2
        captured = capsys.readouterr()
        assert "freshness_window must be finite and positive" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key", ["freshnes_window", "mic_height"])
    def test_unknown_plan_key_rejected(self, tmp_path, capsys, key):
        # a misspelt key used to be ignored, leaving the 5 s default window, so a
        # walker stamped 2 s before the event was warned under a 1 s window
        plan = tmp_path / "plan.ini"
        plan.write_text(PLAN_INI + f"{key} = 1\n")
        script = tmp_path / "walk.txt"
        script.write_text("PED walker 87.5 2.0 8.0\nVEHICLE LH 75 0 10.0\n")
        assert main(["simulate", str(plan), str(script)]) == 2
        captured = capsys.readouterr()
        assert f"unknown [plan] key {key!r}" in captured.err
        assert captured.out == ""


class TestRunConfig:
    def test_custom_feature_dims_flow_through(self, tmp_path, capsys):
        # mini corpus with hand-written manifest
        corpus = tmp_path / "mini"
        corpus.mkdir()
        lines = ["file,class,speed_kmh,t_closest_s,seed"]
        for i, cls in enumerate([SoundClass.H, SoundClass.H, SoundClass.LL,
                                 SoundClass.LL, SoundClass.NV, SoundClass.NV]):
            buffer, speed, t_closest = synth.render_corpus_clip(cls, i, 7000 + i)
            name = f"mini_{i}.wav"
            audio_io.write_wav(corpus / name, buffer)
            lines.append(f"{name},{cls.value},{speed or ''},"
                         f"{t_closest or ''},{7000 + i}")
        (corpus / "manifest.csv").write_text("\n".join(lines) + "\n")

        config = tmp_path / "run.ini"
        config.write_text("[features]\nn_coeffs = 8\nlpc_order = 6\n"
                          "[dt]\nmax_depth = 6\n")
        csv = tmp_path / "mini.csv"
        assert main(["extract", str(corpus), str(csv), "--config", str(config)]) == 0
        matrix, labels, names = features.load_dataset_csv(csv)
        assert matrix.shape[1] == 5 + 8 + 6 + 1
        out = capsys.readouterr().out
        assert "# features.n_coeffs = 8" in out

        model = tmp_path / "mini.json"
        assert main(["train", str(csv), str(model), "--model", "dt",
                     "--config", str(config)]) == 0
        capsys.readouterr()
        # detect picks the 20-dim extraction settings up from the model file
        assert main(["detect", str(corpus / "mini_0.wav"), str(model)]) == 0
        det_lines = capsys.readouterr().out.strip().splitlines()
        assert det_lines[0].startswith("DET ")
        assert det_lines[0].split()[2] in ("H", "LL", "LH", "NV")

    @pytest.mark.parametrize("text, message", [
        ("[dt]\nmaxdepth = 1\n", "unknown [dt] key 'maxdepth'"),
        ("[mlp]\nepoch = 5\n", "unknown [mlp] key 'epoch'"),
        ("[featurs]\nn_coeffs = 3\n", "unknown section [featurs]"),
        ("[mlp]\nlearning_rate = nan\n", "[mlp] learning_rate must be finite"),
    ], ids=["dt-key", "mlp-key", "section", "nan-value"])
    def test_config_typo_is_a_data_error(self, tmp_path, capsys, text, message):
        csv = tmp_path / "small.csv"
        labels = [CLASS_ORDER[i % 4] for i in range(8)]
        features.save_dataset_csv(csv, np.arange(8 * 31.0).reshape(8, 31), labels,
                                  features.feature_names())
        config = tmp_path / "run.ini"
        config.write_text(text)
        model = tmp_path / "dt.json"
        assert main(["train", str(csv), str(model), "--model", "dt",
                     "--config", str(config)]) == 2
        assert message in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("block", re.findall(r"```ini\n(.*?)```", README.read_text(),
                                                 re.DOTALL),
                             ids=lambda block: block[1:block.index("]")])
    def test_readme_ini_examples_load(self, tmp_path, block):
        path = tmp_path / "example.ini"
        path.write_text(block)
        if block.startswith("[plan]"):
            assert len(load_plan_config(path).processors) == 9
        else:
            assert RunConfig(path).classifier_kwargs["mlp"]["epochs"] == 300


class TestImports:
    def test_cli_and_warnd_load_no_scipy(self):
        code = ("import sys, roadwarn.cli, roadwarn.warnd; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestServeCommand:
    def test_bad_listen_argument(self, plan_file):
        assert main(["serve", "--plan", str(plan_file), "--listen", "nonsense"]) == 1


class TestExitCodes:
    def test_usage_error_is_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1

    def test_missing_file_is_exit_2(self, tmp_path):
        assert main(["detect", str(tmp_path / "missing.wav"),
                     str(tmp_path / "missing.json")]) == 2
