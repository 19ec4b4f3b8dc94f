import dataclasses
import hashlib
import inspect
import json
import os
import re
import socket
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadwarn import audio_io, classifiers, cli, decision, features, synth
from roadwarn.classifiers import _codes, load_model, load_model_meta
from roadwarn.cli import main, run_simulation
from roadwarn.decision import VOTE_WINDOW
from roadwarn.deployment import DeploymentPlan, load_plan_config, warning_decision
from roadwarn.features import LpcConfig, MfccConfig
from roadwarn.labels import CLASS_ORDER, DetectionResult, SoundClass

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


@pytest.fixture(scope="module")
def frame_models(tmp_path_factory, features_csv, dt_model_file):
    """The DT and the MLP frame classifiers of the seed-0 corpus."""
    mlp_file = tmp_path_factory.mktemp("models") / "mlp.json"
    assert main(["train", str(features_csv), str(mlp_file), "--model", "mlp"]) == 0
    return {"dt": load_model(dt_model_file), "mlp": load_model(mlp_file)}


def render_clip(sound_class, clip_seed, approach_from):
    """A 4 s corpus-style clip: a pass-by from `approach_from`, or for NV an
    ambient clip."""
    if sound_class == SoundClass.NV:
        return synth.render_corpus_clip(sound_class, clip_seed, clip_seed)[0]
    profile, scenario = synth.corpus_clip_params(sound_class, clip_seed)
    scenario = dataclasses.replace(scenario, approach_from=approach_from)
    return synth.synth_passby(profile, scenario)[0]


def detect_all_frames_reference(buffer, model):
    """The detection as first written: every frame classified, then the NV
    gate at the climax and the vote over frames climax-7..climax."""
    frames = audio_io.frame_signal(buffer)
    labels = model.predict_batch(features.extract_features(frames, buffer.sample_rate))
    track = decision.track_frames(frames, buffer.sample_rate)
    climax = decision.detect_climax(track)
    if climax < VOTE_WINDOW - 1:
        raise decision.TrackTooShortError(f"climax {climax}")
    sound_type = (SoundClass.NV if labels[climax] == SoundClass.NV
                  else decision.vote_final_frames(labels[climax - VOTE_WINDOW + 1:climax + 1]))
    return DetectionResult(climax_index=climax, sound_type=sound_type,
                           direction=decision.infer_direction(track, climax))


def outcome(detect):
    """What `detect()` returns, or the type of the ValueError it raises."""
    try:
        return detect()
    except ValueError as exc:
        return type(exc)


clip_args = dict(sound_class=st.sampled_from(list(SoundClass)),
                 clip_seed=st.integers(0, 10 ** 6),
                 approach_from=st.sampled_from(["front", "back"]))


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

    def test_missing_corpus(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        manifest = empty / "manifest.csv"
        assert main(["extract", str(empty), str(tmp_path / "f.csv")]) == 2
        assert capsys.readouterr() == (
            "", f"error: [Errno 2] No such file or directory: '{manifest}'\n")
        # a manifest of its header alone lists no clip to extract
        manifest.write_text("file,class,speed_kmh,t_closest_s,seed\n")
        assert main(["extract", str(empty), str(tmp_path / "f.csv")]) == 2
        assert capsys.readouterr() == ("", f"error: {manifest}: no clip rows\n")
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("setting, message", [
        ("pre_emphasis = 1e300", "{wav}: mfcc0 of frame 0 is not finite, got nan"),
        ("fmin = -800", "{config}: [features] fmin must be >= 0, got -800.0"),
    ], ids=["pre-emphasis", "fmin"])
    def test_settings_that_give_no_finite_features_write_no_csv(
            self, corpus_dir, tmp_path, capsys, setting, message):
        # both used to write a CSV: of NaN, which train refused, or of MFCCs
        # that were the same on every frame, which train fitted
        config = tmp_path / "run.ini"
        config.write_text(f"[features]\n{setting}\n")
        csv = tmp_path / "f.csv"
        assert main(["extract", str(corpus_dir), str(csv), "--config", str(config)]) == 2
        wav = corpus_dir / synth.load_manifest(corpus_dir / "manifest.csv")[0].file
        assert capsys.readouterr().err == f"error: {message.format(wav=wav, config=config)}\n"
        assert not csv.exists()

    @pytest.mark.parametrize("row, message", [
        ("clip_000_H.wav,XX,40,2,7", "unknown class 'XX', expected one of H, LL, LH, NV"),
        ("clip_000_H.wav,H,40,2", "ragged row with 4 fields"),
        ("clip_000_H.wav,H,fast,2,7", "speed_kmh is not a number: 'fast'"),
        ("clip_000_H.wav,H,40,soon,7", "t_closest_s is not a number: 'soon'"),
        ("clip_000_H.wav,H,40,2,seven", "seed is not a number: 'seven'"),
    ])
    def test_bad_manifest_row_names_its_line(self, tmp_path, capsys, row, message):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        manifest = corpus / "manifest.csv"
        manifest.write_text(f"file,class,speed_kmh,t_closest_s,seed\n\n{row}\n")
        assert main(["extract", str(corpus), str(tmp_path / "f.csv")]) == 2
        assert capsys.readouterr() == ("", f"error: {manifest}:3: {message}\n")
        assert not (tmp_path / "f.csv").exists()

    def test_seed0_csv_hash_matches_benchmark_record(self, features_csv):
        # the benchmark's recorded output for the seed-0 corpus: any change
        # to the extracted bytes must show up here, not only in a bench run
        expected = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"
        want = json.loads(expected.read_text())["train_cv"]["features_sha256"]
        assert hashlib.sha256(features_csv.read_bytes()).hexdigest() == want

    @pytest.mark.parametrize("model, config", [
        ("knn", []), ("mlp", ["--config", str(ROOT / "perfbench" / "criterion02.ini")])],
        ids=["knn", "mlp"])
    def test_seed0_cv_report_matches_benchmark_record(self, features_csv, tmp_path,
                                                      model, config):
        # the benchmark's recorded 6-fold reports: a change to the fits, the
        # folds or the metrics that moves a printed figure must show up here
        expected = ROOT / "perfbench" / "expected.json"
        want = json.loads(expected.read_text())["train_cv"][f"eval_{model}"]
        report = tmp_path / "report.txt"
        assert main(["eval", str(features_csv), "--model", model, "--feature-set", "all",
                     *config, "--seed", "0", "--folds", "6", "--report", str(report)]) == 0
        assert report.read_text(encoding="utf-8") == want


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

    def test_trained_tree_file_bytes(self, dt_model_file):
        # `train --model dt` on the seed-0 CSV, measured with numpy 2.4; a tree
        # fit does no BLAS product, so the OpenBLAS thread count cannot move it
        assert hashlib.sha256(dt_model_file.read_bytes()).hexdigest() == \
            "53cb747e0974123d89231d5aa809509f1e71afd26fb1b358e8e0fb753de35397"

    def test_default_mlp_fits_the_corpus(self, features_csv, tmp_path, capsys):
        # no --config: the default learning rate must fit the seed-0 corpus
        # (0.01 stopped at 62% and labelled no H frame as H)
        assert main(["train", str(features_csv), str(tmp_path / "mlp.json")]) == 0
        accuracy = re.search(r"training accuracy ([0-9.]+)%", capsys.readouterr().out)
        assert float(accuracy.group(1)) >= 95.0

    def test_mlp_train_says_how_training_converged(self, features_csv, tmp_path, capsys):
        # a learning rate of 50 overshoots, so the fit halves it; the final
        # loss, the halvings and the final rate are printed, not saved
        config = tmp_path / "run.ini"
        config.write_text("[mlp]\nlearning_rate = 50\nepochs = 10\n")
        model_path = tmp_path / "mlp.json"
        assert main(["train", str(features_csv), str(model_path), "--config", str(config)]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        said = re.search(r"\(training accuracy [0-9.]+%, final loss ([0-9.e+-]+), "
                         r"(\d+) rate halvings, final rate ([0-9.e+-]+)\)$", line)
        loss, halvings, rate = float(said.group(1)), int(said.group(2)), float(said.group(3))
        assert halvings > 0
        assert rate == pytest.approx(50 * 0.5 ** halvings, rel=1e-5)
        model = load_model(model_path)
        matrix, labels, _ = features.load_dataset_csv(features_csv)
        at_saved_weights, _ = model.loss_and_gradients((matrix - model.mean) / model.std,
                                                       _codes(labels))
        assert loss == pytest.approx(at_saved_weights, rel=1e-5)
        assert set(json.loads(model_path.read_text())) == {
            "format", "version", "kind", "mean", "std", "w1", "b1", "w2", "b2", "meta"}

    def test_train_takes_n_coeffs_from_the_csv_header(self, tmp_path, capsys):
        # 28 columns and no record: the header's mfcc0..mfcc9 say n_coeffs = 10,
        # which train records, so detect extracts the same 28 columns
        csv = tmp_path / "narrow.csv"
        labels = [CLASS_ORDER[i % 4] for i in range(8)]
        names = features.feature_names(MfccConfig(n_coeffs=10))
        features.save_dataset_csv(csv, np.arange(8 * 28.0).reshape(8, 28), labels, names)
        model = tmp_path / "dt.json"
        assert main(["train", str(csv), str(model), "--model", "dt"]) == 0
        assert load_model_meta(model)["mfcc"]["n_coeffs"] == 10

        model.unlink()
        config = tmp_path / "run.ini"
        config.write_text("[features]\nn_coeffs = 13\n")
        capsys.readouterr()
        assert main(["train", str(csv), str(model), "--model", "dt",
                     "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", f"error: {csv}: [features] n_coeffs = 13 differs "
                                           "from the 10 the CSV was extracted with\n")
        assert not model.exists()

    def test_train_takes_feature_settings_from_the_csv_record(self, tmp_path, capsys):
        # the header cannot show pre_emphasis, fmin or n_filters; the record does
        extracted = MfccConfig(pre_emphasis=0.5, fmin=300.0, n_filters=40)
        csv = tmp_path / "emphasis.csv"
        labels = [CLASS_ORDER[i % 4] for i in range(8)]
        features.save_dataset_csv(csv, np.arange(8 * 31.0).reshape(8, 31), labels,
                                  features.feature_names(extracted),
                                  features.settings_of(extracted, LpcConfig()))
        model = tmp_path / "dt.json"
        assert main(["train", str(csv), str(model), "--model", "dt"]) == 0
        assert load_model_meta(model)["mfcc"] == asdict(extracted)

        # a --config without [features] echoes the settings train used: the record's
        config = tmp_path / "run.ini"
        config.write_text("[dt]\nmax_depth = 3\n")
        capsys.readouterr()
        assert main(["train", str(csv), str(model), "--model", "dt",
                     "--config", str(config)]) == 0
        echoed = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("# ")]
        assert echoed == [f"# features.{key} = {value}" for key, value in
                          features.settings_of(extracted, LpcConfig()).items()] + \
            ["# dt.max_depth = 3"]
        assert load_model_meta(model)["mfcc"] == asdict(extracted)

        config.write_text("[features]\npre_emphasis = 0.5\nn_coeffs = 13\n[dt]\nmax_depth = 3\n")
        assert main(["train", str(csv), str(model), "--model", "dt",
                     "--config", str(config)]) == 0
        assert load_model_meta(model)["mfcc"] == asdict(extracted)

        config.write_text("[features]\npre_emphasis = 0.3\n")
        model.unlink()
        capsys.readouterr()
        assert main(["train", str(csv), str(model), "--model", "dt",
                     "--config", str(config)]) == 2
        assert capsys.readouterr().err == (f"error: {csv}: [features] pre_emphasis = 0.3 differs "
                                           "from the 0.5 the CSV was extracted with\n")
        assert not model.exists()

    def test_csv_without_record_was_extracted_with_the_defaults(self, tmp_path, capsys):
        csv = tmp_path / "plain.csv"
        labels = [CLASS_ORDER[i % 4] for i in range(8)]
        features.save_dataset_csv(csv, np.arange(8 * 31.0).reshape(8, 31), labels,
                                  features.feature_names())
        config = tmp_path / "run.ini"
        config.write_text("[features]\nfmin = 300\n")
        model = tmp_path / "dt.json"
        assert main(["train", str(csv), str(model), "--model", "dt",
                     "--config", str(config)]) == 2
        assert "[features] fmin = 300.0 differs from the 0.0 the CSV was extracted with" in \
            capsys.readouterr().err
        assert not model.exists()

    def test_train_refuses_a_non_finite_record(self, tmp_path, capsys):
        # a NaN used to be saved in the model's meta, which then was not JSON
        csv = tmp_path / "record.csv"
        labels = [CLASS_ORDER[i % 4] for i in range(8)]
        features.save_dataset_csv(csv, np.arange(8 * 31.0).reshape(8, 31), labels,
                                  features.feature_names())
        csv.write_text("# [features] fmin=nan\n" + csv.read_text())
        model = tmp_path / "dt.json"
        assert main(["train", str(csv), str(model), "--model", "dt"]) == 2
        assert capsys.readouterr() == (
            "", f"error: {csv}: bad [features] record: fmin must be finite, got nan\n")
        assert not model.exists()

    def test_a_model_file_train_wrote_re_saves_to_its_own_bytes(self, tmp_path):
        csv = tmp_path / "emphasis.csv"
        labels = [CLASS_ORDER[i % 4] for i in range(8)]
        features.save_dataset_csv(csv, np.arange(8 * 31.0).reshape(8, 31), labels,
                                  features.feature_names(),
                                  features.settings_of(MfccConfig(pre_emphasis=0.5)))
        for name in classifiers.CLASSIFIER_NAMES:
            model, again = tmp_path / f"{name}.json", tmp_path / f"{name}-again.json"
            assert main(["train", str(csv), str(model), "--model", name,
                         "--feature-set", "cepstral"]) == 0
            loaded, feature_set, settings = classifiers.load_model_and_meta(model)
            assert (feature_set, settings["pre_emphasis"]) == ("cepstral", 0.5)
            classifiers.save_model(again, loaded, feature_set, *features.configs_of(settings))
            assert again.read_bytes() == model.read_bytes()

    @pytest.mark.parametrize("name", classifiers.CLASSIFIER_NAMES)
    def test_train_refuses_rows_that_cannot_be_z_scored(self, tmp_path, capsys, name):
        # the mean and std of p2 overflow float64
        matrix = np.random.default_rng(3).standard_normal((48, 31))
        matrix[:, 1] = [1e308, -1e308] * 24
        csv, model = tmp_path / "huge.csv", tmp_path / "model.json"
        features.save_dataset_csv(csv, matrix, [CLASS_ORDER[i % 4] for i in range(48)],
                                  features.feature_names())
        assert main(["train", str(csv), str(model), "--model", name]) == 2
        assert capsys.readouterr() == (
            "", "error: training column 1 cannot be z-scored: its mean, std or z-scored "
                "values are not finite\n")
        assert not model.exists()

    def test_eval_refuses_feature_settings_the_csv_contradicts(self, tmp_path, capsys):
        # the rule train applies, to --config's settings and the model file's alike
        labels = [CLASS_ORDER[i % 4] for i in range(8)]
        plain, pe05 = tmp_path / "plain.csv", tmp_path / "pe05.csv"
        features.save_dataset_csv(plain, np.arange(8 * 31.0).reshape(8, 31), labels,
                                  features.feature_names())
        features.save_dataset_csv(pe05, np.arange(8 * 31.0).reshape(8, 31), labels,
                                  features.feature_names(),
                                  features.settings_of(MfccConfig(pre_emphasis=0.5)))
        model = tmp_path / "dt.json"
        assert main(["train", str(plain), str(model), "--model", "dt"]) == 0
        capsys.readouterr()
        assert main(["eval", str(pe05), "--model-file", str(model)]) == 2
        assert capsys.readouterr().err == (f"error: {pe05}: [features] pre_emphasis = 0.97 "
                                           "differs from the 0.5 the CSV was extracted with\n")

        config = tmp_path / "run.ini"
        config.write_text("[features]\npre_emphasis = 0.3\n")
        assert main(["eval", str(pe05), "--model", "nb", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (f"error: {pe05}: [features] pre_emphasis = 0.3 "
                                           "differs from the 0.5 the CSV was extracted with\n")
        # --config is checked beside a model file that agrees with the CSV
        model05 = tmp_path / "dt05.json"
        assert main(["train", str(pe05), str(model05), "--model", "dt"]) == 0
        capsys.readouterr()
        assert main(["eval", str(pe05), "--model-file", str(model05), "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", f"error: {pe05}: [features] pre_emphasis = 0.3 "
                                           "differs from the 0.5 the CSV was extracted with\n")
        assert main(["eval", str(pe05), "--model-file", str(model05)]) == 0
        assert main(["eval", str(pe05), "--model", "dt", "--folds", "2"]) == 0

    def test_eval_reads_a_recordless_csv_of_other_dimensions(self, tmp_path, capsys):
        # 28 columns and no record: the header says n_coeffs = 10, so CV eval
        # and --compare need no --config, and one that repeats it is accepted
        X = np.random.default_rng(2).standard_normal((48, 28))
        labels = [CLASS_ORDER[i % 4] for i in range(48)]
        for i, label in enumerate(labels):
            X[i] += 3 * CLASS_ORDER.index(label)
        csv = tmp_path / "narrow.csv"
        features.save_dataset_csv(csv, X, labels, features.feature_names(MfccConfig(n_coeffs=10)))
        modes = [["--model", "nb"], ["--compare"]]
        for mode in modes:
            assert main(["eval", str(csv), "--folds", "2", *mode]) == 0
            assert capsys.readouterr().err == ""
        config = tmp_path / "run.ini"
        config.write_text("[features]\nn_coeffs = 10\n[mlp]\nepochs = 20\n")
        for mode in modes:
            assert main(["eval", str(csv), "--folds", "2", "--config", str(config), *mode]) == 0
            assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize("folds", [0, 1, -2])
    def test_eval_refuses_fewer_than_two_folds(self, folds, tmp_path, capsys):
        # each fold is tested by a model trained on the others: 1 fold leaves
        # nothing to train on, 0 and -2 leave no fold to test
        labels = [CLASS_ORDER[i % 4] for i in range(48)]
        csv = tmp_path / "small.csv"
        features.save_dataset_csv(csv, np.random.default_rng(3).standard_normal((48, 31)),
                                  labels, features.feature_names())
        for mode in (["--model", "nb"], ["--model", "knn"], ["--compare"]):
            assert main(["eval", str(csv), "--folds", str(folds), *mode]) == 2
            assert capsys.readouterr().err == f"error: folds must be at least 2, got {folds}\n"

    def test_eval_model_file_without_settings_is_default_extracted(self, tmp_path, capsys):
        # a model file from before settings were recorded holds the defaults, for
        # eval as for detect, whatever --config says; so a 28-column model is refused
        csv = tmp_path / "narrow.csv"
        labels = [CLASS_ORDER[i % 4] for i in range(8)]
        features.save_dataset_csv(csv, np.arange(8 * 28.0).reshape(8, 28), labels,
                                  features.feature_names(MfccConfig(n_coeffs=10)))
        config = tmp_path / "run.ini"
        config.write_text("[features]\nn_coeffs = 10\n")
        model = tmp_path / "dt.json"
        assert main(["train", str(csv), str(model), "--model", "dt", "--config", str(config)]) == 0
        doc = json.loads(model.read_text())
        del doc["meta"]["mfcc"], doc["meta"]["lpc"]
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        for with_config in ([], ["--config", str(config)]):
            assert main(["eval", str(csv), "--model-file", str(model), *with_config]) == 2
            assert capsys.readouterr().err == (f"error: {csv}: [features] n_coeffs = 13 differs "
                                               "from the 10 the CSV was extracted with\n")
        profile, scenario = synth.corpus_clip_params(SoundClass.H, clip_seed=160)
        wav = tmp_path / "h.wav"
        audio_io.write_wav(wav, synth.synth_passby(profile, scenario)[0])
        assert main(["detect", str(wav), str(model)]) == 2
        assert capsys.readouterr().err == \
            "error: model expects rows of 28 features, got an array of shape (8, 31)\n"

    @pytest.mark.parametrize("column, text, lead, message", [
        ("label", "XX", "", "4: unknown label 'XX', expected one of H, LL, LH, NV"),
        ("p2", "x", "", "4: p2 is not a number: 'x'"),
        ("p2", "x", "# [features] fmin=300.0\n\n", "6: p2 is not a number: 'x'"),
        ("mfcc3", "nan", "", "4: mfcc3 must be finite, got 'nan'"),
        ("lpc_gain", "inf", "", "4: lpc_gain must be finite, got 'inf'"),
        ("p1", "-inf", "", "4: p1 must be finite, got '-inf'"),
    ])
    def test_train_names_the_line_of_a_bad_row(self, tmp_path, capsys, column, text, lead,
                                               message):
        csv = tmp_path / "bad.csv"
        names = features.feature_names()
        features.save_dataset_csv(csv, np.arange(8 * 31.0).reshape(8, 31),
                                  [CLASS_ORDER[i % 4] for i in range(8)], names)
        lines = csv.read_text().splitlines()
        cells = lines[3].split(",")
        cells[(names + ["label"]).index(column)] = text
        lines[3] = ",".join(cells)
        csv.write_text(lead + "\n".join(lines) + "\n")
        model = tmp_path / "dt.json"
        assert main(["train", str(csv), str(model), "--model", "dt"]) == 2
        assert capsys.readouterr().err == f"error: {csv}:{message}\n"
        assert not model.exists()

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
        climax = int(parts[1])
        assert out[1:] == [f"WARN 0 H approaching {climax * 0.1:.3f}"]

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

    def test_silent_frame_counts_only_inside_the_vote_window(self, dt_model_file, tmp_path,
                                                             capsys):
        profile, scenario = synth.corpus_clip_params(SoundClass.H, clip_seed=160)
        buffer, _ = synth.synth_passby(profile, scenario)
        assert main(["detect", str(self._render_wav(tmp_path, "h.wav", buffer)),
                     str(dt_model_file)]) == 0
        detection = capsys.readouterr().out.splitlines()[0]
        climax = int(detection.split()[1])
        frame_length = audio_io.frame_signal(buffer).shape[1]

        def zeroed(frame):
            samples = buffer.samples.copy()
            samples[frame * frame_length:(frame + 1) * frame_length] = 0.0
            return self._render_wav(tmp_path, f"zero{frame}.wav",
                                    audio_io.SampleBuffer(samples, buffer.sample_rate))

        assert climax >= VOTE_WINDOW
        assert main(["detect", str(zeroed(0)), str(dt_model_file)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == detection
        inside = climax - VOTE_WINDOW + 1
        assert main(["detect", str(zeroed(inside)), str(dt_model_file)]) == 2
        assert capsys.readouterr() == ("", "error: cannot fit LPC to a silent frame\n")

    def test_model_file_that_is_not_an_object(self, features_csv, tmp_path, capsys):
        wav = self._render_wav(tmp_path, "birds.wav", synth.synth_nv("birds", 4.0, 3))
        # a tree 5,000 levels deep raised RecursionError, a traceback and exit 1
        deep = (b'{"format": "roadwarn-model", "version": 1, "kind": "dt", "mean": [0.0], '
                b'"std": [1.0], "tree": ' + b'{"feature": 0, "threshold": 0.0, "left": ' * 5000
                + b'{"label": "H"}' + b', "right": {"label": "NV"}}' * 5000 + b'}')
        for name, data, reason in [
                ("list.json", b"[1, 2]", ""),
                ("empty.json", b"", " (Expecting value: line 1 column 1 (char 0))"),
                ("latin1.json", b"\xff{}", " ('utf-8' codec can't decode byte 0xff in position 0: "
                                           "invalid start byte)"),
                ("deep.json", deep, " (nested too deep)")]:
            model = tmp_path / name
            model.write_bytes(data)
            assert main(["detect", str(wav), str(model)]) == 2
            assert main(["eval", str(features_csv), "--model-file", str(model)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: {model}: not a roadwarn model file{reason}"] * 2

    def test_model_file_missing_a_field(self, tmp_path, capsys):
        model = tmp_path / "mlp.json"
        model.write_text(json.dumps({"format": "roadwarn-model", "version": 1, "kind": "mlp",
                                     "mean": [0.0], "std": [1.0]}))
        wav = self._render_wav(tmp_path, "birds.wav", synth.synth_nv("birds", 4.0, 3))
        assert main(["detect", str(wav), str(model)]) == 2
        assert capsys.readouterr().err == f"error: {model}: mlp model has no field 'w1'\n"

    @pytest.mark.parametrize("kind,field,value,message", [
        ("mlp", "kind", ["mlp"], "unknown model kind ['mlp']"),
        ("mlp", "meta", [1], "field 'meta' must be an object, got [1]"),
        ("knn", "labels", 5, "knn model field 'labels': must be a list of class names, got 5"),
        ("dt", "meta", {"mfcc": {"n_filters": 26.0}},
         "meta mfcc/lpc: n_filters must be an integer, got 26.0"),
        ("dt", "meta", {"mfcc": {"fmin": float("nan")}},
         "meta mfcc/lpc: fmin must be finite, got nan"),
        ("dt", "meta", {"mfcc": {"fmin": -800.0}},
         "meta mfcc/lpc: fmin must be >= 0, got -800.0"),
        ("nb", "meta", {"lpc": {"rank": 3}},
         "meta mfcc/lpc: LpcConfig.__init__() got an unexpected keyword argument 'rank'"),
        ("dt", "tree", {"feature": 7, "threshold": 0.5, "left": {"label": "H"},
                        "right": {"label": "NV"}},
         "dt model field 'tree': a split's feature 7 is not one of 2 columns"),
        ("knn", "labels", ["H", "LL", "LH"],
         "knn model field 'labels': has shape (3,), which does not fit 'Xs' of shape (8, 2)"),
        ("nb", "classes", ["H"],
         "nb model field 'class_means': has shape (4, 2), which does not fit 'classes' "
         "of shape (1,)"),
        # it used to warn `overflow encountered in divide`, then print a DET line
        ("nb", "class_vars", [[0.5, 0.5]] * 3 + [[0.5, 1e-320]],
         "nb model field 'class_vars': must hold no number below 1e-09, got 1e-320"),
    ], ids=["kind", "meta", "labels", "mfcc-type", "mfcc-nan", "mfcc-fmin", "lpc-key",
            "split-feature", "label-count", "class-count", "variance-floor"])
    def test_model_file_field_of_the_wrong_type(self, tmp_path, capsys, kind, field, value,
                                                message):
        doc = json.loads((ROOT / "tests" / "data" / f"model_{kind}.json").read_text())
        model = tmp_path / f"{kind}.json"
        model.write_text(json.dumps(dict(doc, **{field: value})))
        csv = tmp_path / "two.csv"  # the golden models read 2 columns
        features.save_dataset_csv(csv, np.arange(8.0).reshape(4, 2), CLASS_ORDER, ["a", "b"])
        wav = self._render_wav(tmp_path, "birds.wav", synth.synth_nv("birds", 4.0, 3))
        assert main(["detect", str(wav), str(model)]) == 2
        assert main(["eval", str(csv), "--model-file", str(model)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {model}: {message}"] * 2


class TestDetectBuffer:
    def test_features_are_extracted_for_the_vote_window_only(self, dt_model_file,
                                                             monkeypatch):
        model = load_model(dt_model_file)
        extract = features.extract_features
        rows = []

        def counting(frames, *args):
            rows.append(len(frames))
            return extract(frames, *args)

        monkeypatch.setattr(features, "extract_features", counting)
        profile, scenario = synth.corpus_clip_params(SoundClass.H, clip_seed=160)
        result, track = cli.detect_buffer(synth.synth_passby(profile, scenario)[0], model)
        assert rows == [VOTE_WINDOW]
        assert len(track) == 40 and result.climax_index >= VOTE_WINDOW - 1

        # a steady 440 Hz tone loudest in frame 2: a flat track, so the
        # energy peak is the climax, and it leaves 3 frames to vote on
        t = np.arange(40 * 1600) / 16000
        samples = (0.01 + np.exp(-((t - 0.25) / 0.1) ** 2)) * np.sin(2 * np.pi * 440.0 * t)
        with pytest.raises(decision.TrackTooShortError,
                           match="climax 2 leaves fewer than 8 frames to vote on"):
            cli.detect_buffer(audio_io.SampleBuffer(samples, 16000), model)
        assert rows == [VOTE_WINDOW]

    @settings(max_examples=25, deadline=None)
    @given(**clip_args)
    def test_window_rows_equal_those_of_the_whole_clip(self, frame_models, sound_class,
                                                       clip_seed, approach_from):
        buffer = render_clip(sound_class, clip_seed, approach_from)
        frames = audio_io.frame_signal(buffer)
        whole = features.extract_features(frames, buffer.sample_rate)
        labels = {kind: model.predict_batch(whole) for kind, model in frame_models.items()}
        for start in range(len(frames) - VOTE_WINDOW + 1):
            window = slice(start, start + VOTE_WINDOW)
            rows = features.extract_features(frames[window], buffer.sample_rate)
            assert rows.tobytes() == whole[window].tobytes()
            for kind, model in frame_models.items():
                assert model.predict_batch(rows) == labels[kind][window], kind

    @settings(max_examples=40, deadline=None)
    @given(**clip_args)
    @example(sound_class=SoundClass.NV, clip_seed=10, approach_from="front")  # climax 3
    def test_detection_equals_the_all_frames_reference(self, frame_models, sound_class,
                                                       clip_seed, approach_from):
        buffer = render_clip(sound_class, clip_seed, approach_from)
        frames = audio_io.frame_signal(buffer)
        finalize = decision.finalize_detection
        for model in frame_models.values():
            voted = []

            def recording(track, climax, labels):
                voted.append(labels)
                return finalize(track, climax, labels)

            with mock.patch.object(decision, "finalize_detection", recording):
                got = outcome(lambda: cli.detect_buffer(buffer, model)[0])
            assert got == outcome(lambda: detect_all_frames_reference(buffer, model))
            if isinstance(got, DetectionResult):
                # the labels voted on are those the whole clip's rows get
                labels = model.predict_batch(features.extract_features(frames, buffer.sample_rate))
                assert voted == [labels[got.climax_index - VOTE_WINDOW + 1:got.climax_index + 1]]

    def test_seed0_detect_outcomes_match_benchmark_record(self, corpus_dir, features_csv,
                                                         tmp_path):
        # the benchmark's recorded outcome of every seed-0 clip, in manifest
        # order: a change to the track, the climax, the window's features or
        # the vote that moves one DET line must show up here
        model_file = tmp_path / "mlp.json"
        config = ROOT / "perfbench" / "criterion02.ini"
        assert main(["train", str(features_csv), str(model_file), "--model", "mlp",
                     "--feature-set", "all", "--config", str(config), "--seed", "0"]) == 0
        model, meta = load_model(model_file), load_model_meta(model_file)
        configs = MfccConfig(**meta["mfcc"]), LpcConfig(**meta["lpc"])
        got = []
        for entry in synth.load_manifest(corpus_dir / "manifest.csv"):
            buffer = audio_io.load_wav(corpus_dir / entry.file)
            try:
                result, _ = cli.detect_buffer(buffer, model, meta["feature_set"], *configs)
            except decision.TrackTooShortError:
                got.append("TrackTooShortError")
                continue
            got.append(result.to_line() + (" WARN" if warning_decision(result) else ""))
        expected = ROOT / "perfbench" / "expected.json"
        assert got == json.loads(expected.read_text())["detect_clips"]["outcomes"]


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
        log = run_simulation(DeploymentPlan(200.0), script.read_text().splitlines())
        assert [ln for ln in log if ln.startswith("WARN")] == []

    def test_log_lines(self):
        # runner is warned with walker, late is too stale for either event
        script = ["PED walker 87.5 2.0 9.0", "PED runner 80.0 6.5 9.5", "PED late 90.0 1.0 2.0",
                  "VEHICLE LH 75 0 10.0", "VEHICLE LL 40 0 10.5", "VEHICLE H 40 0 10.25",
                  "VEHICLE LH 75 150 10.0"]
        assert run_simulation(DeploymentPlan(200.0), script) == [
            "WARN 3 LH approaching 10.000 -> runner lead=3.84s",
            "WARN 3 LH approaching 10.000 -> walker lead=4.20s",
            "WARN 3 H approaching 10.250 -> runner lead=7.20s",
            "WARN 3 H approaching 10.250 -> walker lead=7.88s",
            "# event at x=150: no instrumented area downstream",
        ]

    def test_lead_time_from_the_latest_position(self):
        script = ["PED walker 87.5 2.0 9.0", "PED walker 80.0 2.0 9.5", "VEHICLE LH 75 0 10.0"]
        assert run_simulation(DeploymentPlan(200.0), script) == [
            "WARN 3 LH approaching 10.000 -> walker lead=3.84s"]

    def test_vehicle_far_past_the_road_has_no_area_downstream(self):
        # every distance to 1e300 rounds to 1e300, so the distances alone tie every processor
        script = ["PED walker 87.5 2.0 9.0", "VEHICLE LH 75 1e300 10.0"]
        assert run_simulation(DeploymentPlan(200.0), script) == [
            "# event at x=1e+300: no instrumented area downstream"]

    @settings(max_examples=300, deadline=None)
    @given(spacing=st.sampled_from([25.0, 7.0, 0.1, 3.3]), count=st.integers(2, 60),
           units=st.floats(-5.0, 5.0), midpoint=st.booleans())
    @example(spacing=25.0, count=9, units=0.5 / 8, midpoint=False)
    def test_nearest_processor_matches_the_scan(self, spacing, count, units, midpoint):
        # x within 5 road lengths either side; a midpoint is a tie between two ids
        plan = DeploymentPlan(spacing * (count - 1) + spacing / 2, processor_spacing=spacing,
                              danger_length=spacing)
        last = plan.processor_count - 1
        x = (round(units * last) + 0.5) * spacing if midpoint else units * last * spacing
        scan = min(range(plan.processor_count), key=lambda i: abs(i * spacing - x))
        assert cli._nearest_processor(plan, x) == scan

    @settings(max_examples=200, deadline=None)
    @given(spacing=st.integers(1, 50), count=st.integers(2, 40), data=st.data(),
           design_speed=st.floats(20.0, 120.0), warning_time=st.floats(0.5, 4.0),
           speed=st.floats(0.5, 500.0), x=st.floats(-1e300, 1e300))
    @example(spacing=25, count=9, data=None, design_speed=75.0, warning_time=3.0,
             speed=75.0, x=-1e300)
    def test_lead_counts_from_the_detecting_processor(self, spacing, count, data,
                                                      design_speed, warning_time, speed, x):
        # the lead of a warned area k spacings downstream, whatever x picked the detector
        length = data.draw(st.integers(1, 7 * spacing)) if data else spacing
        plan = DeploymentPlan(spacing * (count - 1.0), processor_spacing=float(spacing),
                              danger_length=float(length), max_design_speed=design_speed,
                              min_warning_time=warning_time)
        k = plan.warning_offset_areas
        target = cli._nearest_processor(plan, x) + k
        stretch_mm = ((plan.processor_count - 1) * spacing + length) * 1000
        walkers = data.draw(st.lists(st.integers(0, stretch_mm), max_size=6)) if data else []
        walkers.append(target * spacing * 1000 + length * 500)  # mid-area, when there is one
        script = [f"PED w{i} {mm / 1000:.3f} 1.0 10.0" for i, mm in enumerate(walkers)]
        log = run_simulation(plan, script + [f"VEHICLE LH {speed!r} {x!r} 10.0"])
        leads = [float(line.split("lead=")[1].rstrip("s")) for line in log if "lead=" in line]
        assert len(leads) >= (target < plan.processor_count)
        low, high = k * spacing * 3.6 / speed, (k * spacing + length) * 3.6 / speed
        for lead in leads:  # logged to 2 decimals
            assert low * (1 - 1e-9) - 0.005 <= lead <= high * (1 + 1e-9) + 0.005

    def test_ll_vehicle_never_warns(self, plan_file, tmp_path):
        script = tmp_path / "ll.txt"
        script.write_text("PED walker 87.5 2.0 9.0\n"
                          "VEHICLE LL 40 0 10.0\n")
        log = run_simulation(DeploymentPlan(200.0), script.read_text().splitlines())
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

    def test_bad_script_line(self, plan_file, tmp_path, capsys):
        script = tmp_path / "bad.txt"
        script.write_text("DRIVE fast\n")
        assert main(["simulate", str(plan_file), str(script)]) == 2
        # a PED line the registry refuses: its ERR reply names the field
        script.write_text("PED walker abc 2.0 0.0\n")
        capsys.readouterr()
        assert main(["simulate", str(plan_file), str(script)]) == 2
        assert capsys.readouterr() == ("", "error: script line 1: ERR malformed: bad x 'abc'\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_plan_value_rejected(self, tmp_path, capsys, value):
        # a NaN window used to pass the `<= 0` check, and then no position was fresh
        plan = tmp_path / "plan.ini"
        plan.write_text(PLAN_INI + f"freshness_window = {value}\n")
        script = tmp_path / "walk.txt"
        script.write_text("PED walker 87.5 2.0 9.0\nVEHICLE LH 75 0 10.0\n")
        assert main(["simulate", str(plan), str(script)]) == 2
        captured = capsys.readouterr()
        assert f"[plan] freshness_window must be finite, got {value}" in captured.err
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
        assert csv.read_text().splitlines()[0] == "# [features] n_coeffs=8 lpc_order=6"

        # train reads the two settings from the CSV's record
        model = tmp_path / "mini.json"
        assert main(["train", str(csv), str(model), "--model", "dt"]) == 0
        assert load_model_meta(model)["mfcc"]["n_coeffs"] == 8
        assert load_model_meta(model)["lpc"] == {"order": 6}

        assert main(["train", str(csv), str(model), "--model", "dt",
                     "--config", str(config)]) == 0
        capsys.readouterr()
        # detect picks the 20-dim extraction settings up from the model file
        assert main(["detect", str(corpus / "mini_0.wav"), str(model)]) == 0
        det_lines = capsys.readouterr().out.strip().splitlines()
        assert det_lines[0].startswith("DET ")
        assert det_lines[0].split()[2] in ("H", "LL", "LH", "NV")

    @pytest.mark.parametrize("command", ["extract", "train", "eval"])
    def test_features_that_make_no_config_name_the_file(self, tmp_path, capsys, command):
        # the message used to name neither the file nor the section
        config = tmp_path / "nc.ini"
        config.write_text("[features]\nn_coeffs = 0\n")
        unread = str(tmp_path / "unread")  # the config is read first
        argv = {"extract": [unread, unread + ".csv"], "train": [unread, unread + ".json"],
                "eval": [unread]}[command]
        assert main([command, *argv, "--config", str(config)]) == 2
        assert capsys.readouterr() == (
            "", f"error: {config}: [features] need 0 < n_coeffs <= n_filters\n")

    @pytest.mark.parametrize("text, message", [
        ("[dt]\nmaxdepth = 1\n", "unknown [dt] key 'maxdepth'"),
        ("[mlp]\nepoch = 5\n", "unknown [mlp] key 'epoch'"),
        ("[featurs]\nn_coeffs = 3\n", "unknown section [featurs]"),
        ("[mlp]\nlearning_rate = nan\n", "[mlp] learning_rate must be finite"),
        ("[knn]\nk = " + "1" * 400 + "\n", "[knn] k int too large to convert to float"),
        ("[dt]\nmax_depth = -3\n", "max_depth must be in 1..500, got -3"),
    ], ids=["dt-key", "mlp-key", "section", "nan-value", "huge-int", "dt-range"])
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

    @pytest.mark.parametrize("text, message", [
        ("[features]\nn_coeffs = 8\nn_coeffs = 9\n",
         "option 'n_coeffs' in section 'features' already exists"),
        ("n_coeffs = 8\n", "File contains no section headers"),
        ("[mlp]\nepochs = 5\n[mlp]\nlearning_rate = 0.1\n", "section 'mlp' already exists"),
        ("[mlp]\nlearning_rate = 50%\n",
         "[mlp] learning_rate could not convert string to float: '50%'"),
    ], ids=["key-twice", "no-header", "section-twice", "percent"])
    def test_unreadable_config_is_a_one_line_data_error(self, tmp_path, capsys, text, message):
        # configparser's own errors used to escape every --config reader as tracebacks
        config = tmp_path / "run.ini"
        config.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)) as error:
            cli._read_run_config(config)
        assert str(error.value).startswith(f"{config}: ") and "\n" not in str(error.value)
        csv = tmp_path / "unread.csv"  # the config is read first
        for command in (["train", str(csv), str(tmp_path / "m.json")], ["eval", str(csv)]):
            assert main([*command, "--config", str(config)]) == 2
            assert capsys.readouterr() == ("", f"error: {error.value}\n")

    @pytest.mark.parametrize("block", re.findall(r"```ini\n(.*?)```", README.read_text(),
                                                 re.DOTALL),
                             ids=lambda block: block[1:block.index("]")])
    def test_readme_ini_examples_load(self, tmp_path, block):
        path = tmp_path / "example.ini"
        path.write_text(block)
        if block.startswith("[plan]"):
            assert load_plan_config(path).processor_count == 9
        else:
            assert cli._read_run_config(path)["mlp"]["epochs"] == 300

    def test_readme_run_config_shows_the_defaults(self, tmp_path):
        # each [features] value is extraction's default, and each classifier
        # section lists its trainer's keyword arguments with their defaults,
        # which CLASSIFIERS[name].params names with their types
        readme = README.read_text()
        path = tmp_path / "run.ini"
        path.write_text(re.search(r"### Run config.*?```ini\n(.*?)```", readme, re.DOTALL)[1])
        config = cli._read_run_config(path)
        defaults = features.settings_of()
        assert config["features"] == {key: defaults[key] for key in config["features"]}
        for name, spec in classifiers.CLASSIFIERS.items():
            _, *keywords = inspect.signature(getattr(classifiers, spec.trainer)).parameters.values()
            shown = {p.name: p.default for p in keywords if p.name != "seed"}
            assert config.get(name, {}) == shown
            assert spec.params == {key: type(value) for key, value in shown.items()}


class TestImports:
    def test_cli_and_warnd_load_no_scipy(self):
        code = ("import sys, roadwarn.cli, roadwarn.warnd; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_synth_loads_neither_decision_nor_features(self):
        code = ("import sys, roadwarn.synth; "
                "print(sorted(m for m in ('roadwarn.decision', 'roadwarn.features') "
                "if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestServeCommand:
    @pytest.mark.parametrize("listen", ["nonsense", "127.0.0.1:99999"])
    def test_bad_listen_argument(self, plan_file, capsys, listen):
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--plan", str(plan_file), "--listen", listen])
        assert exit_info.value.code == 1
        assert capsys.readouterr().err.endswith(
            f"roadwarn serve: error: argument --listen: must be addr:port, got {listen!r}\n")

    def test_port_in_use_is_a_data_error(self, plan_file, capsys):
        with socket.create_server(("127.0.0.1", 0)) as taken:
            listen = f"127.0.0.1:{taken.getsockname()[1]}"
            assert main(["serve", "--plan", str(plan_file), "--listen", listen]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestExitCodes:
    def test_usage_error_is_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 1

    def test_compare_with_a_model_file_is_a_usage_error(self, capsys):
        # the grid used to be printed and the loaded model never used
        with pytest.raises(SystemExit) as exc:
            main(["eval", "f.csv", "--model-file", "m.json", "--compare"])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(
            "roadwarn eval: error: argument --compare: not allowed with argument --model-file\n")

    @pytest.mark.parametrize("flag,value,mode", [
        ("--model", "knn", ["--compare"]),
        ("--feature-set", "five", ["--compare"]),
        ("--model", "knn", ["--model-file", "m.json"]),
        ("--feature-set", "five", ["--model-file", "m.json"]),
        ("--folds", "3", ["--model-file", "m.json"]),
        ("--seed", "0", ["--model-file", "m.json"]),
    ])
    def test_a_flag_the_eval_mode_does_not_read_is_a_usage_error(self, capsys, flag, value,
                                                                mode):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "f.csv", *mode, flag, value])
        assert exc.value.code == 1
        assert capsys.readouterr().err.endswith(
            f"roadwarn eval: error: argument {flag}: not allowed with argument {mode[0]}\n")

    def test_missing_file_is_exit_2(self, tmp_path):
        assert main(["detect", str(tmp_path / "missing.wav"),
                     str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("kind", ["plan", "run-config", "feature-csv", "manifest", "script"])
    def test_text_input_that_is_not_utf8_is_named(self, tmp_path, capsys, kind):
        # each reader used to print only the codec's message, without the file
        plan, script, config = tmp_path / "plan.ini", tmp_path / "script.txt", tmp_path / "run.ini"
        plan.write_text(PLAN_INI)
        script.write_text("PED p1 50 1 0\n")
        config.write_text("[dt]\nmax_depth = 3\n")
        csv = tmp_path / "small.csv"
        features.save_dataset_csv(csv, np.arange(8 * 31.0).reshape(8, 31),
                                  [CLASS_ORDER[i % 4] for i in range(8)], features.feature_names())
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "manifest.csv").write_text("file,class,speed_kmh,t_closest_s,seed\n")
        bad, argv = {
            "plan": (plan, ["simulate", str(plan), str(script)]),
            "run-config": (config, ["train", str(csv), str(tmp_path / "m.json"), "--model", "dt",
                                    "--config", str(config)]),
            "feature-csv": (csv, ["train", str(csv), str(tmp_path / "m.json"), "--model", "dt"]),
            "manifest": (corpus / "manifest.csv", ["extract", str(corpus), str(tmp_path / "f.csv")]),
            "script": (script, ["simulate", str(plan), str(script)]),
        }[kind]
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith(f"error: {bad}: not UTF-8 text ('utf-8' codec can't decode byte 0xff")
