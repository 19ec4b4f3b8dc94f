"""Command-line entry point.

Subcommands:

    synth     write the seeded 210-clip corpus + manifest
    extract   corpus directory -> per-frame feature CSV
    train     feature CSV -> saved classifier model
    eval      cross-validated metrics report (or --compare grid)
    detect    run the full three-phase pipeline on one WAV
    simulate  replay a scripted scenario against an in-process dispatcher
    serve     run the TCP warning service

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import audio_io, classifiers, decision, features, synth, warnd
from .classifiers import CLASS_ORDER, FEATURE_SETS, SoundClass
from .deployment import load_plan_config, read_ini, warning_decision, warning_lead_time
from .features import LpcConfig, MfccConfig


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_RUN_CONFIG_KEYS = {
    "features": {"n_filters": int, "n_coeffs": int, "pre_emphasis": float, "fmin": float,
                 "fmax": float, "log_floor": float, "lpc_order": int},
    **{name: c.params for name, c in classifiers.CLASSIFIERS.items() if c.params},
}


class RunConfig:
    """Module parameters loaded from an optional INI file.

    The file may set the sections and keys of `_RUN_CONFIG_KEYS`; anything
    not present keeps its default, and any other section or key is an error.
    """

    def __init__(self, path=None):
        values = {} if path is None else read_ini(path, _RUN_CONFIG_KEYS)
        feat = values.pop("features", {})
        self.lpc = LpcConfig(order=feat.pop("lpc_order", LpcConfig.order))
        self.mfcc = MfccConfig(**feat)
        self.classifier_kwargs = {name: values.get(name, {})
                                  for name in classifiers.CLASSIFIER_NAMES}

    def echo(self) -> None:
        for key, value in asdict(self.mfcc).items():
            print(f"# features.{key} = {value}")
        print(f"# features.lpc_order = {self.lpc.order}")
        for name, kwargs in self.classifier_kwargs.items():
            for key, value in kwargs.items():
                print(f"# {name}.{key} = {value}")


def _table(rows: list) -> str:
    """Rows of cells as left-aligned columns two spaces apart."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
                     for r in rows)


def render_metrics(metrics: classifiers.Metrics) -> str:
    """Per-class metrics table, classes across, measures down."""
    names = ["precision", "recall", "accuracy", "f-measure"]
    rows = [["metric"] + [c.value for c in CLASS_ORDER]]
    values = {c: metrics.per_class[c] for c in CLASS_ORDER}
    for name, attr in zip(names, ["precision", "recall", "accuracy", "f_measure"]):
        rows.append([name] + ["%.2f" % getattr(values[c], attr) for c in CLASS_ORDER])
    return _table(rows) + "\noverall accuracy: %.2f" % metrics.overall_accuracy


def render_grid(grid: dict) -> str:
    set_names = list(FEATURE_SETS)
    rows = [["classifier"] + set_names]
    for name, cells in grid.items():
        rows.append([name] + ["%.2f" % cells[s] for s in set_names])
    return _table(rows)


def _write_report(text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def cmd_synth(args) -> int:
    entries = synth.generate_corpus(args.out_dir, seed=args.seed)
    print(f"wrote {len(entries)} clips + manifest.csv to {args.out_dir}")
    return 0


def cmd_extract(args) -> int:
    config = RunConfig(args.config)
    if args.config:
        config.echo()
    manifest_path = os.path.join(args.corpus_dir, "manifest.csv")
    if not os.path.exists(manifest_path):
        print(f"error: no manifest.csv in {args.corpus_dir}", file=sys.stderr)
        return 2
    entries = synth.load_manifest(manifest_path)
    if not entries:
        print("error: empty manifest", file=sys.stderr)
        return 2
    rows, labels = [], []
    for entry in entries:
        buffer = audio_io.load_wav(os.path.join(args.corpus_dir, entry.file))
        frames = audio_io.frame_signal(buffer)
        rows.append(features.extract_features(frames, buffer.sample_rate,
                                              config.mfcc, config.lpc))
        labels.extend([entry.sound_class] * len(frames))
    matrix = np.vstack(rows)
    features.save_dataset_csv(args.features_csv, matrix, labels,
                              features.feature_names(config.mfcc, config.lpc))
    print(f"wrote {matrix.shape[0]} frames x {matrix.shape[1]} features to {args.features_csv}")
    return 0


def _load_labeled(path, config: RunConfig | None = None):
    """The labelled rows of a feature CSV; with `config`, its columns must be
    the ones config's [features] settings extract."""
    matrix, labels, names = features.load_dataset_csv(path)
    if any(label is None for label in labels):
        raise ValueError(f"{path}: every row needs a label")
    expected = None if config is None else features.feature_names(config.mfcc, config.lpc)
    if expected is not None and names != expected:
        raise ValueError(f"{path}: its {len(names)} columns are not the {len(expected)} that "
                         "the [features] settings extract; pass the --config it was extracted with")
    return classifiers.LabeledDataset(matrix, labels)


def cmd_train(args) -> int:
    config = RunConfig(args.config)
    if args.config:
        config.echo()
    data = _load_labeled(args.features_csv, config)
    cols = FEATURE_SETS[args.feature_set]
    kwargs = config.classifier_kwargs[args.model]
    trainer = classifiers.make_trainer(args.model, seed=args.seed, **kwargs)
    model = trainer(data.select_columns(cols))
    classifiers.save_model(args.model_out, model, extra={
        "feature_set": args.feature_set,
        "mfcc": asdict(config.mfcc),
        "lpc": asdict(config.lpc),
    })
    training_acc = classifiers.compute_metrics(
        data.y, model.predict_batch(data.X[:, cols])).overall_accuracy
    print(f"saved {args.model} model to {args.model_out} "
          f"(training accuracy {training_acc:.2f}%)")
    return 0


def cmd_eval(args) -> int:
    config = RunConfig(args.config)
    if args.config:
        config.echo()
    data = _load_labeled(args.features_csv)
    if args.compare:
        grid = classifiers.compare_feature_sets(
            data, seed=args.seed, folds=args.folds,
            classifier_kwargs=config.classifier_kwargs)
        _write_report(render_grid(grid), args.report)
        return 0
    if args.model_file:
        model = classifiers.load_model(args.model_file)
        feature_set = classifiers.load_model_meta(args.model_file).get("feature_set", "all")
        cols = FEATURE_SETS[feature_set]
        metrics = classifiers.compute_metrics(data.y, model.predict_batch(data.X[:, cols]))
    else:
        cols = FEATURE_SETS[args.feature_set]
        kwargs = config.classifier_kwargs[args.model]
        trainer = classifiers.make_trainer(args.model, seed=args.seed, **kwargs)
        metrics = classifiers.evaluate_cv(data.select_columns(cols), trainer,
                                          folds=args.folds, seed=args.seed)
    _write_report(render_metrics(metrics), args.report)
    return 0


def detect_buffer(buffer: audio_io.SampleBuffer, model, feature_set: str = "all",
                  mfcc_cfg: MfccConfig = MfccConfig(),
                  lpc_cfg: LpcConfig = LpcConfig()):
    """Three-phase pipeline on one buffer: returns (DetectionResult, track)."""
    frames = audio_io.frame_signal(buffer)
    matrix = features.extract_features(frames, buffer.sample_rate, mfcc_cfg, lpc_cfg)
    labels = model.predict_batch(matrix[:, FEATURE_SETS[feature_set]])
    track = decision.track_frames(frames, buffer.sample_rate, labels)
    climax = decision.detect_climax(track)
    return decision.finalize_detection(track, climax), track


def cmd_detect(args) -> int:
    model = classifiers.load_model(args.model_file)
    meta = classifiers.load_model_meta(args.model_file)
    buffer = audio_io.load_wav(args.wav)
    result, _ = detect_buffer(buffer, model, meta.get("feature_set", "all"),
                              MfccConfig(**meta.get("mfcc", {})), LpcConfig(**meta.get("lpc", {})))
    print(result.to_line())
    if warning_decision(result):
        message = warnd.WarningMessage(processor_id=0, sound_class=result.sound_type,
                                       direction=result.direction,
                                       event_time=result.climax_index
                                       * audio_io.DEFAULT_FRAME_SECONDS)
        print(warnd.encode(message))
    return 0


_VEHICLE_NUMBERS = (("speed", "finite positive", lambda v: 0.0 < v < math.inf),
                    ("x", "finite", math.isfinite),
                    ("t", "finite", math.isfinite))


def _vehicle_fields(lineno, fields):
    """The class, speed (km/h), x and t of a VEHICLE line, or a ValueError
    that names the script line and the field."""
    try:
        sound_class = SoundClass(fields[0])
    except ValueError:
        raise ValueError(f"script line {lineno}: unknown vehicle class {fields[0]!r}, "
                         f"expected one of {', '.join(c.value for c in SoundClass)}") from None
    values = []
    for (name, rule, valid), text in zip(_VEHICLE_NUMBERS, fields[1:]):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not valid(value):
            raise ValueError(f"script line {lineno}: vehicle {name} must be a "
                             f"{rule} number, got {text!r}")
        values.append(value)
    return (sound_class, *values)


def run_simulation(plan, script_lines) -> list[str]:
    """Replay PED/VEHICLE lines against an in-process dispatcher.

    Returns the event log: one line per delivered warning, carrying the
    lead time from the vehicle's scripted position to each warned
    pedestrian.
    """
    dispatcher = warnd.Dispatcher(plan)
    log = []
    for lineno, raw in enumerate(script_lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "PED" and len(parts) == 5:
            # deliveries are logged from dispatch's return, not sent
            response = dispatcher.handle_line("REG " + " ".join(parts[1:]),
                                              lambda line: None)
            if response.startswith("ERR"):
                raise ValueError(f"script line {lineno}: {response}")
        elif parts[0] == "VEHICLE" and len(parts) == 5:
            sound_class, speed, start_x, t = _vehicle_fields(lineno, parts[1:])
            nearest = min(plan.processors, key=lambda p: abs(p.x - start_x))
            target_id = nearest.processor_id + plan.warning_offset_areas
            try:
                plan.processor(target_id)
            except KeyError:
                log.append(f"# event at x={start_x:g}: no instrumented area downstream")
                continue
            result = decision.DetectionResult(climax_index=0, sound_type=sound_class,
                                              direction=decision.APPROACHING)
            delivered = dispatcher.dispatch(result, target_id, t)
            positions = dispatcher.positions()
            for cid in sorted(delivered):
                lead = warning_lead_time(positions[cid][0] - start_x, speed)
                log.append(f"WARN {target_id} {sound_class.value} approaching "
                           f"{t:.3f} -> {cid} lead={lead:.2f}s")
        else:
            raise ValueError(f"script line {lineno}: cannot parse {line!r}")
    return log


def cmd_simulate(args) -> int:
    plan = load_plan_config(args.plan)
    with open(args.script, "r", encoding="utf-8") as fh:
        script_lines = fh.readlines()
    log = run_simulation(plan, script_lines)
    text = "\n".join(log) if log else "# no warnings dispatched"
    _write_report(text, args.report)
    return 0


def cmd_serve(args) -> int:
    plan = load_plan_config(args.plan)
    try:
        host, port = warnd.parse_listen(args.listen)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    warnd.serve(plan, host, port)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="roadwarn",
                     description="acoustic roadside vehicle warning toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the labeled synthetic corpus")
    p.add_argument("out_dir")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract", help="corpus directory -> feature CSV")
    p.add_argument("corpus_dir")
    p.add_argument("features_csv")
    p.add_argument("--config", help="INI with [features] parameter overrides")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train a classifier on a feature CSV")
    p.add_argument("features_csv")
    p.add_argument("model_out")
    p.add_argument("--model", choices=classifiers.CLASSIFIER_NAMES, default="mlp")
    p.add_argument("--feature-set", choices=list(FEATURE_SETS), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="INI with classifier/feature overrides")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="cross-validated metrics report")
    p.add_argument("features_csv")
    p.add_argument("--model", choices=classifiers.CLASSIFIER_NAMES, default="mlp")
    p.add_argument("--model-file", help="evaluate a saved model instead of CV")
    p.add_argument("--feature-set", choices=list(FEATURE_SETS), default="all")
    p.add_argument("--folds", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", help="INI with classifier/feature overrides")
    p.add_argument("--compare", action="store_true",
                   help="classifier x feature-set accuracy grid")
    p.add_argument("--report", help="also write the report to this file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("detect", help="three-phase detection on one WAV")
    p.add_argument("wav")
    p.add_argument("model_file")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("simulate", help="replay a scripted scenario")
    p.add_argument("plan", help="INI deployment plan")
    p.add_argument("script", help="PED/VEHICLE scenario script")
    p.add_argument("--report", help="also write the event log to this file")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("serve", help="run the TCP warning service")
    p.add_argument("--plan", required=True)
    p.add_argument("--listen", required=True)
    p.set_defaults(func=cmd_serve)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
