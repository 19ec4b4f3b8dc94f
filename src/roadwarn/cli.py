"""Command-line entry point.

Subcommands:

    synth     write the seeded 210-clip corpus + manifest
    extract   corpus directory -> per-frame feature CSV
    train     feature CSV -> saved classifier model
    eval      cross-validated metrics report (or --compare grid)
    detect    run the full three-phase pipeline on one WAV
    simulate  replay a scripted scenario against an in-process dispatcher

Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from . import audio_io, classifiers, decision, features, synth, warnd
from .classifiers import FEATURE_SETS
from .deployment import load_plan_config, read_ini, warning_decision, warning_lead_time
from .features import LpcConfig, MfccConfig
from .labels import APPROACHING, CLASS_ORDER, DetectionResult, SoundClass, open_text


_RUN_CONFIG_KEYS = {
    "features": features.SETTINGS,
    **{name: c.params for name, c in classifiers.CLASSIFIERS.items() if c.params},
}


def _read_run_config(path) -> dict:
    """section -> {key: value} of a run config file (`{}` for none).  The file
    may set the sections and keys of `_RUN_CONFIG_KEYS`; any other is an
    error, and so is a [features] that makes no extraction config; each
    error names the file."""
    config = {} if path is None else read_ini(path, _RUN_CONFIG_KEYS)
    try:
        features.configs_of(config.get("features", {}))
    except ValueError as exc:
        raise ValueError(f"{path}: [features] {exc}") from None
    return config


def _echo(config: dict, mfcc_cfg: MfccConfig, lpc_cfg: LpcConfig) -> None:
    """Print the [features] settings of the extraction configs a command
    works with, then the classifier keys the run config sets."""
    for key, value in features.settings_of(mfcc_cfg, lpc_cfg).items():
        print(f"# features.{key} = {value}")
    for name in classifiers.CLASSIFIER_NAMES:
        for key, value in config.get(name, {}).items():
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
    config = _read_run_config(args.config)
    configs = features.configs_of(config.get("features", {}))
    if args.config:
        _echo(config, *configs)
    names = features.feature_names(*configs)
    rows, labels = [], []
    for entry in synth.load_manifest(os.path.join(args.corpus_dir, "manifest.csv")):
        path = os.path.join(args.corpus_dir, entry.file)
        buffer = audio_io.load_wav(path)
        frames = audio_io.frame_signal(buffer)
        with np.errstate(all="ignore"):  # a non-finite feature is refused below
            try:
                clip = features.extract_features(frames, buffer.sample_rate, *configs)
            except features.BandError as exc:
                raise ValueError(f"{args.config}: [features] {exc} in {path}") from None
        bad = np.argwhere(~np.isfinite(clip))
        if len(bad):
            frame, col = bad[0]
            raise ValueError(f"{path}: {names[col]} of frame {frame} is not finite, "
                             f"got {clip[frame, col]}")
        rows.append(clip)
        labels.extend([entry.sound_class] * len(frames))
    matrix = np.vstack(rows)
    features.save_dataset_csv(args.features_csv, matrix, labels, names,
                              features.settings_of(*configs))
    print(f"wrote {matrix.shape[0]} frames x {matrix.shape[1]} features to {args.features_csv}")
    return 0


def _load_labeled(path, *settings: dict):
    """The labelled rows of a feature CSV, and the (MfccConfig, LpcConfig) of
    the settings it holds (`features.load_dataset_settings`).  A key of any
    of `settings` (a run config's, a model's) that has another value there is an error."""
    matrix, labels, _ = features.load_dataset_csv(path)
    extracted = features.load_dataset_settings(path)
    for checked in settings:
        for key, value in checked.items():
            if value != extracted[key]:
                raise ValueError(f"{path}: [features] {key} = {value} differs from the "
                                 f"{extracted[key]} the CSV was extracted with")
    if any(label is None for label in labels):
        raise ValueError(f"{path}: every row needs a label")
    return classifiers.LabeledDataset(matrix, labels), features.configs_of(extracted)


def cmd_train(args) -> int:
    config = _read_run_config(args.config)
    data, (mfcc_cfg, lpc_cfg) = _load_labeled(args.features_csv, config.get("features", {}))
    if args.config:
        _echo(config, mfcc_cfg, lpc_cfg)
    cols = FEATURE_SETS[args.feature_set]
    trainer = classifiers.make_trainer(args.model, seed=args.seed, **config.get(args.model, {}))
    model = trainer(data.select_columns(cols))
    classifiers.save_model(args.model_out, model, args.feature_set, mfcc_cfg, lpc_cfg)
    training_acc = classifiers.compute_metrics(
        data.y, model.predict_batch(data.X[:, cols])).overall_accuracy
    c = getattr(model, "convergence", None)  # how an MLP fit ended
    converged = (f", final loss {c.loss:.6g}, {c.halvings} rate halvings, final rate {c.rate:g}"
                 if c else "")
    print(f"saved {args.model} model to {args.model_out} "
          f"(training accuracy {training_acc:.2f}%{converged})")
    return 0


# The defaults of eval's CV flags, and per other mode the ones it does not read,
# which it refuses: a grid is over every model and set, a saved model is not fitted
_EVAL_DEFAULTS = {"model": "mlp", "feature_set": "all", "folds": 6, "seed": 0}
_EVAL_UNREAD = {"compare": ("model", "feature_set"), "model_file": tuple(_EVAL_DEFAULTS)}


def cmd_eval(args) -> int:
    mode = "compare" if args.compare else "model_file" if args.model_file else None
    for dest in _EVAL_UNREAD.get(mode, ()):
        if getattr(args, dest) is not None:
            args.usage_error(f"argument --{dest.replace('_', '-')}: not allowed with "
                             f"argument --{mode.replace('_', '-')}")
    for dest, default in _EVAL_DEFAULTS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    config = _read_run_config(args.config)
    model_settings = {}
    if args.model_file:  # loaded first: a broken model file is the error to report
        model, feature_set, model_settings = classifiers.load_model_and_meta(args.model_file)
    data, configs = _load_labeled(args.features_csv, config.get("features", {}), model_settings)
    if args.config:
        _echo(config, *configs)
    if args.compare:
        grid = classifiers.compare_feature_sets(data, seed=args.seed, folds=args.folds,
                                                classifier_kwargs=config)
        _write_report(render_grid(grid), args.report)
        return 0
    if args.model_file:
        cols = FEATURE_SETS[feature_set]
        metrics = classifiers.compute_metrics(data.y, model.predict_batch(data.X[:, cols]))
    else:
        cols = FEATURE_SETS[args.feature_set]
        trainer = classifiers.make_trainer(args.model, seed=args.seed,
                                           **config.get(args.model, {}))
        metrics = classifiers.evaluate_cv(data.select_columns(cols), trainer,
                                          folds=args.folds, seed=args.seed)
    _write_report(render_metrics(metrics), args.report)
    return 0


def detect_buffer(buffer: audio_io.SampleBuffer, model, feature_set: str = "all",
                  mfcc_cfg: MfccConfig = MfccConfig(),
                  lpc_cfg: LpcConfig = LpcConfig()):
    """Three-phase pipeline on one buffer: returns (DetectionResult, track).

    The track and the climax come first; only the frames of the vote
    window are then classified, so a clip whose climax leaves too few
    frames to vote on fails before any feature work.
    """
    frames = audio_io.frame_signal(buffer)
    track = decision.track_frames(frames, buffer.sample_rate)
    climax = decision.detect_climax(track)
    window = frames[decision.vote_window(climax)]
    matrix = features.extract_features(window, buffer.sample_rate, mfcc_cfg, lpc_cfg)
    labels = model.predict_batch(matrix[:, FEATURE_SETS[feature_set]])
    return decision.finalize_detection(track, climax, labels), track


def cmd_detect(args) -> int:
    model, feature_set, settings = classifiers.load_model_and_meta(args.model_file)
    buffer = audio_io.load_wav(args.wav)
    try:
        result, _ = detect_buffer(buffer, model, feature_set, *features.configs_of(settings))
    except features.BandError as exc:
        raise ValueError(f"{args.model_file}: meta mfcc: {exc} in {args.wav}") from None
    print(result.to_line())
    if warning_decision(result):
        print(warnd.warn_line(result, 0, result.climax_index * audio_io.DEFAULT_FRAME_SECONDS))
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


def _nearest_processor(plan, x: float) -> int:
    """The id of the processor nearest to x along the road, the lower id on
    a tie.  x is first clamped to the processors' span, so a point far past
    either end takes the end processor."""
    spacing, last = plan.processor_spacing, plan.processor_count - 1
    x = min(max(x, 0.0), last * spacing)
    i = int(x / spacing)
    return min(range(max(i - 1, 0), min(i + 2, last + 1)), key=lambda j: abs(j * spacing - x))


def run_simulation(plan, script_lines) -> list[str]:
    """Replay PED/VEHICLE lines against an in-process dispatcher.

    A VEHICLE line is a detection at the processor nearest its x.  Returns
    the event log: one line per delivered warning, carrying the lead time
    from that processor to each warned pedestrian.
    """
    dispatcher = warnd.Dispatcher(plan)
    ped_x = {}  # client_id -> x of its last accepted PED line
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
            ped_x[parts[1]] = float(parts[2])
        elif parts[0] == "VEHICLE" and len(parts) == 5:
            sound_class, speed, start_x, t = _vehicle_fields(lineno, parts[1:])
            detector = _nearest_processor(plan, start_x)
            target_id = detector + plan.warning_offset_areas
            if target_id >= plan.processor_count:
                log.append(f"# event at x={start_x:g}: no instrumented area downstream")
                continue
            result = DetectionResult(climax_index=0, sound_type=sound_class,
                                     direction=APPROACHING)
            delivered = dispatcher.dispatch(result, target_id, t)
            warn = warnd.warn_line(result, target_id, t)
            for cid in sorted(delivered):
                lead = warning_lead_time(ped_x[cid] - detector * plan.processor_spacing, speed)
                log.append(f"{warn} -> {cid} lead={lead:.2f}s")
        else:
            raise ValueError(f"script line {lineno}: cannot parse {line!r}")
    return log


def cmd_simulate(args) -> int:
    plan = load_plan_config(args.plan)
    with open_text(args.script) as fh:
        script_lines = fh.readlines()
    log = run_simulation(plan, script_lines)
    text = "\n".join(log) if log else "# no warnings dispatched"
    _write_report(text, args.report)
    return 0


def build_parser() -> warnd.UsageParser:
    parser = warnd.UsageParser(prog="roadwarn",
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
    # --model, --feature-set, --folds, --seed: None if not given (cmd_eval sets the default)
    p.add_argument("--model", choices=classifiers.CLASSIFIER_NAMES)
    mode = p.add_mutually_exclusive_group()  # a saved model, the grid, or else CV
    mode.add_argument("--model-file", help="evaluate a saved model instead of CV")
    mode.add_argument("--compare", action="store_true",
                      help="classifier x feature-set accuracy grid")
    p.add_argument("--feature-set", choices=list(FEATURE_SETS))
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="INI with classifier/feature overrides")
    p.add_argument("--report", help="also write the report to this file")
    p.set_defaults(func=cmd_eval, usage_error=p.error)

    p = sub.add_parser("detect", help="three-phase detection on one WAV")
    p.add_argument("wav")
    p.add_argument("model_file")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("simulate", help="replay a scripted scenario")
    p.add_argument("plan", help="INI deployment plan")
    p.add_argument("script", help="PED/VEHICLE scenario script")
    p.add_argument("--report", help="also write the event log to this file")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
