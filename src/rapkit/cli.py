"""Command-line front end for the pruning laboratory.

Subcommands: score, prune, distill, report, verify, sweep. The fields of
:class:`RunConfig` are the config file's settings under their own names, and
``CONFIG_FIELDS`` gives each one's JSON kind and range. The flags --method,
--rho, --scoring, --budget, --seed and --out are merged over the file's
values, and the result is validated once, before any output directory is
created. ``COMMANDS`` describes each command once: its help line, the flags
only it takes and the flags it refuses because it would not read them.
prune, distill (when --out holds no checkpoint) and verify build their
compressed model through one step, ``_compress``. All artifacts are
deterministic under a fixed seed (byte-identical across reruns).

Fisher scores are estimated once per --out: score writes scores.json and,
beside it, scores_key.json with two SHA-256 digests, one of everything the
estimate reads (model arrays, spec, calibration windows, targets) and one of
the scores.json bytes. Each command that needs Fisher scores, score itself
included, reads the table back when both digests match its own inputs and
otherwise estimates; only score writes the table.

Exit codes, each given by ``main``'s one handler: 0 ok, 1 validation error
(a flag argparse cannot read included), 2 check failure or infeasible budget,
3 numeric divergence: every command runs with overflow, invalid and divide
floating-point errors raised, and the message names the command and stage.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analyze, budget, factorize, recover, scoring, toymodel, verify
from .rope import check
from .toymodel import BUDGET_MODES, CALIBRATION_FIELDS, RATIO, SEED

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CHECK_FAILURE = 2
EXIT_DIVERGENCE = 3

SCORES = "scores.json"
# the digests under which the other commands read the Fisher table back
SCORES_KEY = "scores_key.json"

SCORING_MODES = ("fisher", "magnitude")
# the settings a flag of the same name overrides
FLAGS = ("method", "rho", "scoring", "budget", "seed", "out")
# per command: its help line, the flags only it takes with their help, and
# the flags it never reads with the reason it refuses them; a config file's
# keys of the refused names still serve the rest of the pipeline
COMMANDS = {
    "score": ("compute pair importance scores", {},
              dict.fromkeys(("rho", "method", "budget"), "score computes pair scores only")),
    "prune": ("allocate budgets and build a compressed checkpoint",
              {"scores": "scores JSON from the score command",
               "plan": "budget plan JSON to apply as-is"}, {}),
    "distill": ("recover accuracy with adapter distillation", {}, {}),
    "report": ("resource report for the configured method", {},
               {"rho": "report measures the config's ratios"}),
    "verify": ("structural checks on a freshly pruned model", {},
               {"method": "verify always prunes with rap"}),
    "sweep": ("resource reports for every method and ratio", {},
              {"rho": "sweep measures the config's ratios",
               "method": "sweep reports every method"}),
}


@dataclass
class RunConfig:
    """A run's settings, each the config file's key of the same name."""

    method: str = "rap"
    rho: float = 0.3
    scoring: str = "fisher"
    budget: str = "adaptive"
    seed: int = 42
    out: str = "runs/out"
    seq_len: int = 64
    model: dict = field(default_factory=dict)
    calibration: dict = field(default_factory=dict)
    kd: dict = field(default_factory=dict)
    ratios: list = field(default_factory=lambda: [0.1, 0.2, 0.3, 0.4, 0.5])

    @classmethod
    def load(cls, args: argparse.Namespace) -> "RunConfig":
        """The config file's settings with the flags given over them, validated."""
        settings = dict(vars(cls()))   # the defaults
        if args.config:
            data = _read(args.config, json.loads)
            check(f"{args.config}: config", data, dict)
            settings.update(data)
        given = {key: getattr(args, key) for key in FLAGS
                 if getattr(args, key, None) is not None}
        for key, reason in COMMANDS[args.command][2].items():
            if key in given:
                raise ValueError(f"--{key} would be ignored: {reason}")
        settings.update(given)
        _validate(settings)
        return cls(**settings)

    def validate(self):
        """Raise a ValueError naming every setting of a wrong kind or value."""
        _validate(vars(self))

    def build_model(self) -> toymodel.AttentionModel:
        path, spec = self.model.get("path"), self.model.get("spec")
        if path:
            model = toymodel.load_model(path)
            if model.method != "baseline":
                raise ValueError(f"model.path {path} holds a {model.method!r} checkpoint; "
                                 "the pipeline starts from a baseline model")
            return model
        if spec:
            return toymodel.AttentionModel.build(toymodel.spec_from_json(spec))
        return toymodel.AttentionModel.build(toymodel.default_spec(seed=self.seed))

    def build_calibration(self, vocab: int) -> toymodel.CalibrationSet:
        """The calibration settings over ``markov_calibration``'s defaults, and
        the run's seed unless they set one."""
        return toymodel.markov_calibration(vocab, **{"seed": self.seed, **self.calibration})

    def out_dir(self) -> Path:
        path = Path(self.out)
        path.mkdir(parents=True, exist_ok=True)
        return path


# the config file's settings, each of them optional: RunConfig holds the defaults
CONFIG_FIELDS = {
    "method": (str, factorize.METHODS), "rho": (float, RATIO),
    "scoring": (str, SCORING_MODES), "budget": (str, BUDGET_MODES), "seed": SEED,
    "out": str, "seq_len": CALIBRATION_FIELDS["window"],   # the report's token window
    "model": {"path?": str, "spec?": toymodel.SPEC_FIELDS},
    "calibration": {f"{key}?": rule for key, rule in CALIBRATION_FIELDS.items()},
    # distillation's seed is the run's
    "kd": {f"{key}?": rule for key, rule in recover.KD_FIELDS.items() if key != "seed"},
    "ratios": [(float, RATIO)],
}


def _read(path, parse):
    """``parse`` of the text of the file ``path``; a ValueError (not UTF-8, not
    JSON, a field that breaks its table) names the path."""
    try:
        return parse(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _validate(settings: dict):
    """Raise a ValueError naming every setting that breaks ``CONFIG_FIELDS``,
    or a model setting the run cannot use."""
    if isinstance(settings["model"], dict):   # a null model key is unset
        settings = {**settings, "model": {key: value for key, value in
                                          settings["model"].items() if value is not None}}
    check("", settings, CONFIG_FIELDS)
    path, spec = settings["model"].get("path"), settings["model"].get("spec")
    if path is not None and spec is not None:
        raise ValueError("model.path and model.spec are both set; "
                         "a checkpoint carries its own spec, give one")
    if spec is not None:   # the checks across its fields
        toymodel.spec_from_json(spec, "model.spec")
    if not settings["ratios"]:
        raise ValueError("ratios must not be empty")


@contextlib.contextmanager
def _stage(name: str):
    """Name the stage in which a pass overflowed or made a NaN; ``main`` runs
    every command with such floating-point errors raised."""
    try:
        yield
    except FloatingPointError as exc:
        raise FloatingPointError(f"{name}: {exc}") from None


def _cached_scores(out: Path, model, inputs: str) -> scoring.PairScoreTable | None:
    """The table ``score`` wrote to ``out``, if its key holds ``inputs`` and the
    digest of the scores file as it stands; otherwise None."""
    try:
        key = json.loads((out / SCORES_KEY).read_text())
        scores = hashlib.sha256((out / SCORES).read_bytes()).hexdigest()
        if key != {"inputs": inputs, "scores": scores}:
            return None
        return _load_scores(out / SCORES, model)
    except (OSError, ValueError):  # a missing or garbled file: estimate instead
        return None


def _compute_scores(cfg: RunConfig, model, calib=None
                    ) -> tuple[scoring.PairScoreTable, str | None]:
    """Pair scores by ``cfg.scoring``, and for Fisher scores the digest of the
    estimate's inputs, on ``calib`` or the config's calibration set. A Fisher
    table that ``score`` wrote to --out is read back when its key matches;
    magnitude scores cost less to compute than to check."""
    with _stage("scoring"):
        if cfg.scoring == "magnitude":
            return scoring.magnitude_scores(model, model.spec.rope.scheme), None
        calib = cfg.build_calibration(model.spec.vocab) if calib is None else calib
        inputs = scoring.fisher_digest(model, calib, scoring.default_targets(model))
        table = _cached_scores(Path(cfg.out), model, inputs) or scoring.pair_scores(
            scoring.estimate_fisher(model, calib), model.spec.rope.scheme)
        return table, inputs


def _check_fit(path: Path, what: str, source: str, fields) -> None:
    """Raise a ValueError naming ``path`` and the first of the (name, got,
    expected) ``fields`` where ``what`` differs from ``source``; a set of keys
    names the keys missing or unexpected."""
    for name, got, expected in fields:
        if isinstance(got, set):
            for label, keys in (("missing", expected - got), ("unexpected", got - expected)):
                if keys:
                    raise ValueError(f"{path}: {label} {name} " + ", ".join(
                        ".".join(map(str, key)) for key in sorted(keys)))
        elif got != expected:
            raise ValueError(f"{path}: {what} has {name} {got!r}, {source} has {expected!r}")


def _load_scores(path: Path, model) -> scoring.PairScoreTable:
    """A score table from the score command, checked against ``model``."""
    table = _read(path, scoring.PairScoreTable.from_json)
    spec = model.spec
    _check_fit(path, "the table", "the model", [
        ("head_dim", table.head_dim, spec.head_dim),
        ("pairing", table.pairing, spec.rope.scheme.kind),
        ("score keys", set(table.keys()), {(l, s, h) for l, s in scoring.default_targets(model)
                                           for h in range(spec.kv_heads)})])
    return table


def _load_plan(path: Path, model) -> budget.BudgetPlan:
    """A budget plan JSON, checked against ``model`` as scores are."""
    plan = _read(path, budget.BudgetPlan.from_json)
    half = model.spec.head_dim // 2
    _check_fit(path, "the plan", "the model", [
        ("num_pairs", plan.num_pairs, half),
        ("plan groups", set(plan.groups()), set(scoring.default_targets(model)))])
    for (l, s), m in sorted(plan.pair_counts.items()):
        if not 1 <= m <= half:
            raise ValueError(
                f"{path}: plan group {l}.{s} retains {m} pairs, outside [1, {half}]")
    return plan


def _score_summary(table: scoring.PairScoreTable) -> dict:
    return {
        "grand_total": table.grand_total(),
        "group_totals": {f"{l}.{s}": table.group_total(l, s)
                         for l, s in table.groups()},
        "argsort": {f"{l}.{s}.{h}": np.argsort(-table.get(l, s, h),
                                               kind="stable").tolist()
                    for l, s, h in table.keys()},
    }


def cmd_score(cfg: RunConfig) -> int:
    """Write the pair scores, their summary and, for a Fisher table, the key
    under which the other commands read it back (see ``_cached_scores``)."""
    table, inputs = _compute_scores(cfg, cfg.build_model())
    text = table.to_json()
    out = cfg.out_dir()
    (out / SCORES).write_text(text)
    if inputs is None:  # a key names the inputs of a Fisher table
        (out / SCORES_KEY).unlink(missing_ok=True)
    else:
        key = {"inputs": inputs, "scores": hashlib.sha256(text.encode()).hexdigest()}
        (out / SCORES_KEY).write_text(json.dumps(key, sort_keys=True, indent=1))
    summary = {"scoring": cfg.scoring, "seed": cfg.seed}
    summary.update(_score_summary(table))
    (out / "score_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=1))
    print(f"wrote {out / SCORES}")
    return EXIT_OK


def _compress(cfg: RunConfig, model, method: str, rho: float,
              scores_path: str | None = None, plan_path: str | None = None, calib=None):
    """``model`` built by ``method`` at ``rho``, the plan the build applied and
    the pair scores it read (None for a method that reads none).

    rap reads the ``--scores`` and ``--plan`` files when given, and otherwise
    computes its scores and allocates its plan; the other methods refuse both.
    """
    table = plan = None
    if method == "rap":
        plan = _load_plan(Path(plan_path), model) if plan_path else None
        table = (_load_scores(Path(scores_path), model) if scores_path
                 else _compute_scores(cfg, model, calib=calib)[0])
        if plan is None:
            plan = budget.allocate(table, rho, cfg.budget)
    else:
        for flag, path in (("--plan", plan_path), ("--scores", scores_path)):
            if path:
                raise ValueError(f"{flag} would be ignored: method {method} "
                                 "reads no scores or plan")
    plan = factorize.applied_plan(model.spec, method, rho, plan)
    with _stage("compression"):
        compressed = factorize.build_compressed(model, method, rho, scores=table,
                                                plan=plan)
    return compressed, plan, table


def cmd_prune(cfg: RunConfig, scores: str | None = None, plan: str | None = None) -> int:
    """The compressed checkpoint, from the --scores and --plan paths if given."""
    compressed, applied, _ = _compress(cfg, cfg.build_model(), cfg.method, cfg.rho,
                                       scores, plan)
    out = cfg.out_dir()
    toymodel.save_model(compressed, out / "compressed.model")
    # budget.json records the plan the build follows
    (out / "budget.json").write_text(applied.to_json())
    (out / "manifest.json").write_text(
        json.dumps(compressed.manifest, sort_keys=True, indent=1))
    print(f"wrote {out / 'compressed.model'}")
    return EXIT_OK


def _check_student(path: Path, student, cfg: RunConfig, teacher) -> None:
    """A checkpoint found in --out must have the configured method and rho and
    the teacher's spec, as the prune of this config writes it."""
    have, want = toymodel.spec_to_json(student.spec), toymodel.spec_to_json(teacher.spec)
    _check_fit(path, "the checkpoint", "the config", [
        ("method", student.method, cfg.method), ("rho", student.manifest["rho"], cfg.rho)])
    _check_fit(path, "the checkpoint", "the teacher",
               [(f"spec.{key}", have[key], want[key]) for key in sorted(want)])


def cmd_distill(cfg: RunConfig) -> int:
    teacher = cfg.build_model()
    calib = cfg.build_calibration(teacher.spec.vocab)   # scores and training share it
    checkpoint = Path(cfg.out) / "compressed.model"
    if checkpoint.exists():
        student = toymodel.load_model(checkpoint)
        _check_student(checkpoint, student, cfg, teacher)
    else:
        student, _, _ = _compress(cfg, teacher, cfg.method, cfg.rho, calib=calib)
    kd_cfg = recover.KdConfig(seed=cfg.seed, **cfg.kd)
    merged, trace, adapters_json = student, [], "{}"
    if kd_cfg.steps:
        with _stage("training"):
            try:
                # training finds a non-finite weight itself and names the step
                with np.errstate(all="ignore"):
                    trained, trace = recover.distill(teacher, student, calib, kd_cfg)
            except recover.TrainingDiverged as exc:   # a FloatingPointError
                (cfg.out_dir() / "kd_trace.csv").write_text(recover.trace_to_csv(exc.trace))
                raise
        adapters_json = recover.adapters_to_json(trained)
        merged = recover.merge_adapters(trained)
    out = cfg.out_dir()
    toymodel.save_model(merged, out / "recovered.model")
    (out / "adapters.json").write_text(adapters_json)
    (out / "kd_trace.csv").write_text(recover.trace_to_csv(trace))
    print(f"wrote {out / 'recovered.model'}")
    return EXIT_OK


def _write_reports(cfg: RunConfig, methods, stem: str) -> int:
    model = cfg.build_model()
    table = _compute_scores(cfg, model)[0] if "rap" in methods else None
    tokens = list(toymodel.markov_calibration(
        model.spec.vocab, count=1, window=cfg.seq_len, seed=cfg.seed).sequences[0])
    with _stage("measurement"):
        reports = analyze.sweep(model, methods, cfg.ratios, tokens, scores=table,
                                budget_mode=cfg.budget)
    out = cfg.out_dir()
    (out / f"{stem}.csv").write_text(analyze.reports_to_csv(reports))
    (out / f"{stem}.json").write_text(analyze.reports_to_json(reports))
    print(f"wrote {out / f'{stem}.csv'}")
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    return _write_reports(cfg, [cfg.method], "report")


def cmd_sweep(cfg: RunConfig) -> int:
    return _write_reports(cfg, list(factorize.METHODS), "sweep")


def cmd_verify(cfg: RunConfig) -> int:
    model = cfg.build_model()
    # nothing is pruned at ratio 0, which would make every check trivial
    rho = cfg.rho or 0.3
    calib = cfg.build_calibration(model.spec.vocab)   # scores and checks share it
    compressed, plan, table = _compress(cfg, model, "rap", rho, calib=calib)
    rng = np.random.default_rng(cfg.seed)

    checks: dict[str, dict] = {}
    with _stage("checks"):
        dev = verify.check_commutativity(compressed, seed=cfg.seed)
        checks["commutativity"] = {"deviation": dev, "passed": dev <= 1e-12}

        half = model.spec.head_dim // 2
        greedy = [verify.check_greedy_optimality(rng.random(half), int(rng.integers(1, half + 1)))
                  for _ in range(25)]
        checks["greedy_optimality"] = {"passed": all(ok for ok, _witness in greedy)}

        quad = verify.quadratic_bound_case(cfg.seed)
        checks["quadratic_bound"] = {"ratio": quad.ratio,
                                     "passed": abs(quad.ratio - 1.0) <= 1e-9}

        ref = factorize.reconstructed_reference(model, "rap", rho, scores=table,
                                                plan=plan)
        tokens = list(calib.sequences[0][:16])
        lat = toymodel.forward_prefill(compressed, tokens).logits
        full = toymodel.forward_prefill(ref, tokens).logits
        gap = float(np.max(np.abs(lat - full)))
        checks["latent_equivalence"] = {"deviation": gap, "passed": gap <= 1e-9}

    passed = all(c["passed"] for c in checks.values())
    payload = {"passed": passed, "checks": checks, "seed": cfg.seed}
    out = cfg.out_dir()
    (out / "verify.json").write_text(json.dumps(payload, sort_keys=True, indent=1))
    for name, result in sorted(checks.items()):
        print(f"{'PASS' if result['passed'] else 'FAIL'} {name}")
    return EXIT_OK if passed else EXIT_CHECK_FAILURE


class _Parser(argparse.ArgumentParser):
    """A parser whose refusals reach ``main``'s handler, which exits 1."""

    def error(self, message):
        raise ValueError(message)


@functools.cache   # one parser serves every call of main in a process
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rapkit",
        description="Pair-aligned KV-cache pruning laboratory")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, own, _) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--rho", type=float, help="KV-cache compression ratio")
        p.add_argument("--method", choices=factorize.METHODS)
        p.add_argument("--scoring", choices=SCORING_MODES)
        p.add_argument("--budget", choices=BUDGET_MODES)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        for flag, flag_help in own.items():
            p.add_argument(f"--{flag}", help=flag_help)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = RunConfig.load(args)
        # an overflow or NaN raises a FloatingPointError; underflow, which exp
        # of masked scores makes, stays allowed
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            # the cmd_<name> of the COMMANDS key, looked up at each call: a tracer may rebind it
            return globals()[f"cmd_{args.command}"](cfg, **{
                flag: getattr(args, flag) for flag in COMMANDS[args.command][1]})
    except budget.InfeasibleBudget as exc:
        print(f"error: infeasible budget: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    except (OSError, ValueError) as exc:
        # malformed flags, settings or input files, or a file that cannot be read
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FloatingPointError as exc:
        print(f"error: {args.command}: numeric divergence in {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
