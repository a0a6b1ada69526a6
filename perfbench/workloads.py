"""The benchmark's workloads, their correctness checks and their metrics.

Load model: one process per workload and one client in a closed loop; each
call into the program starts when the previous one has finished. Inputs come
from the workload seed only.

Every workload reports every metric, so a run of either workload does two
kinds of unit, interleaved:

* a decode round, on the medium model (4 layers, 16 query heads over 4 kv
  heads, head dim 64, vocab 512, adjacent pairing) compressed by every method
  at rho=0.5 with the uniform plan, so every latent is 16 whole pairs wide and
  the closed forms are exact. A round makes one request per method on the
  same Markov window: a prefill of the prompt, then teacher-forced decode
  steps whose input tokens come from the window, not from the model. The four
  prefills run in turn, then the four requests take turns one decode step at
  a time. ``decode_short`` and ``decode_long`` differ in their shapes
  (``DECODE_SHAPES``).
* a pipeline seed, on the desk-scale default model: the six CLI commands run
  in-process through ``cli.main``.

Units repeat, in proportion to each kind's minimum count, until the run's
seconds have passed and both minimums are met. Every correctness check runs
after the timed loop. A failed check counts as a failed operation. The traced
pass makes one round, one seed and one toy bound regime check (see
``bound_check``); it reads tape node, FLOP and byte counts from an untimed
replay of its requests with tapes passed in.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rapkit import (analyze, budget, cli, factorize, numcore, recover, rope,
                    scoring, toymodel, verify)
from spans import (END, NAME, REQUEST, START, NullRecorder, Recorder, ancestors,
                   patched, self_times)

METHODS = ("baseline", "svd", "palu", "rap")
TAGS = ("attn_q", "kv_proj", "attn_score", "attn_value", "attn_o", "lm_head")
RHO = 0.5
MODEL_SEED = 42
ATOL = 1e-9
MIB = 1024 * 1024
# set-up is repeated, at least this many times and for at least this many
# seconds in all, and its median reported, so one slow set-up does not decide
# the figure
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
# (prompt tokens, decode steps) per request
# Requests are kept short so that a run holds several prefills per method.
DECODE_SHAPES = {"decode_short": (64, 16), "decode_long": (768, 16)}
# stream windows the timed rounds cycle through. decode_long repeats one
# window, so the check's reference prefill over its 784 tokens (about 1.4 s)
# runs once per method and run rather than once per request.
TIMED_WINDOWS = {"decode_short": 31, "decode_long": 1}
# (prompt tokens, decode steps) of the warm-up's short round
WARMUP_SHAPE = (64, 8)
# decode rounds and pipeline seeds a run makes at least. A decode_short round
# takes about 1.6 s, a decode_long round 7.5 s and a pipeline seed 2.3 s on a
# 2-CPU Xeon; these minimums keep a run of either workload near a minute, so
# that every run the benchmark check makes fits its time limit.
MIN_ROUNDS = {"decode_short": 8, "decode_long": 4}
MIN_SEEDS = 5
# A timing is the fastest of its samples (percentile 0), except set-up (the
# median) and the decode tail (p95). Other tenants of a shared host slow a
# run by up to 40% for seconds at a time. Over five runs of decode_short, the
# interquartile range of tpot_ms was 15-19% of the median when each run
# reported its median step, and 4-7% when it reported its fastest step. A
# slower program still moves the minimum, and the tail shows in tpot_ms_p95.
FASTEST = 0
# criterion 10 asserts the toy bound regime check on seeds 0-19; the check is
# empirical and some other seeds fall outside the second-order regime, so the
# pipeline draws its seeds from that range
PIPELINE_SEEDS = 20
CLI_COMMANDS = ("score", "prune", "distill", "report", "sweep", "verify")


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    stat: str = ""      # how the samples became the value


@dataclass
class Outcome:
    """What one pass of a workload measured."""

    metrics: dict[str, Metric] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)   # one per failed operation
    round_s: list[float] = field(default_factory=list)  # wall time of each round
    seed_s: list[float] = field(default_factory=list)   # and of each seed
    samples: dict[str, list[float]] = field(default_factory=dict)  # per timing

    def add(self, name, value, unit, samples):
        self.metrics[name] = Metric(float(value), unit, int(samples))

    def timing(self, name, values, unit, per_unit: float, q: float = FASTEST):
        """Percentile ``q`` of ``values`` divided by ``per_unit``; the samples
        are kept for the result record."""
        values = [v / per_unit for v in values]
        self.samples[name] = values
        self.metrics[name] = Metric(float(np.percentile(values, q)), unit,
                                    len(values), "min" if q == 0 else f"p{q:g}")


def medium_spec() -> toymodel.ModelSpec:
    scheme = rope.PairingScheme("adjacent", 64)
    return toymodel.ModelSpec(layers=4, query_heads=16, kv_heads=4, head_dim=64,
                              vocab=512, rope=rope.RopeConfig(10000.0, scheme),
                              seed=MODEL_SEED)


def trace_targets():
    """(span name, owner, attribute) for every public function the trace times."""
    targets = [
        ("numcore.gradients", numcore, "gradients"),
        ("rope.column_arrays", rope.PairingScheme, "column_arrays"),
        ("rope.angle_tables", rope.RopeConfig, "angle_tables"),
        ("toymodel.forward_prefill", toymodel, "forward_prefill"),
        ("toymodel.forward_decode", toymodel, "forward_decode"),
        ("toymodel.save_model", toymodel, "save_model"),
        ("toymodel.load_model", toymodel, "load_model"),
        ("scoring.estimate_fisher", scoring, "estimate_fisher"),
        ("scoring.magnitude_scores", scoring, "magnitude_scores"),
        ("budget.allocate", budget, "allocate"),
        ("factorize.build_compressed", factorize, "build_compressed"),
        ("factorize.reconstructed_reference", factorize, "reconstructed_reference"),
        ("recover.distill", recover, "distill"),
        ("recover.pretrain", recover, "pretrain"),
        ("analyze.sweep", analyze, "sweep"),
        ("analyze.measure_forward", analyze, "measure_forward"),
        ("verify.check_commutativity", verify, "check_commutativity"),
        ("verify.check_greedy_optimality", verify, "check_greedy_optimality"),
        ("verify.check_loss_bound", verify, "check_loss_bound"),
        ("verify.toy_bound_regime_check", verify, "toy_bound_regime_check"),
    ]
    targets += [(f"cli.{cmd}", cli, f"cmd_{cmd}") for cmd in CLI_COMMANDS]
    return targets


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SpanTable:
    """Totals and self times of a finished trace, by span name."""

    def __init__(self, recorder: Recorder):
        self.spans = recorder.spans
        self.self_ns = self_times(recorder.spans)
        self.by_name: dict[str, list[int]] = {}
        for i, span in enumerate(self.spans):
            self.by_name.setdefault(span[NAME], []).append(i)

    def indices(self, name) -> list[int]:
        return self.by_name.get(name, [])

    def duration_ns(self, i) -> int:
        return self.spans[i][END] - self.spans[i][START]

    def calls(self, name) -> int:
        return len(self.indices(name))

    def total_s(self, name) -> float:
        return sum(self.duration_ns(i) for i in self.indices(name)) / 1e9

    def self_s(self, name) -> float:
        return sum(self.self_ns[i] for i in self.indices(name)) / 1e9

    def add_total(self, out: Outcome, name: str):
        """``<name>_s``: the summed duration of every span of ``name``."""
        out.add(f"{name}_s", self.total_s(name), "s", self.calls(name))

    def add_calls(self, out: Outcome, name: str):
        out.add(f"{name}_calls", self.calls(name), "count", 1)


# -- decode ------------------------------------------------------------------


class Request:
    """One prompt on one method: a prefill, then teacher-forced decode steps.

    Only ``forward_prefill`` and each ``forward_decode`` are inside the timers,
    and they are called as an inference caller calls them, without a tape.
    """

    def __init__(self, method: str, model, tokens: list[int], prompt: int):
        self.method = method
        self.model = model
        self.tokens = tokens
        self.prompt = prompt
        self.step_ns: list[int] = []
        self.logits = None      # next-token logits after the last step taken

    def prefill(self):
        t0 = time.perf_counter_ns()
        result = toymodel.forward_prefill(self.model, self.tokens[:self.prompt])
        self.ttft_ns = time.perf_counter_ns() - t0
        self.cache = result.cache
        self.finite = bool(np.isfinite(result.logits).all())

    def step(self, i: int):
        """Decode the stream token at ``prompt + i`` (teacher forcing)."""
        token = self.tokens[self.prompt + i]
        t0 = time.perf_counter_ns()
        logits, self.cache = toymodel.forward_decode(self.model, self.cache, token)
        self.step_ns.append(time.perf_counter_ns() - t0)
        self.logits = logits[-1]
        self.finite = self.finite and bool(np.isfinite(logits).all())

    def finish(self):
        """Keep the cache size, drop the cache and the model."""
        self.entries = self.cache.entries()
        self.cache = self.model = None


@dataclass
class TapeCounts:
    """Tape counters of one request, replayed untimed with tapes passed in."""

    prefill_flops: dict[str, int]
    prefill_tape_bytes: int     # sum of value.nbytes over the prefill tape
    decode_flops: dict[str, int]    # summed over the decode steps
    decode_nodes: int               # summed over the decode steps


def count_tape(model, tokens: list[int], prompt: int) -> TapeCounts:
    tape = numcore.Tape()
    cache = toymodel.forward_prefill(model, tokens[:prompt], tape=tape).cache
    prefill_flops = dict(tape.flops_by_tag)
    prefill_bytes = sum(node.value.nbytes for node in tape.nodes)
    del tape
    decode_flops = dict.fromkeys(TAGS, 0)
    decode_nodes = 0
    for token in tokens[prompt:]:
        tape = numcore.Tape()
        _, cache = toymodel.forward_decode(model, cache, token, tape=tape)
        decode_nodes += len(tape.nodes)
        for tag, flops in tape.flops_by_tag.items():
            decode_flops[tag] += flops
    return TapeCounts(prefill_flops, prefill_bytes, decode_flops, decode_nodes)


class DecodePart:
    """Decode rounds of one workload; ``requests`` collects every request."""

    def __init__(self, name: str, seed: int):
        self.prompt, self.steps = DECODE_SHAPES[name]
        self.windows = TIMED_WINDOWS[name]
        self.spec = medium_spec()
        # window 0 feeds the warm-up, the timed rounds cycle through the next
        self.stream = toymodel.markov_calibration(
            self.spec.vocab, count=1 + self.windows,
            window=self.prompt + self.steps, seed=seed).sequences
        self.requests: list[Request] = []
        self.rounds = 0

    def build(self) -> dict:
        model = toymodel.AttentionModel.build(self.spec)
        scores = scoring.magnitude_scores(model, self.spec.rope.scheme)
        plan = budget.uniform_plan(self.spec.head_dim // 2, self.spec.layers, RHO)
        # factorize.METHODS lists the package's names in the order of METHODS
        return {m: factorize.build_compressed(model, internal, RHO,
                                              scores=scores, plan=plan)
                for m, internal in zip(METHODS, factorize.METHODS)}

    def warm_up(self, models):
        """Every method on a short round. No long request: a long prefill's
        score matrices are mapped fresh from the system on every call, and
        without one the first timed long prefill was not slower than the
        second (five decode_long runs)."""
        prompt, steps = WARMUP_SHAPE
        tokens = list(self.stream[0])
        self.round(models, tokens[:prompt + steps], prompt, NullRecorder(), 0)

    def round(self, models, tokens, prompt, rec, first_id) -> list[Request]:
        """One request per method on the same tokens.

        The prefills run one after another, then the decode steps of the four
        requests take turns, one step each. A burst of noise from the host
        then falls on every method alike rather than on one method's block.
        """
        requests = [Request(m, models[m], tokens, prompt) for m in METHODS]
        for rid, req in enumerate(requests, first_id):
            with rec.span("request", request=rid):
                req.prefill()
        for i in range(len(tokens) - prompt):
            for rid, req in enumerate(requests, first_id):
                with rec.span("request", request=rid):
                    req.step(i)
        for req in requests:
            req.finish()
        return requests

    def setup(self, rec):
        with rec.span("setup"):
            self.models = self.build()
        with rec.pause():
            self.warm_up(self.models)

    def unit(self, rec):
        tokens = list(self.stream[1 + self.rounds % self.windows])
        self.requests += self.round(self.models, tokens, self.prompt, rec,
                                    len(self.requests))
        self.rounds += 1

    def check(self, traced: bool) -> list[list[str]]:
        """Per request: decode equals prefill, logits are finite, the cache
        matches the closed form, and in the traced pass the FLOPs do too."""
        references = {}
        errors = []
        for req in self.requests:
            key = (req.method, tuple(req.tokens))
            if key not in references:
                references[key] = toymodel.forward_prefill(
                    self.models[req.method], req.tokens).logits[-1]
            errors.append(self.check_request(req, references[key]))
        if traced:
            self.counts = {req.method: count_tape(self.models[req.method],
                                                  req.tokens, self.prompt)
                           for req in self.requests}
            for req, errs in zip(self.requests, errors):
                errs += self.check_flops(req.method, self.counts[req.method])
        return errors

    def check_request(self, req: Request, reference) -> list[str]:
        method = req.method
        errors = []
        if not req.finite:
            errors.append(f"{method}: non-finite logits")
        gap = float(np.max(np.abs(reference - req.logits)))
        if not gap <= ATOL:
            errors.append(f"{method}: decode differs from prefill by {gap:.3e}")
        expected = analyze.baseline_kv_entries(self.spec, len(req.tokens)) * \
            _retained(method)
        if req.entries != expected:
            errors.append(f"{method}: cache holds {req.entries} entries, "
                          f"closed form {expected}")
        return errors

    def check_flops(self, method: str, counts: TapeCounts) -> list[str]:
        """Measured kv_proj prefill FLOPs per kv head per token match analyze."""
        spec = self.spec
        measured = counts.prefill_flops.get("kv_proj", 0) / (
            self.prompt * spec.kv_heads * spec.layers)
        analytic = analyze.analytic_kv_projection(
            method, _retained(method), heads=spec.query_heads,
            head_dim=spec.head_dim)["flops"]
        if measured != analytic:
            return [f"{method}: kv_proj FLOPs per kv head per token "
                    f"{measured} != closed form {analytic}"]
        return []

    def end_to_end(self, out: Outcome):
        pooled = []
        for m in METHODS:
            mine = [r for r in self.requests if r.method == m]
            steps = [ns for r in mine for ns in r.step_ns]
            pooled += steps
            out.timing(f"ttft_ms.{m}", [r.ttft_ns for r in mine], "ms", 1e6)
            out.timing(f"tpot_ms.{m}", steps, "ms", 1e6)
        out.timing("tpot_ms_p95", pooled, "ms", 1e6, q=95)

    def per_layer(self, out: Outcome, table: SpanTable):
        """Per-layer metrics of the traced round: one request per method."""
        requests = self.requests
        decode_spans = {m: [] for m in METHODS}
        prefill_spans = {m: [] for m in METHODS}
        for name, spans_by_method in (("toymodel.forward_decode", decode_spans),
                                      ("toymodel.forward_prefill", prefill_spans)):
            for i in table.indices(name):
                if "request" in ancestors(table.spans, i):
                    rid = table.spans[i][REQUEST]
                    spans_by_method[requests[rid].method].append(i)
        for req in requests:
            m, c = req.method, self.counts[req.method]
            steps = len(req.step_ns)
            out.add(f"numcore.decode_nodes.{m}", c.decode_nodes / steps, "count",
                    steps)
            for tag in TAGS:
                out.add(f"numcore.decode_flops.{m}.{tag}",
                        c.decode_flops[tag] / steps, "FLOP", steps)
            out.add(f"numcore.prefill_flops.{m}",
                    sum(c.prefill_flops.values()) / self.prompt, "FLOP", 1)
            decode_ns = sum(table.duration_ns(i) for i in decode_spans[m])
            out.add(f"numcore.ns_per_flop.{m}",
                    decode_ns / sum(c.decode_flops.values()), "ns",
                    len(decode_spans[m]))
            out.add(f"numcore.prefill_tape_mb.{m}", c.prefill_tape_bytes / MIB,
                    "MiB", 1)
            out.add(f"toymodel.prefill_self_ms.{m}",
                    np.median([table.self_ns[i] for i in prefill_spans[m]]) / 1e6,
                    "ms", len(prefill_spans[m]))
            out.add(f"toymodel.decode_self_ms.{m}",
                    np.median([table.self_ns[i] for i in decode_spans[m]]) / 1e6,
                    "ms", len(decode_spans[m]))
            out.add(f"toymodel.cache_mb.{m}", req.entries * 8 / MIB, "MiB", 1)
        table.add_total(out, "scoring.magnitude_scores")


# -- pipeline ----------------------------------------------------------------


@dataclass
class SeedRun:
    seed: int
    command_ns: dict[str, int]
    codes: dict[str, int]
    verify_passed: bool
    rounding_error: float


class PipelinePart:
    """Pipeline seeds of one workload; ``runs`` collects every seed's result."""

    def __init__(self, seed: int, workdir: Path):
        order = np.random.default_rng(seed).permutation(PIPELINE_SEEDS)
        self.seeds = [int(s) for s in order]
        self.workdir = workdir
        self.runs: list[SeedRun] = []
        self.within_second_order = None

    def cli(self, command: str, out: Path, seed: int) -> int:
        argv = [command, "--out", str(out), "--seed", str(seed)]
        if command == "prune":
            argv += ["--rho", "0.3"]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def setup(self, rec):
        """Warm-up: one ``report`` command on the last seed of the order."""
        with rec.pause():
            self.cli("report", self.workdir / "warmup", self.seeds[-1])

    def unit(self, rec):
        seed = self.seeds[len(self.runs) % len(self.seeds)]
        out_dir = self.workdir / f"seed{seed}"
        command_ns, codes = {}, {}
        with rec.span("seed", request=seed):
            for command in CLI_COMMANDS:
                t0 = time.perf_counter_ns()
                codes[command] = self.cli(command, out_dir, seed)
                command_ns[command] = time.perf_counter_ns() - t0
        with rec.pause():
            verify_passed = _read_json(out_dir / "verify.json").get("passed") is True
            rounding = _read_json(out_dir / "budget.json").get("rounding_error",
                                                              float("nan"))
        shutil.rmtree(out_dir, ignore_errors=True)
        self.runs.append(SeedRun(seed, command_ns, codes, verify_passed,
                                 float(rounding)))

    def bound_check(self):
        """The toy bound regime check (criterion 10) on the first seed.

        The traced pass runs it, for its per-layer figures
        (``numcore.gradients_s.bound``, ``recover.pretrain_s``) and as a
        correctness check. It is not an end-to-end timing: one call takes
        about 5 s, so a run holds too few of them for a steady figure, and
        the untimed call would take a tenth of every untraced run.
        """
        report = verify.toy_bound_regime_check(self.seeds[0], eps=0.05, slack=0.2)
        self.within_second_order = bool(report.within_second_order)

    def check(self) -> tuple[int, list[str]]:
        """Operations attempted (six commands per seed, and the bound check
        if it ran) and the failed ones."""
        attempted = len(self.runs) * len(CLI_COMMANDS)
        failures = []
        if self.within_second_order is not None:
            attempted += 1
            if not self.within_second_order:
                failures.append(f"seed {self.seeds[0]}: bound check outside "
                                "the second-order regime")
        for run in self.runs:
            for command, code in run.codes.items():
                if code != 0:
                    failures.append(f"seed {run.seed}: {command} exited {code}")
                elif command == "verify" and not run.verify_passed:
                    failures.append(f"seed {run.seed}: verify.json not passed")
        return attempted, failures

    def end_to_end(self, out: Outcome):
        runs = self.runs
        cli_s = [sum(r.command_ns[c] for c in CLI_COMMANDS if c != "distill")
                 for r in runs]
        out.timing("cli_s", cli_s, "s", 1e9)
        out.timing("distill_s", [r.command_ns["distill"] for r in runs], "s", 1e9)

    def per_layer(self, out: Outcome, table: SpanTable):
        contexts = {"bound": "verify.toy_bound_regime_check",
                    "distill": "recover.distill",
                    "score": "scoring.estimate_fisher"}
        grads = {key: [] for key in contexts}
        for i in table.indices("numcore.gradients"):
            enclosing = list(ancestors(table.spans, i))
            key = next((k for k, span in contexts.items() if span in enclosing), None)
            if key is not None:
                grads[key].append(table.duration_ns(i))
        for key, durations in grads.items():
            out.add(f"numcore.gradients_s.{key}", sum(durations) / 1e9, "s",
                    len(durations))
            out.add(f"numcore.gradients_calls.{key}", len(durations), "count", 1)
        table.add_total(out, "toymodel.save_model")
        table.add_total(out, "toymodel.load_model")
        table.add_calls(out, "scoring.estimate_fisher")
        table.add_total(out, "scoring.estimate_fisher")
        table.add_total(out, "budget.allocate")
        out.add("budget.rounding_error",
                float(np.mean([r.rounding_error for r in self.runs])), "ratio",
                len(self.runs))
        table.add_total(out, "factorize.reconstructed_reference")
        for fn in ("distill", "pretrain"):
            name = f"recover.{fn}"
            table.add_total(out, name)
            out.add(f"{name}_self_s", table.self_s(name), "s", table.calls(name))
        table.add_total(out, "analyze.sweep")
        table.add_calls(out, "analyze.measure_forward")
        for fn in ("check_commutativity", "check_greedy_optimality",
                   "check_loss_bound"):
            table.add_total(out, f"verify.{fn}")
        for command in CLI_COMMANDS:
            table.add_total(out, f"cli.{command}")


# -- a workload: decode rounds and pipeline seeds, interleaved ---------------


class Workload:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir

    def run(self, import_s: float, seconds: float | None, rec=None) -> Outcome:
        """Untraced pass (``rec`` None), or one traced round and seed.

        Each pass starts from fresh parts, so the traced pass does not count
        the untraced pass's requests.
        """
        out = Outcome()
        traced = rec is not None
        rec = rec if traced else NullRecorder()
        decode = DecodePart(self.name, self.seed)
        pipeline = PipelinePart(self.seed, self.workdir)

        def setup():
            t0 = time.perf_counter()
            decode.setup(rec)
            pipeline.setup(rec)
            return time.perf_counter() - t0

        setups = [setup()]
        while not traced and (len(setups) < SETUP_REPEATS
                              or sum(setups) < SETUP_SECONDS):
            setups.append(setup())

        least = (1, 1) if traced else (MIN_ROUNDS[self.name], MIN_SEEDS)
        t0 = time.perf_counter()
        while True:
            done = (decode.rounds, len(pipeline.runs))
            if done[0] >= least[0] and done[1] >= least[1] and (
                    traced or time.perf_counter() - t0 >= seconds):
                break
            # interleave in proportion to the minimums
            part, times = ((decode, out.round_s)
                           if done[0] * least[1] <= done[1] * least[0]
                           else (pipeline, out.seed_s))
            t1 = time.perf_counter()
            part.unit(rec)
            times.append(time.perf_counter() - t1)
        # before the checks, whose reference prefills run over more tokens
        rss = peak_rss_mb()
        if traced:
            pipeline.bound_check()

        with rec.pause():
            errors = decode.check(traced)
        out.failures = ["; ".join(e) for e in errors if e]
        attempted, failures = pipeline.check()
        out.attempted = len(decode.requests) + attempted
        out.failures += failures
        if traced:
            table = SpanTable(rec)
            decode.per_layer(out, table)
            pipeline.per_layer(out, table)
            for name in ("rope.column_arrays", "rope.angle_tables",
                         "toymodel.forward_prefill"):
                table.add_calls(out, name)
                table.add_total(out, name)
            table.add_total(out, "factorize.build_compressed")
        else:
            out.timing("setup_s", [import_s + s for s in setups], "s", 1.0, q=50)
            out.add("peak_rss_mb", rss, "MiB", 1)
            decode.end_to_end(out)
            pipeline.end_to_end(out)
        return out


def _retained(method: str) -> float:
    return 1.0 if method == "baseline" else 1.0 - RHO


def _read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}


def trace_pass(workload: Workload, import_s: float) -> tuple[Outcome, Recorder]:
    """One round and one seed with every target wrapped."""
    rec = Recorder()
    with patched(rec, trace_targets(), package="rapkit"):
        outcome = workload.run(import_s, None, rec)
    return outcome, rec
