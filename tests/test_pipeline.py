"""End-to-end quantize runs and alpha sweeps on tiny models."""
import copy
import json
import weakref
from collections import Counter
from dataclasses import asdict, fields, replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from malformed_inputs import TOY, run_capped

import oacal.pipeline as pipeline
import oacal.tinylm as tinylm
from oacal.archive import archive_read
from oacal.calibrate import STAGES, CalibSpec
from oacal.cli import main
from oacal.errors import ConfigError, NonFinite, NotPositiveDefinite
from oacal.pipeline import (
    REPORT_SCHEMA,
    RunConfig,
    load_token_streams,
    run_alpha_sweep,
    run_quantize,
    write_run,
)
from oacal.quant import layer_from_tensors
from oacal.tinylm import ModelConfig, init_model, load_checkpoint, save_checkpoint

CORPUS = str(Path(__file__).resolve().parents[1] / "data" / "tiny_corpus.txt")
CONFIG = ModelConfig(vocab_size=128, d_model=16, d_ff=32, n_blocks=3, context_length=32)
N_WINDOWS = 3


def block_forwards_per_chunk(method: str, n: int) -> tuple[int, int]:
    """Block forwards and heads one chunk of calibration windows costs for `n` blocks.

    RTN builds no Hessian and runs none. Every other method runs each block
    once; only an adaptive harvest, which backpropagates from the loss,
    also runs the head.
    """
    return (0, 0) if method == "RTN" else (n, int(method.startswith("OAC_")))


def rms_backwards_per_chunk(method: str, n: int) -> int:
    """RMS-norm backwards one chunk of calibration windows costs for `n` blocks:
    an adaptive harvest backpropagates through the head's norm and both norms
    of every block but block 0's attention norm, which only the gradient of
    block 0's input would need; no other method runs a backward."""
    return 2 * n if method.startswith("OAC_") else 0


def n_chunks(n_windows: int, backward: bool) -> int:
    """Stacked passes over `n_windows` windows of CONFIG's context, by the walk's own rule."""
    return len(tinylm._chunks(CONFIG, n_windows, CONFIG.context_length, backward))


@pytest.fixture
def counted(monkeypatch):
    counts = Counter()

    def count(key, module, name):
        original = getattr(module, name)

        def wrapper(*args):
            counts[key] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    count("block", tinylm, "block_forward")
    count("head", tinylm, "_logits")
    count("rms_backward", tinylm, "_rms_backward")
    count("harvest", pipeline, "harvest_block_gradients")
    count("collect", pipeline, "collect_agnostic_accumulators")
    return counts


def assert_archive_reloads(out: Path) -> None:
    """Every layer in `layers.oack` rebuilds the installed weights bit for
    bit, a double-quantized one with its statistics' codes, one row per
    column group. The report validates
    against `REPORT_SCHEMA`, each layer's `disk_bits` is its accounted bits
    plus its labelled extras, and the report's `disk_bits_per_weight` is the
    archive's size over the weights."""
    meta = json.loads((out / "layers.json").read_text())
    tensors = archive_read(out / "layers.oack")
    installed = load_checkpoint(out / "quantized.oack")
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert sorted(meta) == sorted(tinylm.quantizable_layers(installed))
    for name, layer_meta in meta.items():
        layer = layer_from_tensors(name, tensors, layer_meta)
        assert layer.dequantize().astype(np.float32).tobytes() == (
            installed.params[name].astype(np.float32).tobytes()
        )
        if layer_meta.get("double_quantized"):
            assert layer.scale_codes.shape == layer.scales.shape[::-1]
    for layer_report in report["layer_reports"]:
        account = meta[layer_report["layer"]]["accounting"]
        charged = account["weight_bits"] + account["stats_bits"] + account["outlier_bits"]
        assert layer_report["disk_bits"] == charged + sum(layer_report["disk_extra_bits"].values())
    n_weights = sum(m["d_row"] * m["d_col"] for m in meta.values())
    size = (out / "layers.oack").stat().st_size
    assert report["disk_bits_per_weight"] == 8.0 * size / n_weights
    assert 8 * size == 8 * 12 + sum(r["disk_bits"] for r in report["layer_reports"])


@pytest.mark.parametrize("method", ["RTN", "SpQR", "OAC_OPTQ", "Binary_BiLLM_style"])
def test_quantize_run(method, tmp_path, counted):
    checkpoint = tmp_path / "tiny.oack"
    save_checkpoint(init_model(CONFIG, seed=0), checkpoint)
    config = RunConfig(
        checkpoint=str(checkpoint),
        corpus_train=CORPUS,
        corpus_valid=CORPUS,
        corpus_test=CORPUS,
        out_dir=str(tmp_path / "out"),
        method=method,
        n_calibration_samples=N_WINDOWS,
    )
    write_run(run_quantize(config), config.out_dir)
    out = tmp_path / "out"

    report = json.loads((out / "report.json").read_text())
    assert report["method"] == method
    # every layer times its stages, inside the calibration phase; RTN has only its sweep
    stages = [r["stage_seconds"] for r in report["layer_reports"]]
    assert all(set(s) == set(STAGES) for s in stages)
    assert sum(sum(s.values()) for s in stages) <= report["phase_seconds"]["phase2_calibration"]
    if method == "RTN":
        assert all(s["factorization"] == s["plan"] == s["guard"] == 0.0 for s in stages)

    assert_archive_reloads(out)

    # eval runs forward-only whole-model passes over chunks of non-overlapping windows
    ctx = CONFIG.context_length
    streams = load_token_streams(config)
    eval_chunks = sum(
        n_chunks(len(range(0, streams[s].shape[0] - ctx + 1, ctx)), backward=False)
        for s in ("valid", "test")
    )
    calib_chunks = n_chunks(N_WINDOWS, backward=method.startswith("OAC_"))
    blocks, heads = block_forwards_per_chunk(method, CONFIG.n_blocks)
    assert counted["block"] == calib_chunks * blocks + eval_chunks * CONFIG.n_blocks
    assert counted["head"] == calib_chunks * heads + eval_chunks
    backwards = rms_backwards_per_chunk(method, CONFIG.n_blocks)
    assert counted["rms_backward"] == calib_chunks * backwards
    assert counted["harvest"] == method.startswith("OAC_")
    assert counted["collect"] == (method != "RTN" and not method.startswith("OAC_"))


@pytest.mark.parametrize("method", ["RTN", "SpQR", "OAC_OPTQ"])
def test_ragged_groups_reload(method, tmp_path):
    """group_size 15 leaves a one-column tail group in every 16-wide layer
    (and a two-column one in the 32-wide ones); those groups are coded by
    the one affine rule, charged whole and stored without a per-group
    minimum."""
    checkpoint = tmp_path / "tiny.oack"
    save_checkpoint(init_model(CONFIG, seed=0), checkpoint)
    config = RunConfig(
        checkpoint=str(checkpoint),
        corpus_train=CORPUS,
        corpus_valid=CORPUS,
        corpus_test=CORPUS,
        out_dir=str(tmp_path / "out"),
        method=method,
        group_size=15,
        n_calibration_samples=N_WINDOWS,
    )
    write_run(run_quantize(config), config.out_dir)
    out = tmp_path / "out"
    assert_archive_reloads(out)
    assert not [k for k in archive_read(out / "layers.oack") if k.startswith("mins/")]


def test_calib_spec_and_run_config_share_defaults():
    spec = {f.name: f.default for f in fields(CalibSpec)}
    run = {f.name: f.default for f in fields(RunConfig)}
    shared = spec.keys() & run.keys()
    assert "salient_fraction" in shared
    assert {k: spec[k] for k in shared} == {k: run[k] for k in shared}


COLLECTORS = [("OPTQ", "collect_agnostic_accumulators"), ("OAC_OPTQ", "harvest_block_gradients")]


def collector_config(tmp_path, method):
    checkpoint = tmp_path / "tiny.oack"
    save_checkpoint(init_model(CONFIG, seed=0), checkpoint)
    return RunConfig(
        checkpoint=str(checkpoint),
        corpus_train=CORPUS,
        corpus_valid=CORPUS,
        corpus_test=CORPUS,
        out_dir=str(tmp_path / "out"),
        method=method,
        n_calibration_samples=N_WINDOWS,
    )


@pytest.mark.parametrize("method", pipeline.METHODS)
def test_layer_reports_name_the_hessian_flavour(method, tmp_path):
    """Each layer report echoes its method's Hessian flavour, RTN's included,
    and the run's report validates against `REPORT_SCHEMA`."""
    report = run_quantize(collector_config(tmp_path, method)).report
    flavour = "adaptive" if method.startswith("OAC_") else "agnostic"
    assert [r["hessian_mode"] for r in report.layer_reports] == [flavour] * 6 * CONFIG.n_blocks
    jsonschema.validate(asdict(report), REPORT_SCHEMA)


def test_a_new_hessian_is_a_table_row(tmp_path, monkeypatch):
    """A Hessian no method uses, a 4x agnostic Gram, enters through
    `_HESSIANS` and a method row alone. Scaling by a power of two is exact
    through damping, Cholesky and the sweep, so each method writes the
    agnostic Gram's archive tensors and valid perplexity, every proxy error
    is exactly 4x and the column updates are equal; its reports name the row."""

    def gram_4x(model, windows):
        accs = pipeline.collect_agnostic_accumulators(model, windows)
        for acc in {id(a): a for a in accs.values()}.values():  # shared ones once
            acc.sum *= 4.0
        return accs

    monkeypatch.setitem(pipeline._HESSIANS, "agnostic_4x", (gram_4x, np.float32))
    for method in ("OPTQ", "SpQR", "Binary_BiLLM_style"):
        config = RunConfig(checkpoint=str(TOY), corpus_train=CORPUS, corpus_valid=CORPUS,
                           corpus_test=CORPUS, out_dir=str(tmp_path), method=method,
                           n_calibration_samples=16, seed=3)
        base = run_quantize(config)
        backend, _ = pipeline._METHOD_TABLE[method]
        monkeypatch.setitem(pipeline._METHOD_TABLE, method, (backend, "agnostic_4x"))
        scaled = run_quantize(config)
        assert scaled.tensors.keys() == base.tensors.keys()
        for key, value in base.tensors.items():
            assert scaled.tensors[key].tobytes() == value.tobytes(), (method, key)
        assert scaled.report.valid_perplexity == base.report.valid_perplexity
        for s, b in zip(scaled.report.layer_reports, base.report.layer_reports, strict=True):
            assert s["proxy_error"] == 4.0 * b["proxy_error"], (method, s["layer"])
            assert s["column_update_norms"] == b["column_update_norms"], (method, s["layer"])
            assert (s["hessian_mode"], b["hessian_mode"]) == ("agnostic_4x", "agnostic")


def test_malformed_inputs_fail_typed(tmp_path):
    """The seeded sweep of `malformed_inputs` over a small SpQR, OAC_Binary
    and OPTQ toy run: every case raises an OacalError or loads, in a child
    capped at 1 GiB of address space."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(Path(CORPUS).read_bytes()[:20_000])
    runs = []
    for method in ("SpQR", "OAC_Binary", "OPTQ"):
        config = RunConfig(checkpoint=str(TOY), corpus_train=str(corpus), corpus_valid=str(corpus),
                           corpus_test=str(corpus), out_dir=str(tmp_path / method), method=method,
                           n_calibration_samples=4)
        write_run(run_quantize(config), config.out_dir)
        runs.append(config.out_dir)
    result = run_capped("malformed_inputs", *runs)
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(result.stdout) == {"cases": 938, "failures": []}


@pytest.fixture(scope="module")
def binary_report(tmp_path_factory):
    """A guarded binary run's report, whose layers carry the guard's and the
    binary plan's optional keys."""
    config = collector_config(tmp_path_factory.mktemp("binary"), "OAC_Binary")
    return asdict(run_quantize(config).report)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda r: r["layer_reports"][0].update(proxy_eror=0.0),
        lambda r: r["layer_reports"][0].pop("backend"),
        lambda r: r["layer_reports"][0].update(fallback="compensation"),
        *(lambda r, k=k: r["phase_seconds"].pop(k)
          for k in ("phase1_hessians", "phase2_calibration", "eval", "total")),
        lambda r: r["phase_seconds"].update(eval=-1.0),
        lambda r: r["config"].pop("seed"),
    ],
    ids=["unknown-layer-key", "layer-without-backend", "unknown-fallback",
         "no-phase1_hessians", "no-phase2_calibration", "no-eval", "no-total",
         "negative-phase", "config-without-seed"],
)
def test_schema_rejects(binary_report, mutate):
    """A key the layer table lacks, a missing required key or a value out of
    range fails `REPORT_SCHEMA`; the unmutated report passes."""
    jsonschema.validate(binary_report, REPORT_SCHEMA)
    report = copy.deepcopy(binary_report)
    mutate(report)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report, REPORT_SCHEMA)


def test_split_follows_the_file_not_its_spelling(monkeypatch):
    """Validation and test paths that name the training file in another
    spelling still get the 80/10/10 split, not the whole file."""
    monkeypatch.chdir(Path(CORPUS).parent)
    spelled = {"corpus_train": CORPUS, "corpus_valid": "./tiny_corpus.txt",
               "corpus_test": "../data/tiny_corpus.txt"}
    streams = {}
    for name, paths in (("same", dict.fromkeys(spelled, CORPUS)), ("spelled", spelled)):
        config = RunConfig(checkpoint="unused.oack", out_dir="unused", **paths)
        streams[name] = {k: v.tobytes() for k, v in load_token_streams(config).items()}
    whole = tinylm.tokenize(Path(CORPUS).read_bytes()).tobytes()
    assert len(streams["same"]["train"]) < len(whole)
    assert streams["spelled"] == streams["same"]


@pytest.mark.parametrize("method, collector", COLLECTORS)
def test_collects_once_before_calibrating(tmp_path, monkeypatch, method, collector):
    events = []
    collect, calibrate = getattr(pipeline, collector), pipeline.calibrate_layer
    monkeypatch.setattr(pipeline, collector, lambda *a: events.append("collect") or collect(*a))
    monkeypatch.setattr(pipeline, "calibrate_layer", lambda *a: events.append("layer") or calibrate(*a))
    run_quantize(collector_config(tmp_path, method))
    assert events == ["collect"] + ["layer"] * CONFIG.n_blocks * len(tinylm.block_layer_names(0))


@pytest.mark.parametrize("method, collector", COLLECTORS)
def test_collector_parameter_dtype(tmp_path, monkeypatch, method, collector):
    """The agnostic collector runs on the float32 model (its sums stay
    float64); the OAC harvest runs on the float64 one."""
    dtypes = []
    collect = getattr(pipeline, collector)

    def record(model, windows):
        dtypes.append({v.dtype for v in model.params.values()})
        return collect(model, windows)

    monkeypatch.setattr(pipeline, collector, record)
    run_quantize(collector_config(tmp_path, method))
    expected = {"collect_agnostic_accumulators": np.float32, "harvest_block_gradients": np.float64}
    assert dtypes == [{np.dtype(expected[collector])}]


@pytest.mark.parametrize("method, dtype", [("RTN", np.float32), ("OPTQ", np.float32),
                                           ("OAC_OPTQ", np.float64)])
def test_checkpoint_is_read_in_its_hessians_dtype(tmp_path, monkeypatch, method, dtype):
    """The first load reads the checkpoint in the dtype its Hessian is
    collected in, so an agnostic or RTN run never builds a float64 model;
    a later alpha reloads it as float32."""
    dtypes = []
    load = pipeline.load_checkpoint

    def record(path, dtype=np.float64):
        model = load(path, dtype)
        dtypes.append({v.dtype for v in model.params.values()})
        return model

    monkeypatch.setattr(pipeline, "load_checkpoint", record)
    run_quantize(collector_config(tmp_path, method), (0.01, 0.1))
    assert dtypes == [{np.dtype(dtype)}, {np.dtype(np.float32)}]


@pytest.mark.parametrize("method, collector", COLLECTORS)
def test_run_drops_each_block_hessians_once_calibrated(tmp_path, monkeypatch, method, collector):
    """All layers are collected up front. On a lone alpha, a layer's
    accumulator is gone by the time the layer is calibrated, unless a later
    layer reads the same one (the agnostic wq, wk and wv share theirs); in a
    grid every accumulator lives through the earlier alphas and the last
    alpha drops them the same way."""
    harvested = {}
    shared_with = {}
    alive = {}
    collect, calibrate = getattr(pipeline, collector), pipeline.calibrate_layer

    def keep_refs(*args):
        accs = collect(*args)
        harvested.update({name: weakref.ref(acc) for name, acc in accs.items()})
        shared_with.update({name: {m for m in accs if accs[m] is acc} for name, acc in accs.items()})
        return accs

    def count_alive(w, h, spec, name):
        alive[spec.alpha, name] = sorted(n for n, ref in harvested.items() if ref() is not None)
        return calibrate(w, h, spec, name)

    monkeypatch.setattr(pipeline, collector, keep_refs)
    monkeypatch.setattr(pipeline, "calibrate_layer", count_alive)
    config = collector_config(tmp_path, method)
    names = tinylm.quantizable_layers(load_checkpoint(config.checkpoint))
    for grid in (None, (0.1, 0.01)):
        harvested.clear()
        alive.clear()
        run_quantize(config, grid)
        *earlier, last = [config.alpha] if grid is None else sorted(grid)
        for alpha in earlier:
            assert [alive[alpha, name] for name in names] == [sorted(names)] * len(names)
        for i, name in enumerate(names):
            later = set(names[i + 1 :])
            assert alive[last, name] == sorted(n for n in names if shared_with[n] & later)
            if method.startswith("OAC_"):
                assert name not in alive[last, name]
        assert all(ref() is None for ref in harvested.values())


def test_layer_failure_keeps_its_type(tmp_path):
    """One window gives blk0.mlp.fc2 (32 inputs, 16 outputs) an adaptive
    Hessian of rank at most 16, which an undamped run cannot factorize; the
    error names the layer and keeps the type the CLI maps to exit code 2."""
    config = replace(collector_config(tmp_path, "OAC_OPTQ"), alpha=0.0, n_calibration_samples=1)
    with pytest.raises(NotPositiveDefinite, match=r"^layer 'blk0\.mlp\.fc2': "):
        run_quantize(config)


@pytest.fixture
def sweep_config(tmp_path):
    """OAC_OPTQ (or `method`) on a 2-block model; a 20 kB corpus keeps each eval short."""
    checkpoint = tmp_path / "tiny.oack"
    save_checkpoint(init_model(replace(CONFIG, n_blocks=2), seed=0), checkpoint)
    corpus = tmp_path / "corpus.txt"
    corpus.write_bytes(Path(CORPUS).read_bytes()[:20_000])

    def make(grid, method="OAC_OPTQ"):
        return RunConfig(
            checkpoint=str(checkpoint),
            corpus_train=str(corpus),
            corpus_valid=str(corpus),
            corpus_test=str(corpus),
            out_dir=str(tmp_path / "out"),
            method=method,
            n_calibration_samples=N_WINDOWS,
            alpha_grid=tuple(grid),
        )

    return make


def score_by_call(monkeypatch, ppl):
    """Route the run's perplexity calls through `ppl(call_index)`, keeping a
    weak reference to every model scored; returns that list."""
    scored = []

    def fake(model, tokens):
        scored.append(weakref.ref(model))
        return ppl(len(scored) - 1)

    monkeypatch.setattr(pipeline, "perplexity", fake)
    return scored


@pytest.mark.parametrize(
    "method, collector",
    [("OAC_OPTQ", "harvest_block_gradients"), ("OPTQ", "collect_agnostic_accumulators")],
)
def test_sweep_collects_once(sweep_config, monkeypatch, method, collector):
    """Either flavour collects every layer once per sweep and scores each
    alpha on the validation stream; only the winner is scored on test."""
    grid = [0.001, 0.1, 1.0]
    calls = []
    evals = []
    original, score = getattr(pipeline, collector), pipeline.perplexity
    monkeypatch.setattr(pipeline, collector, lambda *a: calls.append(1) or original(*a))
    monkeypatch.setattr(pipeline, "perplexity", lambda *a: evals.append(1) or score(*a))
    config = sweep_config(grid, method)
    result = run_alpha_sweep(config)
    assert len(calls) == 1
    assert len(evals) == len(grid) + 1

    phase1 = {result["candidates"][a]["report"]["phase_seconds"]["phase1_hessians"] for a in grid}
    assert len(phase1) == 1  # every candidate reports the one collection
    for a in grid:  # each candidate is the lone run, timings and a loser's test eval apart
        shared = result["candidates"][a]["report"]
        alone = asdict(run_quantize(replace(config, alpha=a)).report)
        assert set(shared["phase_seconds"]) == set(alone["phase_seconds"]) == {
            "phase1_hessians", "phase2_calibration", "eval", "total"}
        if a != result["best_alpha"]:
            assert shared["test_perplexity"] is None
            alone["test_perplexity"] = None
        for r in (shared, alone):  # timings
            r["phase_seconds"] = None
            for layer_report in r["layer_reports"]:
                layer_report.pop("stage_seconds")
        assert shared == alone


def test_sweep_collection_failure_raises_once(sweep_config, monkeypatch, tmp_path):
    """A failed harvest (block 0's Hessians among every layer's) is met once,
    with its own type and, through the CLI, its own exit code; nothing is
    written."""
    calls = []

    def fail(model, windows):
        calls.append(1)
        raise NonFinite("forced")

    monkeypatch.setattr(pipeline, "harvest_block_gradients", fail)
    config = sweep_config([0.001, 0.1, 1.0])
    with pytest.raises(NonFinite, match="^forced$"):
        run_alpha_sweep(config)
    assert len(calls) == 1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(asdict(config)), encoding="utf-8")
    assert main(["sweep-alpha", "--config", str(path)]) == 2
    assert len(calls) == 2
    assert not Path(config.out_dir).exists()


def test_sweep_one_alpha_grid(sweep_config):
    config = sweep_config([0.5])
    result = run_alpha_sweep(config)
    assert result["best_alpha"] == 0.5
    assert result["candidates"][0.5]["status"] == "ok"
    report = json.loads((Path(config.out_dir) / "report.json").read_text())
    assert report["config"]["alpha"] == 0.5


def test_sweep_runs_each_alpha_once_and_writes_the_winner(sweep_config, monkeypatch):
    grid = [0.001, 0.01, 0.1]
    calibrated = Counter()
    alive_at_start = []
    calibrate = pipeline.calibrate_layer
    # validation perplexities 5, 6, 7: the first alpha wins and the later two
    # lose; a rerun of the winner would write a later call's value, not 5
    scored = score_by_call(monkeypatch, lambda call: 5.0 + call)

    def counted(w, h, spec, name):
        if not calibrated[spec.alpha]:  # the alpha's first layer
            alive_at_start.append(sum(r() is not None for r in scored))
        calibrated[spec.alpha] += 1
        return calibrate(w, h, spec, name)

    monkeypatch.setattr(pipeline, "calibrate_layer", counted)
    config = sweep_config(grid)
    result = run_alpha_sweep(config)
    assert set(result["candidates"]) == set(grid)
    assert result["best_alpha"] == 0.001
    n_layers = 2 * len(tinylm.block_layer_names(0))
    assert calibrated == {a: n_layers for a in grid}  # no rerun of the winner
    assert alive_at_start == [0, 1, 1]  # only the best run so far is held

    out = Path(config.out_dir)
    report = json.loads((out / "report.json").read_text())
    assert report == result["candidates"][result["best_alpha"]]["report"]
    assert (report["valid_perplexity"], report["test_perplexity"]) == (5.0, 8.0)
    assert json.loads((out / "sweep.json").read_text())["best_alpha"] == result["best_alpha"]
    assert len((out / "summary.csv").read_text().splitlines()) == 2


def test_sweep_tie_goes_to_smaller_alpha(sweep_config, monkeypatch):
    score_by_call(monkeypatch, lambda call: 7.0)
    assert run_alpha_sweep(sweep_config([1.0, 0.01]))["best_alpha"] == 0.01


def fail_calibration(monkeypatch, alphas):
    """Make calibrate_layer raise NotPositiveDefinite for the given alphas."""
    calibrate = pipeline.calibrate_layer

    def fail(w, h, spec, name):
        if spec.alpha in alphas:
            raise NotPositiveDefinite("forced")
        return calibrate(w, h, spec, name)

    monkeypatch.setattr(pipeline, "calibrate_layer", fail)


def test_sweep_skips_failing_candidate(sweep_config, monkeypatch):
    fail_calibration(monkeypatch, {0.001})
    result = run_alpha_sweep(sweep_config([0.001, 3.0]))
    first = tinylm.block_layer_names(0)[0]
    assert result["candidates"][0.001] == {"status": "failed", "error": f"layer {first!r}: forced"}
    assert result["candidates"][3.0]["status"] == "ok"
    assert result["best_alpha"] == 3.0


def test_sweep_all_candidates_failing_raises(sweep_config, monkeypatch):
    fail_calibration(monkeypatch, {0.0, 0.001})
    config = sweep_config([0.0, 0.001])
    with pytest.raises(ConfigError):
        run_alpha_sweep(config)
    assert not Path(config.out_dir).exists()
