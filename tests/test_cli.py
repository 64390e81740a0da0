import json
import re
import warnings

import numpy as np
import pytest

from sectes.cli import (ExperimentConfig, build_config, dumps_canonical,
                        enumerate_jobs, load_model, main, parse_config,
                        run_suite, save_model, stable_seed)
from sectes.baselines import grnn_fit, pls_fit
from sectes.ctes import TrainConfig, synthesize_each, train_ctes
from sectes.datagen import (PairedDataset, SimConfig,
                            gen_multivariate_dataset, read_dataset_csv)
from sectes.ensemble import EnsembleConfig, train_se_ctes
from sectes.errors import ConfigError, ModelFormatError
from sectes.forest import ForestConfig
from sectes.validation import sample_model


def small_dataset(seed=0, n=60):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, size=(n, 2))
    y = np.hstack([x.sum(axis=1, keepdims=True),
                   x.prod(axis=1, keepdims=True)]) \
        + 0.02 * rng.standard_normal((n, 2))
    return PairedDataset(x=x, y=y, groups=np.ones(n, int), n_groups=1)


def test_empty_config_fills_published_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    cfg = parse_config(path)
    assert cfg.train.beta == 0.9
    assert cfg.train.batch_size == 50
    assert cfg.train.iterations == 1000
    assert (cfg.ensemble.k, cfg.ensemble.h) == (5, 2)
    assert cfg.sigmas == [0.01, 0.03, 0.05, 0.07, 0.09]
    assert cfg.groups == [2, 3, 4]


def test_config_rejects_k_not_exceeding_2h():
    with pytest.raises(ConfigError, match="k"):
        build_config({"ensemble": {"k": 4, "h": 2}})


def test_config_rejects_bad_sigma_and_method():
    with pytest.raises(ConfigError, match="sigmas"):
        build_config({"sigmas": [0.01, -0.5]})
    with pytest.raises(ConfigError, match="methods"):
        build_config({"methods": ["pls", "wgan"]})


def test_config_rejects_unknown_fields_with_path():
    with pytest.raises(ConfigError, match="train.learning_rte"):
        build_config({"train": {"learning_rte": 0.1}})
    with pytest.raises(ConfigError, match="frobnicate"):
        build_config({"frobnicate": 1})


def test_config_two_point_sigma_sweep_accepted():
    cfg = build_config({"sigmas": [0.01, 0.09]})
    assert cfg.sigmas == [0.01, 0.09]


def test_config_invalid_json_reports_offset(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"study": ')
    with pytest.raises(ConfigError, match="offset"):
        parse_config(path)


def test_job_grid_size_matches_protocol():
    cfg = build_config({"trials": 5})
    jobs = enumerate_jobs(cfg)
    # 6 methods x 5 sigmas x 3 groups x 5 trials
    assert len(jobs) == 6 * 5 * 3 * 5


def test_beta_grid_adds_sweep_jobs():
    cfg = build_config({"methods": ["ctes"], "sigmas": [0.05], "trials": 1,
                        "groups": [4], "beta_grid": [0.5, 0.7, 0.9]})
    jobs = enumerate_jobs(cfg)
    labels = sorted({j["method"] for j in jobs})
    assert labels == ["ctes", "ctes[beta=0.5]", "ctes[beta=0.7]",
                      "ctes[beta=0.9]"]


def test_stable_seed_is_order_and_process_independent():
    a = stable_seed(1, "pls", 0.05, 3, 0)
    assert a == stable_seed(1, "pls", 0.05, 3, 0)
    assert a != stable_seed(1, "pls", 0.05, 3, 1)
    assert 0 <= a < 2 ** 63


def test_dumps_canonical_floats_round_trip():
    values = [1.0 / 3.0, 1e-300, 123456.789e10, 0.1 + 0.2]
    text = dumps_canonical({"v": values})
    back = json.loads(text)["v"]
    assert all(a == b for a, b in zip(back, values))


def test_ctes_model_round_trip(tmp_path):
    ds = small_dataset()
    model = train_ctes(ds, TrainConfig(iterations=30, batch_size=10, seed=3))
    x = np.repeat([[0.4, 0.6]], 5, 0)
    before = synthesize_each(model, x, rng=np.random.default_rng(1),
                             jitter=0.0)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    after = synthesize_each(loaded, x, rng=np.random.default_rng(1),
                            jitter=0.0)
    assert np.array_equal(before, after)
    assert np.array_equal(loaded.loss_d, model.loss_d)


def test_ensemble_model_round_trip_stores_members(tmp_path):
    ds = small_dataset()
    cfg = EnsembleConfig(k=3, h=1,
                         train=TrainConfig(iterations=15, batch_size=10),
                         clf=ForestConfig(n_trees=10), seed=5)
    ens = train_se_ctes(ds, cfg)
    path = tmp_path / "ens.json"
    save_model(ens, path)
    doc = json.loads(path.read_text())
    assert len(doc["payload"]["models"]) == 3
    assert doc["payload"]["selected"] == ens.selected
    assert len(doc["payload"]["scores"]) == 3
    loaded = load_model(path)
    assert loaded.selected == ens.selected
    rows = np.full((6, 2), 0.5)
    a = sample_model(loaded, rows, np.random.default_rng(2), jitter=0.0)
    b = sample_model(ens, rows, np.random.default_rng(2), jitter=0.0)
    assert np.array_equal(a, b)


def test_pls_grnn_model_round_trip(tmp_path):
    ds = small_dataset()
    for model in (pls_fit(ds.x, ds.y, 2), grnn_fit(ds.x, ds.y)):
        path = tmp_path / "m.json"
        save_model(model, path)
        loaded = load_model(path)
        rows = np.full((3, 2), 0.3)
        a = sample_model(loaded, rows, np.random.default_rng(0), 0.0)
        b = sample_model(model, rows, np.random.default_rng(0), 0.0)
        assert np.array_equal(a, b)


def test_load_rejects_unknown_version(tmp_path):
    path = tmp_path / "v99.json"
    path.write_text('{"format_version": 99, "payload": {}}')
    with pytest.raises(ModelFormatError, match="version"):
        load_model(path)


def test_load_rejects_corrupt_file_with_offset(tmp_path):
    path = tmp_path / "corrupt.json"
    path.write_text('{"format_version": 1, "payload": {"kind"')
    with pytest.raises(ModelFormatError, match="offset"):
        load_model(path)


def bench_config(tmp_path, out_name, workers=1):
    return build_config({
        "study": "multivariate",
        "sigmas": [0.05],
        "trials": 2,
        "methods": ["pls", "ctes"],
        "groups": [3],
        "samples_per_group": 40,
        "train": {"iterations": 25, "batch_size": 10},
        "forest": {"n_trees": 25},
        "master_seed": 77,
        "workers": workers,
        "out_dir": str(tmp_path / out_name),
    })


def test_bench_reports_are_deterministic(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        m1 = run_suite(bench_config(tmp_path, "a"))
        m2 = run_suite(bench_config(tmp_path, "b"))
        m4 = run_suite(bench_config(tmp_path, "c", workers=4))
    assert m1["n_failed"] == 0
    assert m1["config_hash"] != ""
    for name in ("multivariate_trials.csv", "multivariate_summary.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        c = (tmp_path / "c" / name).read_bytes()
        assert a == b == c
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["n_jobs"] == 4
    assert all(j["status"] == "ok" for j in manifest["jobs"])


def test_bench_failure_is_recorded_not_fatal(tmp_path):
    cfg = bench_config(tmp_path, "fail")
    cfg.groups = [3, 9]  # group 9 does not exist
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        manifest = run_suite(cfg)
    assert manifest["n_failed"] == 4  # 2 methods x 2 trials for group 9
    failed = [j for j in manifest["jobs"] if j["status"] == "failed"]
    assert all(j["group"] == 9 for j in failed)
    assert all(j["error"] for j in failed)


def test_simulate_and_report_subcommands(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sigmas": [0.05], "samples_per_group": 10, "master_seed": 5}))
    out = tmp_path / "sim"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out", str(out)]) == 0
    ds = read_dataset_csv(out / "multivariate_sigma0.05.csv")
    assert ds.n_samples == 50

    trials = tmp_path / "trials.csv"
    trials.write_text(
        "method,sigma,group,trial,A1,A2,TP,FP,FN,TN\n"
        "pls,0.05,3,0,0.8,1.0,8,2,0,20\n"
        "pls,0.05,3,1,1.0,1.0,10,0,0,20\n")
    summary = tmp_path / "summary.csv"
    assert main(["report", "--inputs", str(trials),
                 "--out", str(summary)]) == 0
    lines = summary.read_text().splitlines()
    assert lines[0] == "method,sigma,group,A1,A1_std,A2,A2_std"
    cells = lines[1].split(",")
    assert float(cells[3]) == pytest.approx(0.9)


def test_train_synth_validate_subcommands(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sigmas": [0.05], "samples_per_group": 20,
        "train": {"iterations": 20, "batch_size": 10},
        "forest": {"n_trees": 20}, "master_seed": 9}))
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", str(cfg_path), "--method", "pls",
                 "--out", str(model_path)]) == 0
    synth_path = tmp_path / "synth.csv"
    assert main(["synth", "--model", str(model_path), "--x", "0.5,0.5",
                 "--count", "4", "--out", str(synth_path)]) == 0
    rows = synth_path.read_text().splitlines()
    assert rows[0] == "y1,y2,y3,y4,y5,y6"
    assert len(rows) == 5
    assert main(["validate", "--config", str(cfg_path), "--method", "pls",
                 "--group", "3"]) == 0


def test_se_ctes_synth_serves_count_below_h(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sigmas": [0.05], "samples_per_group": 20,
        "train": {"iterations": 5, "batch_size": 10},
        "forest": {"n_trees": 3}, "master_seed": 9}))
    model_path = tmp_path / "model.json"
    assert main(["train", "--config", str(cfg_path), "--method", "se-ctes",
                 "--out", str(model_path)]) == 0
    synth_path = tmp_path / "synth.csv"
    assert main(["synth", "--model", str(model_path), "--x", "0.5,0.5",
                 "--count", "1", "--out", str(synth_path)]) == 0
    rows = synth_path.read_text().splitlines()
    assert rows[0] == "y1,y2,y3,y4,y5,y6"
    assert len(rows) == 2


def test_main_reports_config_errors(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"ensemble": {"k": 4, "h": 2}}))
    assert main(["bench", "--config", str(cfg_path)]) == 2


# --- malformed input: every case names its field and exits 2 ---

MALFORMED_CONFIGS = [
    ({"train": {"iterations": "abc"}}, "train.iterations: expected int, got 'abc'"),
    ({"trials": "x"}, "trials: expected int, got 'x'"),
    ({"groups": 5}, "groups: expected list, got 5"),
    ({"train": 3}, "train: expected object, got 3"),
    ({"train": {"learning_rate": -1}}, "train: learning_rate must be > 0"),
    ({"forest": {"n_treez": 5}}, "forest.n_treez: unknown field"),
    ({"sigmas": [0.1, "a"]}, "sigmas[1]: expected finite float, got 'a'"),
    ({"train": {"jitter": 10 ** 400}}, "train.jitter: expected finite float"),
    ({"train": {"conv_channels": [8, 16.5]}},
     "train.conv_channels[1]: expected int, got 16.5"),
    ({"fresh_data_per_trial": 1}, "fresh_data_per_trial: expected bool, got 1"),
    ({"data_csv": 5}, "data_csv: expected str, got 5"),
    ({"ensemble": {"k": 4, "h": 2}}, "ensemble: k must exceed 2*h"),
    ({"gp": {"grid": 1}}, "gp: grid side must be >= 2"),
    ({"workers": 0}, "workers: must be >= 1"),
]


@pytest.mark.parametrize("raw,message", MALFORMED_CONFIGS)
def test_malformed_config_names_field(raw, message):
    with pytest.raises(ConfigError) as info:
        build_config(raw)
    assert str(info.value).startswith(message)


def _single_error_line(capsys, *needles):
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err
    for needle in needles:
        assert needle in lines[0]


@pytest.mark.parametrize("raw,message", MALFORMED_CONFIGS)
def test_malformed_config_exits_2(tmp_path, capsys, raw, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["bench", "--config", str(path)]) == 2
    _single_error_line(capsys, message)


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"train": {"jitter": NaN}}')
    assert main(["validate", "--config", str(path), "--method", "pls",
                 "--group", "2"]) == 2
    _single_error_line(capsys, "train.jitter: expected finite float")


def test_negative_learning_rate_rejected():
    with pytest.raises(ConfigError, match="learning_rate"):
        build_config({"train": {"learning_rate": -1.0}})
    with pytest.raises(ConfigError, match="learning_rate"):
        TrainConfig(learning_rate=0.0)


def _saved(tmp_path, model, name="m.json"):
    path = tmp_path / name
    save_model(model, path)
    return path, json.loads(path.read_text())


def _tiny_ensemble():
    return train_se_ctes(small_dataset(), EnsembleConfig(
        k=3, h=1, train=TrainConfig(iterations=2, batch_size=10),
        clf=ForestConfig(n_trees=3), seed=1))


def _drop(key):
    return lambda d: d.pop(key)


def _set(key, value):
    return lambda d: d.__setitem__(key, value)


TRUNCATED_PAYLOADS = [
    ("pls", lambda p: p.pop("coef"), "payload.coef: missing field"),
    ("pls", lambda p: p.__setitem__("n_components", 1.5),
     "payload.n_components: expected int"),
    ("grnn", lambda p: p.__setitem__("bandwidth", "wide"),
     "payload.bandwidth: expected finite float"),
    ("grnn", lambda p: p["train_x"].append([1.0]),
     "payload.train_x: expected array of numbers"),
    ("ctes", lambda p: p["generator"].pop("norm"),
     "payload.generator.norm: missing field"),
    ("ctes", lambda p: p["generator"]["mixer"]["spec"][0].pop("kind"),
     "payload.generator.mixer.spec[0].kind: missing field"),
    ("ctes", lambda p: p["discriminator"]["head"]["layers"][1].__setitem__(
        "b", ["x"]), "payload.discriminator.head.layers[1].b: expected array"),
    ("ctes", lambda p: p["config"].__setitem__("iterations", "abc"),
     "payload.config.iterations: expected int, got 'abc'"),
    ("se-ctes", lambda p: p["models"][1].pop("discriminator"),
     "payload.models[1].discriminator: missing field"),
    ("se-ctes", lambda p: p.__setitem__("members", p.pop("models")),
     "payload.members: unknown field"),
    ("se-ctes", lambda p: p["config"].__setitem__("h", 2),
     "payload.config: k must exceed 2*h"),
]


@pytest.fixture(scope="module")
def model_docs(tmp_path_factory):
    ds = small_dataset()
    tmp = tmp_path_factory.mktemp("models")
    models = {"pls": pls_fit(ds.x, ds.y, 2), "grnn": grnn_fit(ds.x, ds.y),
              "ctes": train_ctes(ds, TrainConfig(iterations=2, batch_size=10)),
              "se-ctes": _tiny_ensemble()}
    return {kind: _saved(tmp, m, f"{kind}.json")[1]
            for kind, m in models.items()}


@pytest.mark.parametrize("kind,damage,message", TRUNCATED_PAYLOADS)
def test_truncated_model_payload_names_field(tmp_path, capsys, model_docs,
                                             kind, damage, message):
    doc = json.loads(json.dumps(model_docs[kind]))
    assert doc["kind"] == kind
    damage(doc["payload"])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match=re.escape(message)):
        load_model(path)
    assert main(["synth", "--model", str(path), "--x", "0.5,0.5",
                 "--out", str(tmp_path / "s.csv")]) == 2
    _single_error_line(capsys, message)


def test_load_rejects_format_1_and_unknown_kind(tmp_path, model_docs):
    for edit, message in ((_set("format_version", 1), "version 1"),
                          (_drop("kind"), "unknown model kind None"),
                          (_set("kind", "wgan"), "unknown model kind 'wgan'")):
        doc = json.loads(json.dumps(model_docs["pls"]))
        edit(doc)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelFormatError, match=message):
            load_model(path)


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    ds = small_dataset()
    tmp = tmp_path_factory.mktemp("files")
    return {"pls": _saved(tmp, pls_fit(ds.x, ds.y, 2), "pls.json")[0],
            "ctes": _saved(tmp, train_ctes(ds, TrainConfig(
                iterations=2, batch_size=10)), "ctes.json")[0]}


@pytest.mark.parametrize("kind", ["pls", "ctes"])
@pytest.mark.parametrize("args,needle", [
    (["--x", "abc"], "--x: expected comma-separated numbers"),
    (["--x", "nan,0.5"], "--x: characteristics must be finite"),
    (["--x", "0.5"], "--x: characteristics have 1 columns, expected 2"),
    (["--x", "0.5,0.5,0.5"], "--x: characteristics have 3 columns"),
    (["--x", "0.5,0.5", "--count", "0"], "--count: must be >= 1"),
    (["--x", "0.5,0.5", "--jitter", "-1"], "--jitter: must be >= 0"),
])
def test_synth_rejects_bad_characteristics(tmp_path, capsys, model_files,
                                           kind, args, needle):
    out = tmp_path / "s.csv"
    assert main(["synth", "--model", str(model_files[kind]), *args,
                 "--out", str(out)]) == 2
    _single_error_line(capsys, needle)
    assert not out.exists()


@pytest.mark.parametrize("args", [[], ["--x", "0.5,0.5", "--data", "d.csv"]])
def test_synth_needs_exactly_one_of_x_and_data(tmp_path, capsys, model_files,
                                               args):
    with pytest.raises(SystemExit) as info:
        main(["synth", "--model", str(model_files["pls"]), *args,
              "--out", str(tmp_path / "s.csv")])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "--x" in err and "--data" in err and "Traceback" not in err


MALFORMED_CSVS = [
    ("x1,x2,y1\n0.1,0.2,0.3\n", "missing 'group' column"),
    ("x1,x2,y1,group\n0.1,0.2,0.3,1\n0.1,abc,0.3,2\n",
     "line 3, column 'x2': expected a finite number, got 'abc'"),
    ("x1,x2,y1,group\n0.1,inf,0.3,1\n", "column 'x2': expected a finite"),
    ("x1,x2,y1,group\n0.1,0.2,0.3\n", "column 'group': expected a finite"),
    ("", "missing 'group' column"),
]


@pytest.mark.parametrize("text,needle", MALFORMED_CSVS)
def test_malformed_dataset_csv_exits_2(tmp_path, capsys, model_files, text,
                                       needle):
    data = tmp_path / "d.csv"
    data.write_text(text)
    assert main(["train", "--method", "pls", "--data", str(data),
                 "--out", str(tmp_path / "m.json")]) == 2
    _single_error_line(capsys, str(data), needle)
    assert main(["synth", "--model", str(model_files["pls"]), "--data",
                 str(data), "--out", str(tmp_path / "s.csv")]) == 2
    _single_error_line(capsys, str(data), needle)


def test_report_rejects_missing_column(tmp_path, capsys):
    trials = tmp_path / "t.csv"
    trials.write_text("method,sigma,group,trial,A2\npls,0.05,3,0,1.0\n")
    assert main(["report", "--inputs", str(trials),
                 "--out", str(tmp_path / "s.csv")]) == 2
    _single_error_line(capsys, str(trials), "'A1'")
