import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from soficlab import models, randomness
from soficlab.cli import main
from soficlab.config import SCHEMA, config_checksum, validate_config
from soficlab.covering import PACK_EPS_EXACT_BUDGET
from soficlab.experiments import REGISTRY, RunContext, _coind_setup, run_experiment
from soficlab.models import enumerate_good_models
from soficlab.processes import product_process, tv_distance
from soficlab.sofic import partitioned_random

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
RESULTS_DIR = CONFIG_DIR.parent / "results"


def _e8_cfg(tmp_path: Path, **over) -> dict:
    cfg = json.loads((CONFIG_DIR / "e8.json").read_text())
    cfg["ns"] = [8, 16]
    cfg["out_dir"] = str(tmp_path / "e8")
    cfg.update(over)
    return cfg


def test_registry_covers_all_nine():
    assert sorted(REGISTRY) == [f"E{i}" for i in range(1, 10)]
    assert sorted(REGISTRY) == SCHEMA["properties"]["experiment"]["enum"]


def test_config_checksum_stable_and_sensitive():
    cfg = {"experiment": "E8", "seed": 1, "ns": [8], "schema_version": 1}
    a = config_checksum(cfg)
    assert len(a) == 12 and int(a, 16) >= 0
    assert config_checksum(dict(reversed(list(cfg.items())))) == a
    assert config_checksum({**cfg, "seed": 2}) != a


def test_validate_config_reports_problems():
    assert validate_config({"experiment": "E42"}) != []
    missing = validate_config({"experiment": "E8", "schema_version": 1})
    assert any("seed" in p for p in missing)
    bad_seed = validate_config(
        {
            "experiment": "E8",
            "schema_version": 1,
            "seed": "20260821",
            "ns": [8],
            "eps": 0.05,
            "cluster_threshold": 0.05,
            "pair_eps": 0.2,
            "pair_stat_threshold": 0.9,
            "vertex_pairs": 10,
        }
    )
    assert any("seed" in p for p in bad_seed)
    cfg5 = json.loads((CONFIG_DIR / "e5.json").read_text())
    assert validate_config(cfg5) == []
    cfg5["epsilons"] = cfg5["epsilons"][:-1]
    assert any("epsilons" in p for p in validate_config(cfg5))
    cfg5["seeds"] = "not-a-list"
    assert any("seeds" in p for p in validate_config(cfg5))


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("e*.json")))
def test_shipped_configs_validate(name):
    cfg = json.loads((CONFIG_DIR / name).read_text())
    assert validate_config(cfg) == []


@pytest.mark.parametrize("cfg", [{}, {"experiment": "E42"}, {"experiment": None, "seed": 1}])
def test_validate_config_one_problem_without_known_experiment(cfg):
    (problem,) = validate_config(cfg)
    assert problem.startswith("experiment: ")


@pytest.mark.parametrize(
    "key, bad, path",
    [("eps", -1, "eps"), ("eps", "0.1", "eps"), ("vertices", [40], "vertices[0]")],
)
def test_validate_enforces_schema_bounds_and_types(key, bad, path):
    cfg = json.loads((CONFIG_DIR / "e3.json").read_text())
    (problem,) = validate_config({**cfg, key: bad})
    assert problem.startswith(f"{path}: ")


@pytest.mark.parametrize(
    "name, key",
    [("e1.json", "sizes"), ("e4.json", "sizes"), ("e2.json", "deltas"), ("e3.json", "vertices"), ("e8.json", "ns")],
)
def test_validate_refuses_empty_lists(name, key):
    """Empty lists that a run indexes; E8 with no sizes used to pass with no checks."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    (problem,) = validate_config({**cfg, key: []})
    assert problem.startswith(f"{key}: ")


@pytest.mark.parametrize(
    "name, path",
    [("e1.json", "weight_sets[1]"), ("e4.json", "weights"), ("e5.json", "mu0"), ("e6.json", "mu0")],
)
def test_validate_refuses_weights_that_are_not_a_law(name, path, tmp_path, capsys):
    """validate applies the processes' probability-vector rule, so it refuses
    what run would refuse, and accepts a sum within the run-time tolerance."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    key = path.split("[")[0]

    def setting(weights):
        return {**cfg, key: [cfg[key][0], weights] if key == "weight_sets" else weights}

    (problem,) = validate_config(setting([0.7, 0.7]))
    assert problem.startswith(f"{path}: ")
    assert validate_config(setting([0.5, -0.5, 1.0])) != []
    assert validate_config(setting([0.5, 0.5 + 1e-10])) == []
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**setting([0.7, 0.7]), "out_dir": str(tmp_path / "out")}))
    assert main(["validate", str(cfg_path)]) == 1
    assert f"invalid: {path}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "over, path",
    [
        ({"vertices": 1, "set_size": 3, "support_atoms": 2}, "set_size"),
        ({"vertices": 2, "set_size": 4, "support_atoms": 5}, "support_atoms"),
        ({"support_atoms": PACK_EPS_EXACT_BUDGET + 1}, "support_atoms"),
        ({"eps": 1.5}, "eps"),
        ({"eps": 1}, "eps"),
        ({"deltas": [0.5, 0.0]}, "deltas[1]"),
        ({"vertices": 10, "support_atoms": 16}, "vertices"),
        ({"vertices": 12, "support_atoms": 16}, "vertices"),
        ({"vertices": 9, "support_atoms": 5}, "vertices"),
    ],
)
def test_validate_refuses_e2_configs_run_cannot_finish(over, path):
    """Without these rules `run` drew distinct configurations forever
    (set_size 3 on 1 vertex), exited 1 (eps 1.5, support_atoms 17), or built
    a 2.1 GB product distance matrix (vertices 10, support_atoms 16; 34 GB at
    vertices 12)."""
    cfg = json.loads((CONFIG_DIR / "e2.json").read_text())
    (problem,) = validate_config({**cfg, **over})
    assert problem.startswith(f"{path}: ")
    assert validate_config(cfg) == []
    assert validate_config({**cfg, "vertices": 2, "set_size": 4, "support_atoms": 4}) == []
    assert validate_config({**cfg, "vertices": 9, "support_atoms": 4}) == []  # at the cell cap
    e2 = [b["then"] for b in SCHEMA["allOf"] if b["if"]["properties"]["experiment"]["const"] == "E2"][0]
    assert e2["properties"]["support_atoms"]["maximum"] == PACK_EPS_EXACT_BUDGET


def test_validate_refuses_e7_sizes_past_the_dense_spectrum():
    """E7's largest block has 3n vertices and a dense m x m solve: n = 512 is
    the largest size accepted."""
    cfg = json.loads((CONFIG_DIR / "e7.json").read_text())
    assert validate_config({**cfg, "ns": [64, 512]}) == []
    (problem,) = validate_config({**cfg, "ns": [513]})
    assert problem.startswith("ns[0]: ")


def test_validate_refuses_e7_generators_outside_the_group():
    """A label the partitioned model's group lacks used to end `run` in a bare KeyError."""
    cfg = json.loads((CONFIG_DIR / "e7.json").read_text())
    (problem,) = validate_config({**cfg, "generators": ["a", "z"]})
    assert problem.startswith("generators[1]: ")
    assert validate_config({**cfg, "generators": ["a", "b", "a'", "b'"]}) == []


# the keywords validate_config interprets, and the annotations it may ignore
INTERPRETED = {
    "type", "required", "properties", "enum", "const", "minimum", "maximum",
    "exclusiveMinimum", "exclusiveMaximum", "minItems", "items", "allOf", "if", "then",
}
ANNOTATIONS = {"$schema", "$id", "title", "description"}


def _keywords(node: dict):
    yield from node
    for sub in [*node.get("properties", {}).values(), *node.get("allOf", ())]:
        yield from _keywords(sub)
    for key in ("items", "if", "then"):
        if key in node:
            yield from _keywords(node[key])


def test_schema_uses_only_interpreted_keywords():
    assert set(_keywords(SCHEMA)) <= INTERPRETED | ANNOTATIONS


WRONG_TYPE = {"integer": [1.5, True, "1"], "number": [True, "0.1"], "array": [{}], "string": [1]}


def _violations(schema: dict, value):
    """(constraint, value) pairs, each breaking one constraint of a schema node."""
    out = [(f"type {schema['type']}", v) for v in WRONG_TYPE.get(schema.get("type"), [])]
    if "const" in schema:
        out.append(("const", schema["const"] + 1))
    if "enum" in schema:
        out.append(("enum", "E0"))
    if "minimum" in schema:
        out.append(("minimum", schema["minimum"] - 1))
    if "maximum" in schema:
        out.append(("maximum", schema["maximum"] + 1))
    if "exclusiveMinimum" in schema:
        out.append(("exclusiveMinimum", schema["exclusiveMinimum"]))
    if "exclusiveMaximum" in schema:
        out.append(("exclusiveMaximum", schema["exclusiveMaximum"]))
    if "minItems" in schema:
        out.append(("minItems", value[: schema["minItems"] - 1]))
    if "items" in schema and value:
        out += [(f"items {c}", [bad, *value[1:]]) for c, bad in _violations(schema["items"], value[0])]
    return out


def _broken_configs(cfg: dict):
    """The config with each constraint of its schema broken once: every field
    of the root and of its experiment's branch, and every required field."""
    (branch,) = [b["then"] for b in SCHEMA["allOf"] if b["if"]["properties"]["experiment"]["const"] == cfg["experiment"]]
    for key, sub in {**SCHEMA["properties"], **branch["properties"]}.items():
        for constraint, bad in _violations(sub, cfg.get(key)):
            yield f"{key} {constraint}", key, {**cfg, key: bad}
    for key in [*SCHEMA["required"], *branch["required"]]:
        yield f"{key} required", key, {k: v for k, v in cfg.items() if k != key}


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIG_DIR.glob("e*.json")))
def test_every_schema_violation_is_refused(name, tmp_path, monkeypatch, capsys):
    cfg = json.loads((CONFIG_DIR / name).read_text())
    cases = list(_broken_configs(cfg))
    assert {key for _, key, _ in cases} >= set(cfg)
    for i, (label, key, bad) in enumerate(cases):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(bad))
        assert main(["validate", str(path)]) == 1, label
        assert f"invalid: {key}" in capsys.readouterr().err, label
        # run refuses it too, writing nothing without --out
        cwd = tmp_path / f"run{i}"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert main(["run", str(path)]) == 1, label
        capsys.readouterr()
        assert not list(cwd.iterdir()), label


def test_run_experiment_writes_artifacts(tmp_path):
    cfg = _e8_cfg(tmp_path)
    code = run_experiment(cfg, RunContext())
    assert code == 0
    out = tmp_path / "e8"
    table = (out / "e8_convergence.csv").read_text()
    first, header = table.splitlines()[:2]
    assert first == f"# config_checksum={config_checksum(cfg)}"
    assert header.startswith("n,vertices,F_radius,epsilon,lw_defect")
    summary = json.loads((out / "summary.json").read_text())
    assert summary["experiment"] == "E8"
    assert summary["passed"] is True
    assert summary["config_checksum"] == config_checksum(cfg)


def test_run_experiment_deterministic_bytes(tmp_path):
    cfg = _e8_cfg(tmp_path)
    run_experiment(cfg, RunContext(out_dir=tmp_path / "a"))
    run_experiment(cfg, RunContext(out_dir=tmp_path / "b"))
    a = (tmp_path / "a" / "e8_convergence.csv").read_text()
    b = (tmp_path / "b" / "e8_convergence.csv").read_text()
    assert a == b


def test_e6_hps_row_not_certified_when_pairs_are_good(tmp_path):
    cfg = json.loads((CONFIG_DIR / "e6.json").read_text())
    cfg["pair_eps"] = 0.15
    assert run_experiment(cfg, RunContext(out_dir=tmp_path)) == 2
    search = (tmp_path / "e6_pair_search.csv").read_text().splitlines()[2:]
    assert sum(int(line.split(",")[4]) for line in search) > 0
    hps = (tmp_path / "e6_hps.csv").read_text().splitlines()
    assert hps[2] == "2,4,1,0.15,,,not-certified"


@pytest.mark.parametrize("seed", [20260821, 20260822])
def test_e6_certificate_implies_no_direct_pair_good_model(seed):
    """E6's certified-empty row is backed by a direct search of the pair
    alphabet, 4^16 configurations at n = 4, at the committed pair_eps. Only
    this direction holds: E6's pair test is the F = {e} relaxation, so it can
    say not-certified where the direct set is empty too."""
    cfg = json.loads((CONFIG_DIR / "e6.json").read_text())
    hps = (RESULTS_DIR / "e6" / "e6_hps.csv").read_text().splitlines()
    assert hps[2].split(",")[3:] == [str(cfg["pair_eps"]), "-inf", "-inf", "certified-empty"]
    nu, window = _coind_setup(cfg)
    sigma = partitioned_random(cfg["n"], seed)
    pair = product_process(nu, nu)
    got = enumerate_good_models(sigma, pair, window, cfg["pair_eps"], budget=4**16)
    assert got.count == 0


def test_e6_pair_relaxation_follows_the_alphabet():
    """E6 reads its pair alphabet from mu0: at three letters each seed's pair
    counts, largest (1, 0) frequency and smallest TV equal a per-pair loop,
    and the target is mu0(1) mu0(0)."""
    cfg = json.loads((CONFIG_DIR / "e6.json").read_text())
    cfg.update(mu0=[0.8, 0.1, 0.1], seeds=cfg["seeds"][:2], epsilons=[0.5, 0.5], pair_eps=0.2)
    assert validate_config(cfg) == []
    result = REGISTRY["E6"](cfg, RunContext())
    nu, window = _coind_setup(cfg)
    target = product_process(nu, nu).marginal_elems((nu.group.identity(),))
    rows = [line.split(",") for line in result.tables["e6_pair_search.csv"][1:]]
    for seed, row in zip(cfg["seeds"], rows):
        sigma = partitioned_random(cfg["n"], seed)
        configs = enumerate_good_models(sigma, nu, window, 0.5).configs
        freqs = [np.bincount(3 * x + y, minlength=9) / sigma.n for x in configs for y in configs]
        tvs = [tv_distance(f, target) for f in freqs]
        good = sum(tv < cfg["pair_eps"] for tv in tvs)
        assert 0 < good < len(tvs)
        assert row[3:] == [str(len(tvs)), str(good), repr(float(max(f[3] for f in freqs))), repr(min(tvs))]
    assert result.summary["target_pair_freq"] == target[3] == pytest.approx(0.1 * 0.8)


@pytest.mark.parametrize("name", ["e5.json", "e6.json"])
def test_validate_refuses_one_letter_mu0(name):
    """E5's 1_W and E6's (1, 0) pair letter both need the letter 1."""
    cfg = json.loads((CONFIG_DIR / name).read_text())
    (problem,) = validate_config({**cfg, "mu0": [1.0]})
    assert problem.startswith("mu0: ")


def test_e3_empty_pair_set_has_no_violations():
    """At 8 vertices the Z instance has no eps-good pair model while both 2 eps
    factor sets are nonempty: an empty pair set has no projection outside them."""
    cfg = {**json.loads((CONFIG_DIR / "e3.json").read_text()), "instances": 2, "vertices": [8]}
    result = REGISTRY["E3"](cfg, RunContext())
    rows = [line.split(",") for line in result.tables["e3_subadditivity.csv"][1:]]
    assert [row[4:] for row in rows] == [["0", "32", "24", "0", "1"], ["2800", "210", "162", "0", "1"]]
    assert result.passed


def test_run_experiment_rejects_invalid_config():
    with pytest.raises(ValueError):
        run_experiment({"experiment": "E8"}, RunContext())


def test_cli_validate_and_run(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_e8_cfg(tmp_path)))
    assert main(["validate", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "ok: E8" in out

    assert main(["run", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    assert "E8: pass" in out
    assert (tmp_path / "e8" / "summary.json").exists()


def test_e1_four_letters_at_n_1024(tmp_path, capsys):
    """E1 walks only the letter types within reach of eps: four letters at
    n 1024 are about 29,000 types, not the 1.8e8 compositions of 1024."""
    cfg = json.loads((CONFIG_DIR / "e1.json").read_text())
    cfg.update(weight_sets=[[0.1, 0.2, 0.3, 0.4]], sizes=[64, 1024], eps=0.02, out_dir=str(tmp_path / "e1"))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["validate", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path)]) == 0
    assert "E1: pass" in capsys.readouterr().out
    rows = (tmp_path / "e1" / "e1_entropy.csv").read_text().splitlines()[2:]
    assert [row.split(",")[1] for row in rows] == ["64", "1024"]


def test_cli_validate_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "E8", "schema_version": 1}))
    assert main(["validate", str(bad)]) == 1
    assert "invalid:" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "missing.json")]) == 1
    assert main(["run", str(tmp_path / "missing.json")]) == 1


def test_cli_out_override_and_seed(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg = _e8_cfg(tmp_path)
    cfg_path.write_text(json.dumps(cfg))
    other = tmp_path / "elsewhere"
    assert main(["run", str(cfg_path), "--out", str(other)]) == 0
    capsys.readouterr()
    assert (other / "summary.json").exists()
    assert not (tmp_path / "e8").exists()
    # --out must not perturb the digest baked into the table
    table = (other / "e8_convergence.csv").read_text()
    assert table.splitlines()[0] == f"# config_checksum={config_checksum(cfg)}"
    # --seed replaces the seed field, so the table carries that config's digest
    seeded = tmp_path / "seeded"
    assert main(["run", str(cfg_path), "--out", str(seeded), "--seed", "5"]) == 0
    capsys.readouterr()
    table = (seeded / "e8_convergence.csv").read_text()
    assert table.splitlines()[0] == f"# config_checksum={config_checksum({**cfg, 'seed': 5})}"


def test_cli_seed_refused_without_seed_field(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "e5.json").read_text())
    cfg["out_dir"] = str(tmp_path / "e5")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--seed", "5", "--out", str(out)]) == 1
    assert "seed" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["diagnostic.json"]
    assert not (tmp_path / "e5").exists()
    diag = json.loads((out / "diagnostic.json").read_text())
    assert diag["experiment"] == "E5"
    assert diag["config_checksum"] == config_checksum(cfg)


def test_cli_budget_refusal_writes_diagnostic(tmp_path, capsys):
    cfg = json.loads((CONFIG_DIR / "e5.json").read_text())
    cfg["out_dir"] = str(tmp_path / "e5")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--budget", "100", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "budget" in err
    diag = json.loads((out / "diagnostic.json").read_text())
    assert diag["type"] == "BudgetExceededError"
    assert "budget" in diag["error"]
    assert diag["experiment"] == "E5"
    assert not (tmp_path / "e5").exists()


def test_cli_refuses_spaces_codes_cannot_hold(tmp_path, capsys):
    """E5 at n = 16 spans 2^64 configurations, more than int64 codes hold: a
    raised --budget does not lift the limit, and the refusal writes its
    diagnostic under --out."""
    cfg = json.loads((CONFIG_DIR / "e5.json").read_text())
    cfg["n"] = 16
    cfg["out_dir"] = str(tmp_path / "e5")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--budget", str(1 << 80), "--out", str(out)]) == 1
    assert "2^63 - 1" in capsys.readouterr().err
    diag = json.loads((out / "diagnostic.json").read_text())
    assert diag["type"] == "ValueError"
    assert "2^64 configurations" in diag["error"] and "no budget lifts" in diag["error"]
    assert diag["experiment"] == "E5"
    assert not (tmp_path / "e5").exists()


def test_e3_never_decodes_a_configuration(tmp_path, monkeypatch):
    """The committed E3 run checks inclusion on the codes of its good sets
    alone: no configuration is decoded to a row, and the artifacts are the
    committed ones."""
    decoded = []

    def spy(codes, base, length):
        decoded.append(len(codes))
        raise AssertionError("E3 decoded a configuration")

    monkeypatch.setattr(models, "_decode_codes", spy)
    out = tmp_path / "e3"
    assert main(["run", str(CONFIG_DIR / "e3.json"), "--out", str(out)]) == 0
    assert decoded == []
    _assert_same_as_results(out, "e3")


def test_refusal_never_writes_into_the_committed_out_dir(tmp_path, monkeypatch, capsys):
    """Run from a working directory holding the committed config, whose
    relative out_dir is its golden directory: a refusal writes nothing there,
    and its diagnostic goes only under --out."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "e5.json").write_bytes((CONFIG_DIR / "e5.json").read_bytes())
    assert main(["run", "configs/e5.json", "--budget", "100"]) == 1
    assert "budget" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["configs"]
    assert main(["run", "configs/e5.json", "--budget", "100", "--out", "refused"]) == 1
    capsys.readouterr()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["configs", "refused"]
    diag = json.loads((tmp_path / "refused" / "diagnostic.json").read_text())
    assert diag["type"] == "BudgetExceededError"


def _assert_same_as_results(out: Path, exp: str, extra=()) -> None:
    golden = RESULTS_DIR / exp
    names = sorted(f.name for f in golden.iterdir())
    assert sorted(f.name for f in out.iterdir()) == sorted([*names, *extra])
    for name in names:
        assert (out / name).read_bytes() == (golden / name).read_bytes(), f"{exp}/{name} differs from results/"


def test_e7_bytes_do_not_depend_on_blas_threads(tmp_path):
    """E7 under one BLAS thread writes `results/e7`, which the suite's other
    runs regenerate under the default thread count."""
    src = str(CONFIG_DIR.parent / "src")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }
    out = tmp_path / "e7"
    cmd = [sys.executable, "-m", "soficlab.cli", "run", str(CONFIG_DIR / "e7.json"), "--out", str(out)]
    subprocess.run(cmd, capture_output=True, env=env, check=True)
    _assert_same_as_results(out, "e7")


def test_cli_run_removes_stale_diagnostic(tmp_path, capsys):
    out = tmp_path / "e8"
    out.mkdir()
    (out / "diagnostic.json").write_text('{"error": "from an earlier refused run"}\n')
    assert main(["run", str(CONFIG_DIR / "e8.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    _assert_same_as_results(out, "e8")


def test_cli_run_plot(tmp_path, capsys):
    out = tmp_path / "e1"
    assert main(["run", str(CONFIG_DIR / "e1.json"), "--plot", "--out", str(out)]) == 0
    capsys.readouterr()
    _assert_same_as_results(out, "e1", extra=["e1_entropy.svg"])
    assert (out / "e1_entropy.svg").read_text().startswith("<svg")


def test_validate_and_report_load_no_compute_module():
    """`validate` and `report` need only the config layer: a fresh process
    that validates every committed config and reports `results/` has not
    imported numpy or a compute module, and `import soficlab` alone imports
    no submodule."""
    configs = sorted(str(p) for p in CONFIG_DIR.glob("e*.json"))
    code = (
        "import json, sys, soficlab\n"
        "bare = sorted(m for m in sys.modules if m.startswith('soficlab.'))\n"
        "from soficlab.cli import main\n"
        f"codes = [main(['validate', c]) for c in {configs!r}] + [main(['report', {str(RESULTS_DIR)!r}])]\n"
        "print(json.dumps([bare, codes, sorted(sys.modules)]))\n"
    )
    src = str(CONFIG_DIR.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    bare, codes, loaded = json.loads(out.stdout.splitlines()[-1])
    assert bare == []
    assert codes == [0] * (len(configs) + 1)
    compute = ["numpy"] + [f"soficlab.{m}" for m in (
        "experiments", "models", "processes", "covering", "convergence", "sofic", "randomness", "entropy", "groups",
    )]
    assert [m for m in compute if m in loaded] == []


def test_cli_report_table(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_e8_cfg(tmp_path, out_dir=str(tmp_path / "res" / "e8"))))
    assert main(["run", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["report", str(tmp_path / "res")]) == 0
    out = capsys.readouterr().out
    assert "E8" in out and "pass" in out
    assert main(["report", str(tmp_path / "nowhere")]) == 1


def test_cli_report_marks_unreadable_summaries(tmp_path, capsys):
    """A summary.json that is not JSON, not a JSON object, or names its
    experiment by a non-string is an unreadable row, beside a readable one."""
    bodies = {"bad": "{", "list": "[1, 2]", "string": '"str"', "number": '{"experiment": 3, "passed": true}'}
    summaries = {**bodies, "good": json.dumps({"experiment": "E8", "passed": True, "config_checksum": "abc"})}
    for name, body in summaries.items():
        (tmp_path / name).mkdir()
        (tmp_path / name / "summary.json").write_text(body)
    assert main(["report", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert sorted(rows) == sorted([[str(tmp_path / name), "?", "unreadable"] for name in bodies] + [["E8", "pass", "abc"]])


# reduced configs whose units run as pool tasks: E4's rows and stability
# seeds, and E9's six (window, defect) averaging shifts, whose dq pairs are
# past pair_cap and drawn
UNIT_CONFIGS = {
    "E4": {"sizes": [64, 128], "samples": 300, "dispersion_samples": 40, "stability_seeds": [1, 2, 3]},
    "E9": {"vertices": 256, "k": 32, "product_v": 32, "product_w": 4, "averaging_window": 4, "dq_pair_samples": 1024},
}


@pytest.mark.parametrize("exp", sorted(UNIT_CONFIGS))
def test_units_give_the_same_tables_on_any_pool(exp):
    """E4's and E9's units run as pool tasks: with no pool, and with 2 or 3
    workers while each draw is cut into many chunks drawn serially in its
    unit, the tables are byte for byte the same. Only the one map of the
    units reaches the pool; units share no mutable object, so frequent
    thread switches change nothing."""
    cfg = {**json.loads((CONFIG_DIR / f"{exp.lower()}.json").read_text()), **UNIT_CONFIGS[exp]}
    assert validate_config(cfg) == []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randomness, "_pool", lambda: None)
        expect = REGISTRY[exp](cfg, RunContext()).tables
    interval = sys.getswitchinterval()
    try:
        for workers in (2, 3):
            calls = []
            with ThreadPoolExecutor(workers) as pool, pytest.MonkeyPatch.context() as mp:
                mp.setattr(randomness, "_pool", lambda: calls.append(workers) or pool)
                mp.setattr(randomness, "DRAW_CHUNK", 4096)
                assert REGISTRY[exp](cfg, RunContext()).tables == expect
            assert calls == [workers]
            sys.setswitchinterval(1e-5)  # 3 workers on fewer cores, switching threads often
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("exp", ["e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9"])
def test_config_regenerates_results(exp, tmp_path):
    golden = RESULTS_DIR / exp
    out = tmp_path / exp
    code = main(["run", str(CONFIG_DIR / f"{exp}.json"), "--out", str(out)])
    passed = json.loads((golden / "summary.json").read_text())["passed"]
    assert code == (0 if passed else 2)
    _assert_same_as_results(out, exp)
