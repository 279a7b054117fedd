"""Acceptance criteria A1-A10, one test each, printing one verdict line per
criterion (run with -s to see them). Thresholds are asserted exactly as
configured; nothing is loosened to force a pass."""

import json
import math
import time
from pathlib import Path

import numpy as np

from soficlab.experiments import REGISTRY, RunContext, run_experiment
from soficlab.groups import GroupSpec, Window, coind_group
from soficlab.models import (
    count_good_models_mc,
    counts_over_elements,
    enumerate_good_models,
    good_mask,
    letter_frequency_count,
)
from soficlab.processes import bernoulli, coset_iid, tv_distance
from soficlab.randomness import derive_seed
from soficlab.sofic import partitioned_random, random_uniform

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
Z = GroupSpec.integers()
F2 = GroupSpec.free(2)


def _cfg(name: str) -> dict:
    return json.loads((CONFIG_DIR / name).read_text())


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag} {'PASS' if ok else 'FAIL'}: {detail}")


def test_a1_bernoulli_entropy_matches_shannon():
    vertices, eps, tol = 4096, 0.02, 0.03
    targets = {(0.5, 0.5): math.log(2), (0.75, 0.25): 0.5623}
    t0 = time.perf_counter()
    errors = {}
    for weights, target in targets.items():
        got = letter_frequency_count(weights, vertices, eps)
        errors[weights] = abs(got.log_count_nats / vertices - target)
    elapsed = time.perf_counter() - t0
    ok = all(err <= tol for err in errors.values()) and elapsed < 1.0
    _verdict(
        "A1",
        ok,
        f"|V|=4096 letter-exact errors "
        f"{errors[(0.5, 0.5)]:.2e} (fair) {errors[(0.75, 0.25)]:.4f} (3/4,1/4) "
        f"<= {tol}; runtime {elapsed:.2f}s < 1s",
    )
    for weights, err in errors.items():
        assert err <= tol, f"{weights}: error {err} exceeds {tol}"
    assert elapsed < 1.0


def test_a2_counting_cross_checks():
    t0 = time.perf_counter()
    gen = np.random.default_rng(20260821)
    # 20 drawn instances at eps 0.25 (their radius-1 good sets are empty),
    # then 4 radius-1 instances of fair bits at eps 0.7 whose good sets are
    # not, so the MC counter is checked where the window is not {e}
    instances = [(int(gen.integers(4, 13)), float(gen.integers(3, 8)) / 10.0, i % 2, 0.25) for i in range(20)]
    instances += [(10 + 2 * (i % 2), 0.5, 1, 0.7) for i in range(20, 24)]
    worst_ratio = 0.0
    for i, (n, p, radius, eps) in enumerate(instances):
        sigma = random_uniform(F2, n, derive_seed(20260821, "a2", i))
        mu = bernoulli((p, 1 - p), F2)
        window = Window(F2, F2.ball(radius))
        exact = enumerate_good_models(sigma, mu, window, eps)
        if radius == 0:
            typed = letter_frequency_count((p, 1 - p), n, eps)
            assert typed.count == exact.count, f"instance {i}: type count disagrees"
        if eps == 0.7:
            assert exact.count > 0, f"instance {i}: empty good set"
        est = count_good_models_mc(sigma, mu, window, eps, 4000, derive_seed(20260821, "a2-mc", i))
        dev = abs(est.count - exact.count)
        assert dev <= 4 * est.standard_error, (
            f"instance {i}: |V|={n} radius={radius} MC {est.count} vs exact "
            f"{exact.count}, off by {dev} > 4*SE={4 * est.standard_error}"
        )
        if est.standard_error > 0:
            worst_ratio = max(worst_ratio, dev / est.standard_error)
    elapsed = time.perf_counter() - t0
    _verdict(
        "A2",
        True,
        f"24 instances: letter==enumerate at F={{e}}, MC within 4 SE, 4 of them at radius 1 "
        f"with nonempty good sets (worst {worst_ratio:.2f} SE); runtime {elapsed:.1f}s < 60s",
    )
    assert elapsed < 60.0


def test_a3_covering_packing_chains():
    t0 = time.perf_counter()
    result = REGISTRY["E2"](_cfg("e2.json"), RunContext())
    elapsed = time.perf_counter() - t0
    rows = result.tables["e2_inequalities.csv"]
    checks = len(rows) - 1
    _verdict("A3", result.passed, f"{checks} inequality rows all hold; runtime {elapsed:.1f}s < 120s")
    assert result.passed
    assert elapsed < 120.0


def test_a4_subadditivity_inclusion():
    t0 = time.perf_counter()
    result = REGISTRY["E3"](_cfg("e3.json"), RunContext())
    elapsed = time.perf_counter() - t0
    _verdict("A4", result.passed, f"10 process pairs, zero inclusion violations; runtime {elapsed:.1f}s < 120s")
    assert result.passed
    assert elapsed < 120.0


def test_a5_bernoulli_quenched_convergence():
    cfg = _cfg("e4.json")
    t0 = time.perf_counter()
    result = REGISTRY["E4"](cfg, RunContext())
    elapsed = time.perf_counter() - t0
    final = result.summary["final"]
    ok = (
        final["q_r1"] < cfg["q_threshold"]
        and final["dq_r0"] < cfg["dq_threshold"]
        and result.passed
    )
    _verdict(
        "A5",
        ok,
        f"|V|=4096: q_r1={final['q_r1']} < {cfg['q_threshold']}, "
        f"dq_e={final['dq_r0']} < {cfg['dq_threshold']}, stable over "
        f"{len(cfg['stability_seeds'])} seeds; runtime {elapsed:.1f}s < 300s",
    )
    assert final["q_r1"] < cfg["q_threshold"]
    assert final["dq_r0"] < cfg["dq_threshold"]
    assert result.passed, "stability seeds failed thresholds"
    assert elapsed < 300.0


def test_a6_coset_iid_example():
    cfg5 = _cfg("e5.json")
    cfg6 = _cfg("e6.json")
    t0 = time.perf_counter()

    # clause (i): 1_W is a ({e}, 0.05)-good model exactly, at every seed
    group = coind_group()
    nu = coset_iid(cfg5["mu0"], group)
    ident = Window(group, [group.identity()])
    for s in cfg5["seeds"]:
        sigma = partitioned_random(cfg5["n"], s)
        one_w = np.zeros(sigma.n, dtype=np.uint8)
        one_w[sigma.partition["W"]] = 1
        counts = counts_over_elements(sigma, one_w, ident.elements, nu.alphabet.size)
        tv = tv_distance(counts / float(sigma.n), nu.marginal_elems(ident.elements))
        assert tv == 0.0, f"seed {s}: 1_W letter frequencies off by {tv}"
        assert good_mask(sigma, nu, ident, one_w[None, :], 0.05)[0]

    # clause (ii): enumerated good models cluster at 1_W in >= 8/10 seeds
    r5 = REGISTRY["E5"](cfg5, RunContext())
    pass_seeds = r5.summary["pass_seeds"]

    # clause (iii): no pair of good models is good for the product process
    r6 = REGISTRY["E6"](cfg6, RunContext())
    pair_rows = [line.split(",") for line in r6.tables["e6_pair_search.csv"][1:]]
    pair_good_total = sum(int(row[4]) for row in pair_rows)
    min_tv = min(float(row[6]) for row in pair_rows)
    elapsed = time.perf_counter() - t0

    ok = pass_seeds >= cfg5["min_pass_seeds"] and r5.passed and r6.passed
    _verdict(
        "A6",
        ok,
        f"(i) 1_W exact at all 10 seeds; (ii) clustering in {pass_seeds}/10 seeds "
        f"(need {cfg5['min_pass_seeds']}); (iii) 0 pair-good among all pairs "
        f"(total {pair_good_total}, min pair TV {min_tv} >= {cfg6['pair_eps']}); "
        f"runtime {elapsed:.1f}s < 300s",
    )
    assert pass_seeds >= cfg5["min_pass_seeds"]
    assert r5.passed
    assert r6.passed, "a pair of good models was good for the product"
    assert pair_good_total == 0
    assert elapsed < 300.0


def test_a7_schreier_expansion():
    cfg = _cfg("e7.json")
    t0 = time.perf_counter()
    result = REGISTRY["E7"](cfg, RunContext())
    elapsed = time.perf_counter() - t0
    lams = [float(line.split(",")[3]) for line in result.tables["e7_expansion.csv"][1:]]
    _verdict(
        "A7",
        result.passed,
        f"lambda2 < {cfg['lambda2_threshold']} in >= {cfg['min_pass_seeds']}/10 seeds "
        f"per (n, region); worst observed {max(lams):.4f}; runtime {elapsed:.1f}s < 60s",
    )
    assert result.passed
    assert elapsed < 60.0


def test_a8_quenched_without_doubly_quenched():
    cfg = _cfg("e8.json")
    t0 = time.perf_counter()
    result = REGISTRY["E8"](cfg, RunContext())
    elapsed = time.perf_counter() - t0
    checks = result.summary["checks"]
    _verdict(
        "A8",
        result.passed and elapsed < 10.0,
        f"checks {checks}; runtime {elapsed:.1f}s < 10s",
    )
    for name, value in checks.items():
        assert value, f"E8 check {name} failed"
    assert elapsed < 10.0


def test_a9_pipeline_defects():
    cfg = _cfg("e9.json")
    t0 = time.perf_counter()
    result = REGISTRY["E9"](cfg, RunContext())
    elapsed = time.perf_counter() - t0
    lw1 = result.summary["lw_radius1"]
    dq0 = result.summary["dq_identity"]
    deltas = result.summary["deltas"]
    worst_delta = max(abs(v) for v in deltas.values())
    lw_ok = lw1 < cfg["lw_threshold"]
    dq_ok = dq0 < cfg["dq_threshold"]
    pres_ok = worst_delta <= cfg["preserve_tol"]
    _verdict(
        "A9",
        lw_ok and dq_ok and pres_ok,
        f"lw_r1={lw1} vs < {cfg['lw_threshold']} ({'ok' if lw_ok else 'FAILS'}); "
        f"dq_e={dq0} < {cfg['dq_threshold']} ({'ok' if dq_ok else 'FAILS'}); "
        f"averaging preserves defects, max |delta|={worst_delta:.4f} <= "
        f"{cfg['preserve_tol']} ({'ok' if pres_ok else 'FAILS'}); "
        f"runtime {elapsed:.1f}s < 300s",
    )
    assert dq_ok, f"dq defect {dq0} >= {cfg['dq_threshold']}"
    assert pres_ok, f"averaging moved a defect by {worst_delta} > {cfg['preserve_tol']}"
    assert elapsed < 300.0
    assert lw_ok, (
        f"lw_defect at radius 1 is {lw1}, not < {cfg['lw_threshold']}: this is "
        "the exact local weak* defect of the iid fair-bit measure, the fraction "
        "of vertices whose radius-1 pattern law is >= lw_eps from the product "
        "law; every vertex with an injective window image has that law exactly, "
        "so the defect is at most the fraction of vertices whose radius-1 image "
        "collides, which a good sofic approximation keeps small."
    )


def test_a10_determinism(tmp_path):
    cfg = _cfg("e8.json")
    runs = ("one", "two")
    for name in runs:
        code = run_experiment(cfg, RunContext(out_dir=tmp_path / name))
        assert code == 0
    texts = [(tmp_path / name / "e8_convergence.csv").read_bytes() for name in runs]
    summaries = [(tmp_path / name / "summary.json").read_bytes() for name in runs]
    ok = texts[0] == texts[1] and summaries[0] == summaries[1]
    _verdict("A10", ok, "E8 rerun byte-identical (CSV and summary)")
    assert texts[0] == texts[1], "rerun changed the CSV bytes"
    assert summaries[0] == summaries[1], "rerun changed the summary bytes"
