"""Reproducible batch experiments E1..E9.

Each experiment consumes a JSON config (all seeds explicit), emits CSV tables
whose first line carries the config checksum, writes a summary.json with its
pass/fail verdict, and is byte-deterministic for a fixed config.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import covering as cov
from . import models as mod
from .config import config_checksum, validate_config
from .convergence import (
    dispersion,
    dq_defect,
    h_average,
    lw_defect,
    models_to_measure,
    pair_vertex_stat,
    quenched_defect,
)
from .covering import ModelMeasure, pair_configs, random_coupling
from .entropy import entropy_curve, shannon_entropy
from .groups import GroupSpec, Window, coind_group
from .processes import (
    MarginalOracle,
    bernoulli,
    coinduced,
    coset_iid,
    decode_patterns,
    periodic_orbit,
    product_process,
    tree_markov,
    tv_distance,
)
from .randomness import categorical, derive_seed, pool_map, stream
from .sofic import (
    partitioned_random,
    product as product_map,
    quotient_map,
    random_uniform,
    schreier_spectral_gaps,
)

CONV_HEADER = "n,vertices,F_radius,epsilon,lw_defect,q_defect,dq_defect,dispersion_clusters"


@dataclass
class RunContext:
    budget: int = mod.ENUM_BUDGET
    plot: bool = False
    out_dir: Optional[Path] = None


@dataclass
class ExperimentResult:
    passed: bool
    tables: Dict[str, List[str]] = field(default_factory=dict)  # filename -> lines (no checksum line)
    summary: dict = field(default_factory=dict)
    plots: Dict[str, str] = field(default_factory=dict)  # filename -> svg text


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _csv(header: str, rows: Sequence[Sequence]) -> List[str]:
    return [header] + [",".join(_fmt(v) for v in row) for row in rows]


def _svg_lines(series: Dict[str, List[Tuple[float, float]]], title: str) -> str:
    """Minimal line plot; axes scaled to the data, one polyline per series."""
    width, height, pad = 640, 400, 48
    pts = [p for ps in series.values() for p in ps]
    xs = [p[0] for p in pts] or [0.0, 1.0]
    ys = [p[1] for p in pts if math.isfinite(p[1])] or [0.0, 1.0]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def sx(x: float) -> float:
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width/2}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height-pad+16}" font-size="10">{x0:g}</text>',
        f'<text x="{width-pad}" y="{height-pad+16}" font-size="10" text-anchor="end">{x1:g}</text>',
        f'<text x="{pad-4}" y="{height-pad}" font-size="10" text-anchor="end">{y0:g}</text>',
        f'<text x="{pad-4}" y="{pad+4}" font-size="10" text-anchor="end">{y1:g}</text>',
    ]
    for idx, (name, ps) in enumerate(sorted(series.items())):
        finite = [(x, y) for x, y in ps if math.isfinite(y)]
        if not finite:
            continue
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in finite)
        color = colors[idx % len(colors)]
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{path}"/>')
        lx, ly = finite[-1]
        parts.append(f'<text x="{sx(lx)+4:.2f}" y="{sy(ly):.2f}" font-size="10" fill="{color}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def _unique_configs(gen: np.random.Generator, count: int, vertices: int) -> np.ndarray:
    """`count` distinct binary configurations on `vertices` vertices, in draw
    order; `validate_config` refuses a count above 2^vertices."""
    rows: List[tuple] = []
    seen = set()
    while len(rows) < count:
        block = gen.integers(0, 2, size=(count, vertices))
        for r in map(tuple, block):
            if r not in seen:
                seen.add(r)
                rows.append(r)
                if len(rows) == count:
                    break
    return np.array(rows, dtype=np.uint8)


# -- E1: Bernoulli entropy vs Shannon ------------------------------------------------


def run_e1(cfg: dict, ctx: RunContext) -> ExperimentResult:
    group = GroupSpec.integers()
    sizes = cfg["sizes"]
    eps = cfg["eps"]
    tol = cfg["tolerance"]
    rows = []
    passed = True
    series: Dict[str, List[Tuple[float, float]]] = {}
    for weights in cfg["weight_sets"]:
        mu = bernoulli(weights, group)
        target = shannon_entropy(weights)
        curve = entropy_curve(mu, eps, sizes)
        label = "/".join(repr(float(w)) for w in weights)
        for row in curve.rows:
            err = abs(row.value - target)
            rows.append((label, row.n, row.n, 0, eps, row.value, target, err, "letter-exact"))
            series.setdefault(label, []).append((row.n, row.value))
        final_err = abs(curve.rows[-1].value - target)
        if final_err > tol:
            passed = False
    table = _csv(
        "weights,n,vertices,F_radius,epsilon,normalized_nats,shannon_nats,abs_error,method", rows
    )
    result = ExperimentResult(passed, {"e1_entropy.csv": table}, {"tolerance": tol})
    if ctx.plot:
        result.plots["e1_entropy.svg"] = _svg_lines(series, "normalized log-count vs |V|")
    return result


# -- E2: covering/packing inequality suite -------------------------------------------


def run_e2(cfg: dict, ctx: RunContext) -> ExperimentResult:
    seed = cfg["seed"]
    vertices = cfg["vertices"]
    eps = cfg["eps"]
    rows = []
    all_hold = True

    def note(instance: int, check: str, lhs, rhs, holds: bool) -> None:
        nonlocal all_hold
        rows.append((instance, check, lhs, rhs, int(holds)))
        if not holds:
            all_hold = False

    ambient = decode_patterns(2, vertices)
    amb = ambient.shape[0]
    for i in range(cfg["instances"]):
        gen = stream(seed, "e2", i)
        d_points = cov.pairwise_hamming(_unique_configs(gen, cfg["set_size"], vertices))
        for delta in cfg["deltas"]:
            c_half = cov.cov_delta_matrix(d_points, delta / 2, method="exact").value
            p_full = cov.pack_delta_matrix(d_points, delta, method="exact").value
            c_full = cov.cov_delta_matrix(d_points, delta, method="exact").value
            note(i, f"set-chain-left@{delta}", c_half, p_full, c_half >= p_full)
            note(i, f"set-chain-right@{delta}", p_full, c_full, p_full >= c_full)
            g_cov = cov.cov_delta_matrix(d_points, delta, method="greedy").value
            g_pack = cov.pack_delta_matrix(d_points, delta, method="greedy").value
            note(i, f"greedy-cov-ge-exact@{delta}", g_cov, c_full, g_cov >= c_full)
            note(i, f"greedy-pack-le-exact@{delta}", g_pack, p_full, g_pack <= p_full)

        atoms = cfg["support_atoms"]
        sup_mu = _unique_configs(gen, atoms, vertices)
        sup_nu = _unique_configs(gen, atoms, vertices)
        w_mu = gen.random(atoms) + 0.1
        w_mu /= w_mu.sum()
        w_nu = gen.random(atoms) + 0.1
        w_nu /= w_nu.sum()
        # with d_points, the instance's four distance matrices: mu's atoms among
        # themselves, and every configuration (the centres) to each support
        d_mu = cov.pairwise_hamming(sup_mu)
        dx_cc = cov.pairwise_hamming(ambient, sup_mu)
        dy_cc = cov.pairwise_hamming(ambient, sup_nu)
        for delta in cfg["deltas"]:
            mc_half = cov.cov_eps_delta_matrix(dx_cc, w_mu, eps, delta / 2).value
            mp = cov.pack_eps_delta_matrix(d_mu, w_mu, eps, delta).value
            mc_full = cov.cov_eps_delta_matrix(dx_cc, w_mu, eps, delta).value
            note(i, f"measure-chain-left@{delta}", mc_half, mp, mc_half >= mp)
            note(i, f"measure-chain-right@{delta}", mp, mc_full, mp >= mc_full)

        # pair metric: the half-sum of the factor metrics, from every pair of
        # centres to every pair of atoms, atom pair (l, r) in column l * atoms + r
        delta = cfg["deltas"][0]
        pw = np.outer(w_mu, w_nu).ravel()
        pli = np.repeat(np.arange(atoms), atoms)
        pri = np.tile(np.arange(atoms), atoms)
        prod_dist = (0.5 * dx_cc[:, None, pli] + 0.5 * dy_cc[None, :, pri]).reshape(amb * amb, pw.size)

        # coupling bound: the coupling's atoms are columns of prod_dist
        plan = random_coupling(derive_seed(seed, "e2-coupling", i), w_mu, w_nu)
        li, ri = np.nonzero(plan > 0)
        lam_w = plan[li, ri]
        pair_dist = prod_dist[:, li * atoms + ri]
        lam_cov = cov.cov_eps_delta_matrix(pair_dist, lam_w, eps, delta).value
        mu_half = cov.cov_eps_delta_matrix(dx_cc, w_mu, eps / 2, delta).value
        nu_half = cov.cov_eps_delta_matrix(dy_cc, w_nu, eps / 2, delta).value
        note(i, "coupling-bound", lam_cov, mu_half * nu_half, lam_cov <= mu_half * nu_half)

        # product lower bound at delta/4 vs sqrt(eps) factors
        prod_cov = cov.cov_eps_delta_matrix(prod_dist, pw, eps, delta / 4).value
        root = math.sqrt(eps)
        mu_root = cov.cov_eps_delta_matrix(dx_cc, w_mu, root, delta).value
        nu_root = cov.cov_eps_delta_matrix(dy_cc, w_nu, root, delta).value
        note(i, "product-lower-bound", prod_cov, mu_root * nu_root, prod_cov >= mu_root * nu_root)

    table = _csv("instance,check,lhs,rhs,holds", rows)
    return ExperimentResult(all_hold, {"e2_inequalities.csv": table}, {"instances": cfg["instances"]})


# -- E3: subadditivity inclusion suite ------------------------------------------------


def _random_process(gen: np.random.Generator, group: GroupSpec) -> MarginalOracle:
    if gen.random() < 0.5:
        p = 0.2 + 0.6 * gen.random()
        return bernoulli([p, 1 - p], group)
    # random reversible 2-state chain: every 2-state chain satisfies detailed
    # balance at its stationary vector
    p = 0.15 + 0.7 * gen.random()
    q = 0.15 + 0.7 * gen.random()
    pi = [q / (p + q), p / (p + q)]
    return tree_markov([[1 - p, p], [q, 1 - q]], pi, group)


def run_e3(cfg: dict, ctx: RunContext) -> ExperimentResult:
    """Subadditivity |Omega_eps(mu x nu)| <= |Omega_2eps(mu)| |Omega_2eps(nu)|
    and 2 eps inclusion of the projections of every eps-good pair model, on
    Z-cycle instances at radius 1 and F2 instances at radius 0.

    At radius 0 the window is {e}: membership depends only on the letter type
    and not on sigma, so the counts are `letter_frequency_count`'s and the
    violations `letter_projections_outside`'s, exact sums over types, and no
    sigma is built. They are the numbers that enumerating the three sets at
    any sigma gives, decided by the same float rows. The Z instances enumerate
    the three sets and decide the projections of the pair rows by the
    good-model test."""
    seed = cfg["seed"]
    eps = cfg["eps"]
    rows = []
    passed = True
    for i in range(cfg["instances"]):
        gen = stream(seed, "e3", i)
        vertices = cfg["vertices"][i % len(cfg["vertices"])]
        group, radius = (GroupSpec.integers(), 1) if i % 2 == 0 else (GroupSpec.free(2), 0)
        mu = _random_process(gen, group)
        nu = _random_process(gen, group)
        pair = product_process(mu, nu)
        window = group.ball(radius)
        if len(window) == 1:
            counts = [
                mod.letter_frequency_count(oracle.one_dim(), vertices, e).count
                for oracle, e in ((pair, eps), (mu, 2 * eps), (nu, 2 * eps))
            ]
            violations = mod.letter_projections_outside(
                pair.one_dim(), mu.one_dim(), nu.one_dim(), vertices, eps, 2 * eps
            )
        else:
            sigma = quotient_map(group, vertices)
            got, good_x, good_y = (
                mod.enumerate_good_models(sigma, oracle, window, e, budget=ctx.budget)
                for oracle, e in ((pair, eps), (mu, 2 * eps), (nu, 2 * eps))
            )
            counts = [got.count, good_x.count, good_y.count]
            # a pair model violates inclusion when a projection is outside its 2eps set
            violations = mod.projections_outside(sigma, mu, nu, window, got.configs, 2 * eps)
        subadd = counts[0] <= counts[1] * counts[2]
        passed = passed and violations == 0 and subadd
        rows.append((i, vertices, radius, eps, *counts, violations, int(subadd)))
    table = _csv("instance,vertices,F_radius,epsilon,pair_count,mu_count_2eps,nu_count_2eps,inclusion_violations,subadd_holds", rows)
    return ExperimentResult(passed, {"e3_subadditivity.csv": table}, {})


# -- E4: Bernoulli quenched/doubly-quenched convergence -------------------------------


def run_e4(cfg: dict, ctx: RunContext) -> ExperimentResult:
    """Defects of the iid model measure against the Bernoulli process: one
    row per (size, radius), and at the largest size the radius-1 quenched and
    F = {e} pair defects across independent approximation seeds. Each row and
    each stability seed is a unit that builds its own sigma and oracle (an
    oracle's marginal cache is the one mutable object units could share) and
    draws from its own streams, so the units run side by side on the worker
    pool; the rows keep config order."""
    seed = cfg["seed"]
    eps = cfg["eps"]
    samples = cfg["samples"]
    group = GroupSpec.free(2)
    sizes = cfg["sizes"]

    def setup(s: int, n: int) -> tuple:
        mu = bernoulli(cfg["weights"], group)
        return random_uniform(group, n, derive_seed(s, "sigma", n)), mu, ModelMeasure.iid(n, mu.weights)

    def row(n: int, radius: int) -> tuple:
        sigma, mu, nu = setup(seed, n)
        window = group.ball(radius)
        lw = lw_defect(sigma, nu, mu, window, eps)
        q = quenched_defect(sigma, nu, mu, window, eps, samples, derive_seed(seed, "q", n, radius))
        dq = dq_defect(sigma, nu, mu, window, eps, samples, derive_seed(seed, "dq", n, radius))
        disp = dispersion(sigma, nu, mu, window, cfg["dispersion_samples"], derive_seed(seed, "disp", n, radius))
        return (n, sigma.n, radius, eps, lw, q, dq, disp.cluster_count)

    # stability: the quenched (radius 1) and pair (F = {e}) defects at the
    # largest size across independent approximation seeds
    def stability(s: int) -> tuple:
        n = sizes[-1]
        sigma, mu, nu = setup(s, n)
        q1 = quenched_defect(sigma, nu, mu, group.ball(1), eps, samples, derive_seed(s, "q", n, 1))
        dq0 = dq_defect(sigma, nu, mu, Window(group, [group.identity()]), eps, samples, derive_seed(s, "dq", n, 0))
        ok = q1 < cfg["q_threshold"] and dq0 < cfg["dq_threshold"]
        return (s, n, q1, dq0, int(ok))

    units = [functools.partial(row, n, radius) for n in sizes for radius in (0, 1)]
    units += [functools.partial(stability, s) for s in cfg["stability_seeds"]]
    done = pool_map(lambda unit: unit(), units)
    rows, stab_rows = done[: 2 * len(sizes)], done[2 * len(sizes) :]
    final: Dict[str, float] = {}
    for _, _, radius, _, lw, q, dq, _ in rows[-2:]:
        final.update({f"lw_r{radius}": lw, f"q_r{radius}": q, f"dq_r{radius}": dq})
    series = {"q_r1": [(r[0], r[5]) for r in rows[1::2]], "dq_r0": [(r[0], r[6]) for r in rows[0::2]]}
    stab_ok = all(r[4] for r in stab_rows)
    passed = final["q_r1"] < cfg["q_threshold"] and final["dq_r0"] < cfg["dq_threshold"] and stab_ok
    tables = {
        "e4_convergence.csv": _csv(CONV_HEADER, rows),
        "e4_stability.csv": _csv("seed,vertices,q_defect_r1,dq_defect_e,ok", stab_rows),
    }
    result = ExperimentResult(passed, tables, {"final": final})
    if ctx.plot:
        result.plots["e4_convergence.svg"] = _svg_lines(series, "Bernoulli defects vs n")
    return result


# -- E5/E6: the coset-iid example -----------------------------------------------------


def _coind_setup(cfg: dict):
    """The coset-iid process and the window of a run, built once for all its
    seeds so that each marginal is computed once; only sigma is per seed."""
    group = coind_group()
    return coset_iid(cfg["mu0"], group), group.ball(cfg["radius"])


def run_e5(cfg: dict, ctx: RunContext) -> ExperimentResult:
    """Good-model clustering near 1_W at n = 4.

    The per-seed epsilon values are frozen from a brute-force calibration: each
    is the largest threshold below which no good model lies farther than the
    Hamming bound from 1_W (the enumeration is strict, so that model itself is
    excluded). A seed passes when its set is nonempty and fully within the
    bound; empty sets are finite-size exceptions and are reported, not passed.
    """
    rows = []
    pass_seeds = 0
    nu, window = _coind_setup(cfg)
    ident = (nu.group.identity(),)
    for s, eps in zip(cfg["seeds"], cfg["epsilons"]):
        sigma = partitioned_random(cfg["n"], s)
        one_w = np.zeros(sigma.n, dtype=np.uint8)
        one_w[sigma.partition["W"]] = 1
        freqs = mod.counts_over_elements(sigma, one_w, ident, nu.alphabet.size) / float(sigma.n)
        tv_e = tv_distance(freqs, nu.marginal_elems(ident))
        got = mod.enumerate_good_models(sigma, nu, window, eps, budget=ctx.budget)
        if got.count:
            dists = (got.configs != one_w[None, :]).mean(axis=1)
            max_ham = float(dists.max())
            within = bool((dists <= cfg["hamming_threshold"]).all())
            contains_1w = bool((dists == 0.0).any())
        else:
            max_ham = float("nan")
            within = False
            contains_1w = False
        ok = got.count > 0 and within
        pass_seeds += int(ok)
        rows.append((s, eps, got.count, tv_e, max_ham, int(contains_1w), int(within)))
    passed = pass_seeds >= cfg["min_pass_seeds"] and all(r[3] == 0.0 for r in rows)
    table = _csv("seed,epsilon,good_count,one_w_tv_at_e,max_hamming_to_one_w,contains_one_w,all_within", rows)
    return ExperimentResult(passed, {"e5_clustering.csv": table}, {"pass_seeds": pass_seeds})


def run_e6(cfg: dict, ctx: RunContext) -> ExperimentResult:
    pair_eps = cfg["pair_eps"]
    cert_eps = 2 * pair_eps
    rows = []
    passed = True
    nu, window = _coind_setup(cfg)
    pair = product_process(nu, nu)
    ident = (nu.group.identity(),)
    target_e = pair.marginal_elems(ident)
    base = nu.alphabet.size
    for s, eps in zip(cfg["seeds"], cfg["epsilons"]):
        sigma = partitioned_random(cfg["n"], s)
        # widest set that matters: the calibrated set union the emptiness
        # certificate set (projections of any pair-good model are 2 eps-good,
        # so a pair search over the 2 eps enumeration certifies emptiness)
        got = mod.enumerate_good_models(sigma, nu, window, max(eps, cert_eps), budget=ctx.budget)
        configs = got.configs
        # the calibrated set is the part of the search set that is eps-good
        star = int(mod.good_mask(sigma, nu, window, configs, eps).sum())
        k = configs.shape[0]
        pair_good, max_f10, min_tv = 0, 0.0, 1.0
        # one atom's k pairs at a time: a search set can hold tens of
        # thousands of models, too many to hold all k^2 pairs at once
        for atom in configs:
            pairs = pair_configs(atom[None, :], configs, base)
            freqs = mod.counts_over_elements(sigma, pairs, ident, base * base) / sigma.n
            tvs = tv_distance(freqs, target_e)
            pair_good += int((tvs < pair_eps).sum())
            max_f10 = max(max_f10, float(freqs[:, base].max()))  # column `base` is the letter (1, 0)
            min_tv = min(min_tv, float(tvs.min()))
        passed = passed and pair_good == 0
        rows.append((s, star, got.count, k * k, pair_good, max_f10, min_tv))
    table = _csv(
        "seed,good_count_calibrated,search_set_count,pairs_checked,pair_good_count,max_joint_10_freq,min_pair_tv",
        rows,
    )
    # the pair good set is certified empty only when no seed found a pair-good candidate
    log = "-inf" if passed else ""
    hps_rows = [(2, cfg["n"], cfg["radius"], pair_eps, log, log, "certified-empty" if passed else "not-certified")]
    hps = _csv("k,n,F_radius,epsilon,log_count_nats,normalized_nats,method", hps_rows)
    summary = {"target_pair_freq": float(target_e[base]), "certificate_eps": cert_eps}
    return ExperimentResult(passed, {"e6_pair_search.csv": table, "e6_hps.csv": hps}, summary)


# -- E7: Schreier expansion -----------------------------------------------------------


def run_e7(cfg: dict, ctx: RunContext) -> ExperimentResult:
    rows = []
    passed = True
    for n in cfg["ns"]:
        sigmas = [partitioned_random(n, s) for s in cfg["seeds"]]
        for region in ("U", "W"):
            reports = schreier_spectral_gaps([(sigma, sigma.partition[region]) for sigma in sigmas], cfg["generators"])
            hits = sum(report.lambda2 < cfg["lambda2_threshold"] for report in reports)
            passed = passed and hits >= cfg["min_pass_seeds"]
            for s, report in zip(cfg["seeds"], reports):
                rows.append((n, region, s, report.lambda2, report.lambda2_signed, report.cheeger_lower))
    table = _csv("n,region,seed,lambda2,lambda2_signed,cheeger_lower", rows)
    return ExperimentResult(passed, {"e7_expansion.csv": table}, {})


# -- E8: quenched without doubly-quenched on Z-cycles ---------------------------------


def run_e8(cfg: dict, ctx: RunContext) -> ExperimentResult:
    group = GroupSpec.integers()
    mu = periodic_orbit("01", group)
    eps = cfg["eps"]
    rows = []
    checks: Dict[str, bool] = {}
    disp_json: Optional[dict] = None
    for n in cfg["ns"]:
        vertices = 2 * n
        sigma = quotient_map(group, vertices)
        x0 = (np.arange(vertices) % 2).astype(np.uint8)
        x1 = ((np.arange(vertices) + 1) % 2).astype(np.uint8)
        nu = ModelMeasure.from_support(np.stack([x0, x1]), np.array([0.5, 0.5]))
        ball = group.ball(1)
        lw = lw_defect(sigma, nu, mu, ball, eps)
        q = quenched_defect(sigma, nu, mu, ball, eps)
        dq = dq_defect(sigma, nu, mu, ball, eps)

        # pair-measure dispersion over the two-element window {e, a}
        ea = Window(group, [group.identity(), (1,)])
        pair = product_process(mu, mu)
        disp = dispersion(
            sigma, ModelMeasure.from_support(*nu.pairs(2)), pair, ea, threshold=cfg["cluster_threshold"]
        )
        stat = pair_vertex_stat(
            sigma, nu, mu, ea, cfg["pair_eps"], cfg["vertex_pairs"], seed=derive_seed(cfg["seed"], "e8", n)
        )
        rows.append((n, vertices, 1, eps, lw, q, dq, disp.cluster_count))
        if n == cfg["ns"][-1]:
            target = pair.marginal_elems(ea.elements)
            ctvs = disp.centroid_tvs(target)
            checks = {
                "q_exactly_zero": q == 0.0,
                "two_clusters": disp.cluster_count == 2,
                "masses_half": all(abs(m - 0.5) <= 1e-12 for m in disp.masses),
                "centroid_tv_half": all(abs(t - 0.5) <= 1e-9 for t in ctvs),
                "barycentre_matches": disp.barycentre_tv <= 1e-9,
                "pair_vertex_stat": stat >= cfg["pair_stat_threshold"],
            }
            disp_json = disp.to_json()
            disp_json["pair_vertex_stat"] = stat
    passed = all(checks.values())
    table = _csv(CONV_HEADER, rows)
    return ExperimentResult(passed, {"e8_convergence.csv": table}, {"checks": checks, "dispersion": disp_json})


# -- E9: models-to-measure and H-averaging pipeline -----------------------------------


def run_e9(cfg: dict, ctx: RunContext) -> ExperimentResult:
    """Defects of a plain approximation, then their shifts under H-averaging
    on a product approximation: one unit per (window, defect), each with its
    own co-induced oracle (a marginal cache is the one mutable object units
    could share) and streams, so the six units run on the worker pool."""
    seed = cfg["seed"]
    group = GroupSpec.free(2)
    mu = bernoulli([0.5, 0.5], group)

    # phase 1: plain approximation. The lw rows are exact for the iid
    # fair-bit measure nu itself; q and dq are read on the empirical measure
    # rho of k independent exact samples from nu.
    n = cfg["vertices"]
    sigma = random_uniform(group, n, derive_seed(seed, "e9-sigma"))
    nu = ModelMeasure.iid(n, [0.5, 0.5])
    # ^ 1: these fair bits are 1 where the uniform draw is below 1/2, where
    # categorical gives 0; flipping keeps the law and the committed bytes
    samples = categorical(stream(seed, "e9-samples"), [0.5, 0.5], (cfg["k"], n)) ^ 1
    rho = models_to_measure(samples)
    ball1 = group.ball(1)
    ident = Window(group, [group.identity()])
    lw1 = lw_defect(sigma, nu, mu, ball1, cfg["lw_eps"])
    lw0 = lw_defect(sigma, nu, mu, ident, cfg["lw_eps"])
    q0 = quenched_defect(sigma, rho, mu, ident, cfg["lw_eps"])
    dq0 = dq_defect(sigma, rho, mu, ident, cfg["dq_eps"])
    plain_rows = [
        (n, n, 1, cfg["lw_eps"], lw1, "", "", ""),
        (n, n, 0, cfg["lw_eps"], lw0, q0, dq0, ""),
    ]

    # phase 2: product approximation, co-induced Bernoulli, H-averaging
    h_spec = GroupSpec.integers()
    sig_g = random_uniform(group, cfg["product_v"], derive_seed(seed, "e9-left"))
    tau = quotient_map(h_spec, cfg["product_w"])
    st = product_map(sig_g, tau)
    theta_samples = categorical(stream(seed, "e9-theta"), [0.5, 0.5], (cfg["k"], st.n)) ^ 1
    theta = models_to_measure(theta_samples)
    elems = [h_spec.identity()]
    for _ in range(cfg["averaging_window"] - 1):
        elems.append(h_spec.multiply(elems[-1], (1,)))
    averaged = h_average(st, theta, elems)

    pg = st.group
    cross = Window(pg, [pg.identity(), ((1,), ()), ((), (1,))])
    ident_p = Window(pg, [pg.identity()])
    eps_p = cfg["preserve_eps"]
    pair_draws = cfg["dq_pair_samples"]

    def shift(name: str, window: Window, kind: str, fn: Callable) -> Tuple[str, float]:
        mu_co = coinduced(bernoulli([0.5, 0.5], group), h_spec)
        before = fn(st, theta, mu_co, window, eps_p)
        # lw and q read the averaged support exactly and ignore the draw
        # arguments; only dq's atom pairs are past pair_cap, so only dq draws
        draw_seed = derive_seed(seed, f"e9-avg-{kind}", name)
        after = fn(st, averaged, mu_co, window, eps_p, samples=pair_draws, seed=draw_seed)
        return f"{kind}_{name}", abs(after - before)

    units = [
        functools.partial(shift, name, window, kind, fn)
        for name, window in (("e", ident_p), ("cross", cross))
        for kind, fn in (("lw", lw_defect), ("q", quenched_defect), ("dq", dq_defect))
    ]
    deltas = dict(pool_map(lambda unit: unit(), units))
    preserve_ok = all(d <= cfg["preserve_tol"] for d in deltas.values())

    checks = {
        "lw_radius1": lw1 < cfg["lw_threshold"],
        "dq_identity": dq0 < cfg["dq_threshold"],
        "averaging_preserves": preserve_ok,
    }
    passed = all(checks.values())
    table = _csv(CONV_HEADER, plain_rows)
    avg_rows = [(k, repr(v)) for k, v in sorted(deltas.items())]
    avg_table = _csv("defect,abs_delta", avg_rows)
    summary = {"checks": checks, "deltas": deltas, "lw_radius1": lw1, "dq_identity": dq0}
    return ExperimentResult(passed, {"e9_pipeline.csv": table, "e9_averaging.csv": avg_table}, summary)


REGISTRY: Dict[str, Callable[[dict, RunContext], ExperimentResult]] = {
    "E1": run_e1,
    "E2": run_e2,
    "E3": run_e3,
    "E4": run_e4,
    "E5": run_e5,
    "E6": run_e6,
    "E7": run_e7,
    "E8": run_e8,
    "E9": run_e9,
}

def out_dir_for(cfg: dict, override: Optional[Path]) -> Path:
    """Where a run of a validated config writes: the override, else the
    config's out_dir, else results/<experiment>."""
    if override is not None:
        return override
    return Path(cfg.get("out_dir", f"results/{cfg['experiment'].lower()}"))


def run_experiment(cfg: dict, ctx: RunContext) -> int:
    """Execute one experiment config; returns the process exit code."""
    problems = validate_config(cfg)
    if problems:
        raise ValueError("; ".join(problems))
    exp = cfg["experiment"]
    checksum = config_checksum(cfg)
    result = REGISTRY[exp](cfg, ctx)
    # made only now, so that a refusal inside the experiment leaves no directory
    out = out_dir_for(cfg, ctx.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, lines in result.tables.items():
        text = "\n".join([f"# config_checksum={checksum}"] + lines) + "\n"
        (out / name).write_text(text)
    if ctx.plot:
        for name, svg in result.plots.items():
            (out / name).write_text(svg + "\n")
    summary = {
        "experiment": exp,
        "passed": result.passed,
        "config_checksum": checksum,
        "tables": sorted(result.tables),
        **result.summary,
    }
    (out / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2, default=float) + "\n")
    # a refusal of an earlier run left its diagnostic here; this run supersedes it
    (out / "diagnostic.json").unlink(missing_ok=True)
    return 0 if result.passed else 2


__all__ = [
    "RunContext",
    "ExperimentResult",
    "REGISTRY",
    "run_experiment",
    "out_dir_for",
]
