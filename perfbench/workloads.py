"""Workload inputs, passes and output checks for the soficlab benchmark.

Every input is generated from the workload seed. At the default seed the
first pass runs the committed `configs/*.json` unchanged, and its artifacts
must match `results/` byte for byte. Later passes, and every pass at another
seed, run configs whose seed fields are drawn from (seed, pass); their outputs
are checked for structure, for the verdicts the paper's inequalities force,
and against the golden rows where the inputs are a reordering of the
committed ones.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# numpy is imported inside the functions that use it: the launcher imports this
# module before it pins the BLAS and OpenMP thread pools

DEFAULT_SEED = 0

EXPERIMENTS: Dict[str, Tuple[str, ...]] = {
    "enum-scan": ("E3", "E5", "E6"),
    "defect-cover-oracle": ("E4", "E9", "E1", "E2", "E7", "E8"),
}
# the workload that also queries a fresh tree-Markov oracle in every pass
ORACLE_WORKLOAD = "defect-cover-oracle"
WORKLOADS = tuple(EXPERIMENTS)

# experiments whose verdict is an inequality of the paper (covering/packing
# chains, subadditivity with inclusion), so they pass at every seed
THEOREM_CHECKS = ("E2", "E3")

ORACLE_RADIUS = 2
# the oracle is queried on the first 15 of the 17 elements of the radius-2 ball
# of F2 (the identity, the four generators and ten words of length 2), a
# suffix-closed set with 2^15 patterns; all 2^17 patterns of the ball would make
# the interpreter-bound query a quarter of the pass and most of its run-to-run
# spread
ORACLE_ELEMENTS = 15


def _key(*parts) -> int:
    """64-bit integer drawn from the parts; stable across Python and numpy versions."""
    text = "/".join(str(p) for p in parts)
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def _seed_value(*parts) -> int:
    return _key(*parts) >> 33


def _unit(*parts) -> float:
    return _key(*parts) / 2.0**64


def config_checksum(cfg: dict) -> str:
    """The checksum the program stamps on artifacts, recomputed independently."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(canon.encode(), digest_size=6).hexdigest()


def make_config(base: dict, seed: int, pass_index: int) -> dict:
    """The config run in pass `pass_index` at workload seed `seed`.

    Seed fields are redrawn. The E5/E6 epsilons are calibrated to their own
    seeds, so those (seed, epsilon) pairs are reordered rather than redrawn.
    """
    cfg = copy.deepcopy(base)
    if seed == DEFAULT_SEED and pass_index == 0:
        return cfg
    key = (seed, pass_index, cfg["experiment"])
    if "epsilons" in cfg:
        order = sorted(range(len(cfg["seeds"])), key=lambda i: _key(*key, "order", i))
        cfg["seeds"] = [base["seeds"][i] for i in order]
        cfg["epsilons"] = [base["epsilons"][i] for i in order]
        return cfg
    if "seed" in cfg:
        cfg["seed"] = _seed_value(*key, "seed")
    for name in ("seeds", "stability_seeds"):
        if name in cfg:
            cfg[name] = [_seed_value(*key, name, i) for i in range(len(cfg[name]))]
    return cfg


def chain(seed: int, pass_index: int) -> Tuple[List[List[float]], List[float]]:
    """Transition matrix and stationary vector of the two-state chain of one
    oracle pass; every two-state chain is reversible at its stationary vector."""
    p = 0.15 + 0.7 * _unit(seed, pass_index, "oracle", "p")
    q = 0.15 + 0.7 * _unit(seed, pass_index, "oracle", "q")
    return [[1 - p, p], [q, 1 - q]], [q / (p + q), p / (p + q)]


@dataclass
class Op:
    """One operation: a config run or an oracle query."""

    name: str
    seconds: float
    problems: List[str] = field(default_factory=list)


@dataclass
class Pass:
    ops: List[Op]
    digest: str
    artifact_bytes: int

    @property
    def seconds(self) -> float:
        return sum(op.seconds for op in self.ops)

    def op_seconds(self, name: str) -> float:
        return sum(op.seconds for op in self.ops if op.name == name)


def _read_lines(path: Path) -> List[str]:
    return path.read_text().splitlines()


def check_artifacts(cfg: dict, base: dict, golden: Path, out: Path, code: int) -> List[str]:
    """Problems with one config run's artifacts; empty when they are correct."""
    exp = cfg["experiment"]
    if code == 1:
        return [f"{exp}: exit code 1"]
    if (out / "diagnostic.json").exists():
        return [f"{exp}: wrote diagnostic.json"]
    golden_code = 0 if json.loads((golden / "summary.json").read_text())["passed"] else 2
    names = sorted(p.name for p in golden.iterdir())
    got = sorted(p.name for p in out.iterdir())
    if got != names:
        return [f"{exp}: artifacts {got}, expected {names}"]
    if cfg == base:
        problems = [f"{exp}: {n} differs from results/" for n in names if (out / n).read_bytes() != (golden / n).read_bytes()]
        if code != golden_code:
            problems.append(f"{exp}: exit code {code}, golden verdict {golden_code}")
        return problems

    problems = []
    checksum = config_checksum(cfg)
    if code not in (0, 2):
        problems.append(f"{exp}: exit code {code}")
    summary = json.loads((out / "summary.json").read_text())
    if summary.get("experiment") != exp or summary.get("config_checksum") != checksum:
        problems.append(f"{exp}: summary.json names another experiment or config")
    if summary.get("passed") != (code == 0):
        problems.append(f"{exp}: summary verdict disagrees with exit code {code}")
    if exp in THEOREM_CHECKS and code != 0:
        problems.append(f"{exp}: an inequality that holds at every seed failed")
    reordered = "epsilons" in cfg
    if reordered and code != golden_code:
        problems.append(f"{exp}: exit code {code} on reordered golden inputs, golden verdict {golden_code}")
    for n in names:
        if not n.endswith(".csv"):
            continue
        lines, ref = _read_lines(out / n), _read_lines(golden / n)
        if lines[:1] != [f"# config_checksum={checksum}"] or lines[1:2] != ref[1:2] or len(lines) != len(ref):
            problems.append(f"{exp}: {n} has the wrong stamp, header or row count")
        elif reordered and sorted(lines[2:]) != sorted(ref[2:]):
            problems.append(f"{exp}: {n} rows differ from the golden rows")
    return problems


def _artifact_digest(out_dirs: Sequence[Path], extra: Sequence[Tuple[str, bytes]] = ()) -> Tuple[str, int]:
    h = hashlib.blake2b(digest_size=16)
    total = 0
    blobs = [(f"{out.name}/{path.name}", path.read_bytes()) for out in out_dirs for path in sorted(out.iterdir())]
    for name, data in [*blobs, *extra]:
        total += len(data)
        h.update(f"{name}:{len(data)}\n".encode())
        h.update(data)
    return h.hexdigest(), total


class ExperimentWorkload:
    """Runs the workload's configs through `soficlab.cli.main`, one pass at a
    time; an oracle workload ends each pass with a fresh oracle query."""

    def __init__(self, name: str, seed: int, root: Path, work: Path):
        self.name = name
        self.oracle = name == ORACLE_WORKLOAD
        self.seed = seed
        self.root = root
        self.work = work
        self.experiments = EXPERIMENTS[name]
        self.bases = {
            e: json.loads((root / "configs" / f"{e.lower()}.json").read_text()) for e in self.experiments
        }

    def config_paths(self, pass_index: int) -> List[Tuple[str, dict, Path]]:
        cfg_dir = self.work / f"pass{pass_index}" / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        out = []
        for e in self.experiments:
            cfg = make_config(self.bases[e], self.seed, pass_index)
            path = cfg_dir / f"{e.lower()}.json"
            path.write_text(json.dumps(cfg, indent=2) + "\n")
            out.append((e, cfg, path))
        return out

    def run_pass(self, pass_index: int, cli_main: Callable[[List[str]], int], label: str = "", on_op=None) -> Pass:
        out_root = self.work / f"pass{pass_index}" / f"out{label}"
        if out_root.exists():
            shutil.rmtree(out_root)
        ops = []
        outs = []
        for exp, cfg, path in self.config_paths(pass_index):
            out = out_root / exp.lower()
            if on_op is not None:
                on_op(exp)
            sink = io.StringIO()
            error: Optional[str] = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    code = cli_main(["run", str(path), "--out", str(out)])
            except Exception as exc:  # a raise is a failed operation, not a crash of the benchmark
                code, error = 1, f"{exp}: raised {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
            if error is not None:
                problems = [error]
            elif not out.is_dir():
                problems = [f"{exp}: wrote no artifacts"]
            else:
                problems = check_artifacts(cfg, self.bases[exp], self.root / "results" / exp.lower(), out, code)
                outs.append(out)
            ops.append(Op(exp, seconds, problems))
        extra = []
        if self.oracle:
            oracle_ops, marginal = run_oracle(self.seed, pass_index, on_op)
            ops.extend(oracle_ops)
            extra.append(("oracle/marginal", marginal))
        digest, nbytes = _artifact_digest(outs, extra)
        return Pass(ops, digest, nbytes)


def tree_markov_reference(transition, initial, elements):
    """Marginal of a two-state tree Markov chain on a ball of the left Cayley
    tree: pi(x_e) times P(x_parent, x_child) over the tree edges, where the
    parent of a reduced word drops its first letter."""
    import numpy as np

    P = np.asarray(transition, dtype=np.float64)
    pi = np.asarray(initial, dtype=np.float64)
    m = len(elements)
    pos = {tuple(w): i for i, w in enumerate(elements)}
    codes = np.arange(1 << m, dtype=np.int64)

    def state(i: int):  # symbol at position i of every pattern, one column at a time
        return (codes >> (m - 1 - i)) & 1

    probs = pi[state(pos[()])]
    for w, i in pos.items():
        if w:
            probs = probs * P[state(pos[w[1:]]), state(i)]
    return probs


def run_oracle(seed: int, pass_index: int, on_op=None) -> Tuple[List[Op], bytes]:
    """Query a fresh tree-Markov oracle on ORACLE_ELEMENTS elements of the
    radius-2 ball of F2, twice.

    Returns the two operations (the first query and the cached repeat) and
    the bytes of the marginal, which the pass digest covers.
    """
    import numpy as np
    from soficlab.groups import GroupSpec
    from soficlab.processes import tree_markov

    transition, initial = chain(seed, pass_index)
    if on_op is not None:
        on_op("oracle")
    start = time.perf_counter()
    try:
        group = GroupSpec.free(2)
        elements = group.ball(ORACLE_RADIUS).elements[:ORACLE_ELEMENTS]
        oracle = tree_markov(transition, initial, group)
        first = oracle.marginal_elems(elements)
        built = time.perf_counter()
        if on_op is not None:
            on_op("oracle-repeat")
        second = oracle.marginal_elems(elements)
    except Exception as exc:  # a raise is a failed operation, not a crash of the benchmark
        problem = f"oracle: raised {type(exc).__name__}: {exc}"
        return [Op("oracle", time.perf_counter() - start, [problem])], b""
    done = time.perf_counter()

    problems = []
    ref = tree_markov_reference(transition, initial, elements)
    if first.shape != ref.shape or not np.allclose(first, ref, rtol=1e-12, atol=0.0):
        problems.append("oracle: marginal differs from the tree product formula")
    if abs(float(first.sum()) - 1.0) > 1e-12:
        problems.append("oracle: marginal does not sum to 1")
    repeat = [] if np.array_equal(first, second) else ["oracle: repeated query returned another marginal"]
    ops = [Op("oracle", built - start, problems), Op("oracle-repeat", done - built, repeat)]
    return ops, np.ascontiguousarray(first).tobytes()
