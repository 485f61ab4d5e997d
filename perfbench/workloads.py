"""The benchmark's workloads: seeded inputs, one pass of work, its checks.

Each workload is driven in three steps by ``run.py``:

* ``setup(tracer)`` builds the inputs from the seed (timed as ``setup_s``);
* ``prepare()`` does untimed work that later passes need;
* ``run_pass(tracer, thorough, repeat)`` times synthesis and the verify
  path, then checks every output outside the timed region.  With
  ``repeat`` each is run several times in the pass (``reps``), each time
  giving one sample: the shorter path of a workload then gets as many
  samples as the longer one, which steadies its median on a noisy machine.

The library only ever sees the generated plants, delay graphs and config
files; the seed stays in this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gate
from delayh2 import cli, config, delaymodel, statespace, synthesis, verify
from delayh2.errors import DelayH2Error

SELF_COUPLING = (1.3, 1.7)
NEIGHBOUR_COUPLING = (0.8, 1.2)
SWEEP_SCALE = (0.9, 1.1)
SWEEP_STRATA = 3

CHAIN_LARGE_SIZES = (12, 16, 20)
CHAIN_VERIFY_SIZES = (3, 4, 5, 6, 7, 8)
SWEEP_N_MAX = 120
# Horizons of the sweep whose controllers go through the verify path; the
# closed-loop order is 2 + 2 + 2N, small enough for the dense norm solve.
SWEEP_VERIFY_HORIZONS = (5, 10, 20)

# configs/two_subsystem_sweep.json, kept here so that the benchmark's inputs
# change only when the benchmark does.
SWEEP_BASE_CONFIG = {
    "plant": {
        "a": [[0.9, 0.0], [0.0, 1.1]],
        "b1": [[1, 0, 0], [1, 0, 0]],
        "b2": [[0.1, 0.0], [0.0, 0.1]],
        "c1": [[1, 1], [0, 0], [0, 0]],
        "c2": [[0.1, 0.0], [0.0, 0.1]],
        "d12": [[0, 0], [1, 0], [0, 1]],
        "d21": [[0, 1, 0], [0, 0, 1]],
        "block_rows": [1, 1],
        "block_cols": [1, 1],
    },
    "patterns": [[[1, 0], [1, 1]]],
    "sweep": {"template": "lower-triangular"},
}


@dataclass
class PassResult:
    """Timings of one pass and what its checks found."""

    synth_samples: list = field(default_factory=list)  # seconds of each synthesis repetition
    verify_samples: list = field(default_factory=list)  # seconds of each verify repetition
    attempted: int = 0
    failures: list = field(default_factory=list)  # one failure-class name per failed check
    norm_gaps: list = field(default_factory=list)  # relative gaps of independent norms

    def fail(self, names) -> None:
        self.failures.extend(names)


def chain_plant(n: int, self_coupling: float, neighbour_coupling: float):
    """n subsystems in a line; each node measures and actuates its own state
    and the performance output weighs states and inputs equally."""
    a = self_coupling * np.eye(n) + neighbour_coupling * (np.eye(n, k=1) + np.eye(n, k=-1))
    eye, zero = np.eye(n), np.zeros((n, n))
    return synthesis.GeneralizedPlant(
        a=a,
        b1=np.hstack([eye, zero]),
        b2=eye,
        c1=np.vstack([eye, zero]),
        c2=eye,
        d12=np.vstack([zero, eye]),
        d21=np.hstack([zero, eye]),
        block_rows=(1,) * n,
        block_cols=(1,) * n,
    )


def chain_graph(n: int):
    """Unit computational delay at each node, unit delay on each link."""
    edges = []
    for i in range(n - 1):
        edges += [(i, i + 1, 1), (i + 1, i, 1)]
    return delaymodel.DelayGraph(n, (1,) * n, tuple(edges))


def reference_failures() -> list[str]:
    """Synthesize the paper's unperturbed three-node chain, with its delay
    pattern and centralized, and compare with the published norms."""
    plant = chain_plant(3, 1.5, 1.0)
    d = delaymodel.delay_matrix(chain_graph(3))
    cs = delaymodel.constraint_space(d, plant.block_rows, plant.block_cols)
    centralized = delaymodel.ConstraintSpace(0, plant.block_rows, plant.block_cols, ())
    try:
        chain = synthesis.synthesize(plant, cs, delays=d).h2_norm
        central = synthesis.synthesize(plant, centralized).h2_norm
    except DelayH2Error as exc:
        return [type(exc).__name__]
    return gate.reference_checks(chain, central)


@dataclass
class _VerifyOutput:
    stable: bool
    conforms: bool
    loop_norm_sq: float = math.nan
    loop_model: object = None


def _timed_verify(tr, plant, controller, space, loop_norm: bool) -> tuple[_VerifyOutput, float]:
    """The verify path on one controller; returns its outputs and seconds."""
    start = time.perf_counter()
    with tr.span("verify.closed_loop"):
        loop = verify.closed_loop(plant, controller)
    with tr.span("verify.stability"):
        stable = loop.is_internally_stable
    with tr.span("verify.conformance"):
        report = verify.conformance(controller, space)
    out = _VerifyOutput(stable, report.ok, loop_model=loop.model)
    if loop_norm and stable:
        with tr.span("verify.loop_norm"):
            out.loop_norm_sq = statespace.h2_norm_sq(loop.model)
    return out, time.perf_counter() - start


@dataclass
class _ChainProblem:
    n: int
    plant: object
    delays: object
    space: object


class ChainWorkload:
    """n-node chains with unit computational and link delays.

    ``loop_norm`` selects the full verify path, which adds the closed-loop
    H2 norm by the library's dense Lyapunov solve.  Its memory grows with
    the fourth power of the loop order (about 4.7 GB at n = 12), so it is
    only ever set for the small chains.
    """

    def __init__(self, name: str, sizes, seed: int, loop_norm: bool, reps=(1, 1)):
        self.name = name
        self.sizes = tuple(sizes)
        self.loop_norm = loop_norm
        self.reps = reps
        rng = np.random.default_rng(seed)
        self.couplings = [
            (float(rng.uniform(*SELF_COUPLING)), float(rng.uniform(*NEIGHBOUR_COUPLING)))
            for _ in self.sizes
        ]
        self.problems: list[_ChainProblem] = []
        self._warm_norms: dict[int, float] = {}

    def describe(self) -> dict:
        return {
            "nodes": list(self.sizes),
            "horizon_N": [n - 1 for n in self.sizes],
            "closed_loop_order": [n + n + n * (n - 1) for n in self.sizes],
            "couplings_self_neighbour": self.couplings,
            "loop_norm": self.loop_norm,
            "reps_synth_verify": list(self.reps),
        }

    def setup(self, tr) -> None:
        problems = []
        for n, (s, c) in zip(self.sizes, self.couplings):
            with tr.span("synthesis.generalized_plant"):
                plant = chain_plant(n, s, c)
            with tr.span("delaymodel.delay_matrix"):
                d = delaymodel.delay_matrix(chain_graph(n))
            with tr.span("delaymodel.constraint_space"):
                cs = delaymodel.constraint_space(d, plant.block_rows, plant.block_cols)
            problems.append(_ChainProblem(n, plant, d, cs))
        self.problems = problems

    def prepare(self) -> list[str]:
        return []

    def close(self) -> None:
        pass

    def run_pass(self, tr, thorough: bool = False, repeat: bool = True) -> PassResult:
        synth_reps, verify_reps = self.reps if repeat else (1, 1)
        res = PassResult(attempted=len(self.problems))
        failed: dict[int, str] = {}
        results, outputs = {}, {}
        for _ in range(synth_reps):
            seconds = 0.0
            for prob in self.problems:
                if prob.n in failed:
                    continue
                start = time.perf_counter()
                try:
                    with tr.span("synthesis.synthesize"):
                        results[prob.n] = synthesis.synthesize(
                            prob.plant, prob.space, delays=prob.delays
                        )
                except DelayH2Error as exc:
                    failed[prob.n] = type(exc).__name__
                seconds += time.perf_counter() - start
            res.synth_samples.append(seconds)
        for _ in range(verify_reps):
            seconds = 0.0
            for prob in self.problems:
                if prob.n in failed:
                    continue
                try:
                    outputs[prob.n], elapsed = _timed_verify(
                        tr, prob.plant, results[prob.n].controller, prob.space, self.loop_norm
                    )
                except DelayH2Error as exc:
                    failed[prob.n] = type(exc).__name__
                    continue
                seconds += elapsed
            res.verify_samples.append(seconds)
        res.fail(failed.values())
        for prob in self.problems:
            if prob.n not in failed:
                gap, failures = self._check(prob, results[prob.n], outputs[prob.n], thorough)
                res.norm_gaps.append(gap)
                res.fail(failures)
        return res

    def _check(self, prob, result, out: _VerifyOutput, thorough: bool) -> tuple[float, list[str]]:
        """Relative gap of the independent norm, and the failed checks."""
        failures = gate.controller_checks(result, out.stable, out.conforms)
        total = result.total_norm_sq
        if self.loop_norm:
            gap = gate.relative_gap(out.loop_norm_sq, total)
            if not gap <= gate.REL_LOOP_NORM:
                failures.append("loop_norm_gap")
            if thorough:
                try:
                    kkt_gap = gate.kkt_cost_gap(prob.plant, prob.space, result.qp_cost)
                except AttributeError:
                    failures.append("kkt_oracle_unavailable")
                else:
                    if not kkt_gap <= gate.REL_KKT:
                        failures.append("kkt_oracle_gap")
        else:
            gap = gate.relative_gap(gate.markov_norm_sq(out.loop_model), total)
            if not gap <= gate.REL_MARKOV:
                failures.append("markov_norm_gap")
        warm = self._warm_norms.setdefault(prob.n, total)
        if gate.relative_gap(total, warm) > gate.REL_REPEAT:
            failures.append("not_repeatable")
        return gap, failures


class SweepWorkload:
    """The paper's increasing-delay experiment through ``delayh2 sweep``.

    Inputs: the two-subsystem sweep config with the modes and the B2/C2
    gains scaled by a seed-drawn factor (the normalization involves
    neither, so it still holds).  The fixed-point DARE's iteration count,
    and with it the sweep's time, moves by up to 20% across [0.9, 1.1], so
    each run draws one factor in each of ``SWEEP_STRATA`` equal parts of
    that range and sweeps each config once per pass, one sample per sweep.
    The verify path checks the controllers of the first config.
    """

    def __init__(self, name: str, seed: int, work_dir: Path, n_max: int = SWEEP_N_MAX,
                 verify_horizons=SWEEP_VERIFY_HORIZONS, verify_reps: int = 1):
        self.name = name
        self.verify_reps = verify_reps
        self.n_max = n_max
        self.verify_horizons = tuple(verify_horizons)
        lo, hi = SWEEP_SCALE
        draws = np.random.default_rng(seed).uniform(size=SWEEP_STRATA)
        self.scales = [float(lo + (hi - lo) * (k + u) / SWEEP_STRATA) for k, u in enumerate(draws)]
        tag = f"{name}-{seed}-{os.getpid()}"
        self.config_paths = [work_dir / f"{tag}-{k}.json" for k in range(SWEEP_STRATA)]
        self.csv_paths = [work_dir / f"{tag}-{k}.csv" for k in range(SWEEP_STRATA)]
        self.plant = None
        self.verify_problems: list = []
        self._warm_norms: dict[tuple, float] = {}

    def describe(self) -> dict:
        return {
            "sweep_N": [1, self.n_max],
            "scales": self.scales,
            "verify_N": list(self.verify_horizons),
            "verify_closed_loop_order": [4 + 2 * n for n in self.verify_horizons],
            "reps_synth_verify": [len(self.scales), self.verify_reps],
        }

    def config_document(self, scale: float) -> dict:
        doc = json.loads(json.dumps(SWEEP_BASE_CONFIG))
        plant = doc["plant"]
        for key in ("a", "b2", "c2"):
            plant[key] = [[scale * v for v in row] for row in plant[key]]
        return doc

    def setup(self, tr) -> None:
        with tr.span("config.write"):
            for scale, path in zip(self.scales, self.config_paths):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(self.config_document(scale), fh)

    def prepare(self) -> list[str]:
        """Synthesize, untimed, the controllers that the verify path checks."""
        cfg = config.load_config(str(self.config_paths[0]))
        self.plant = cfg.plant
        self.verify_problems = []
        try:
            for n in self.verify_horizons:
                space = cfg.sweep_space(n)
                self.verify_problems.append((n, space, synthesis.synthesize(cfg.plant, space)))
        except DelayH2Error as exc:
            return [type(exc).__name__]
        return []

    def close(self) -> None:
        for path in self.config_paths + self.csv_paths:
            with contextlib.suppress(FileNotFoundError):
                path.unlink()

    def _sweep(self, tr, k: int, res: PassResult) -> dict[int, float]:
        """One timed sweep of config k; returns the norms of its CSV."""
        argv = [
            "sweep", "--config", str(self.config_paths[k]),
            "--n-min", "1", "--n-max", str(self.n_max), "--out", str(self.csv_paths[k]),
        ]
        start = time.perf_counter()
        with tr.span("cli.sweep"), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        res.synth_samples.append(time.perf_counter() - start)
        if code != 0:
            res.fail([f"sweep_exit_{code}"])
            return {}
        text = self.csv_paths[k].read_text(encoding="utf-8")
        failures, norms = gate.sweep_csv(text, 1, self.n_max)
        res.fail(failures)
        for n, norm in norms.items():
            warm = self._warm_norms.setdefault((k, n), norm)
            if gate.relative_gap(norm, warm) > gate.REL_REPEAT:
                res.fail(["not_repeatable"])
        return norms

    def run_pass(self, tr, thorough: bool = False, repeat: bool = True) -> PassResult:
        """Sweeps every config (only the first without ``repeat``), then
        verifies the first config's controllers."""
        sweeps = len(self.scales) if repeat else 1
        res = PassResult(attempted=sweeps * self.n_max + len(self.verify_problems))
        norms = [self._sweep(tr, k, res) for k in range(sweeps)][0]

        failed: dict[int, str] = {}
        outputs = {}
        for _ in range(self.verify_reps if repeat else 1):
            seconds = 0.0
            for n, space, result in self.verify_problems:
                if n in failed:
                    continue
                try:
                    outputs[n], elapsed = _timed_verify(
                        tr, self.plant, result.controller, space, True
                    )
                except DelayH2Error as exc:
                    failed[n] = type(exc).__name__
                    continue
                seconds += elapsed
            res.verify_samples.append(seconds)
        res.fail(failed.values())
        for n, _, result in self.verify_problems:
            if n in failed:
                continue
            out = outputs[n]
            res.fail(gate.controller_checks(result, out.stable, out.conforms))
            gap = gate.relative_gap(out.loop_norm_sq, result.total_norm_sq)
            res.norm_gaps.append(gap)
            if not gap <= gate.REL_LOOP_NORM:
                res.fail(["loop_norm_gap"])
            csv_gap = gate.relative_gap(math.sqrt(out.loop_norm_sq), norms.get(n, math.nan))
            if not csv_gap <= gate.REL_CSV:
                res.fail(["csv_norm_gap"])
        return res


def make(name: str, seed: int, work_dir: Path):
    if name == "chain-large":
        return ChainWorkload(name, CHAIN_LARGE_SIZES, seed, loop_norm=False, reps=(1, 5))
    if name == "chain-verify":
        return ChainWorkload(name, CHAIN_VERIFY_SIZES, seed, loop_norm=True, reps=(10, 1))
    if name == "delay-sweep":
        return SweepWorkload(name, seed, work_dir, verify_reps=5)
    raise ValueError(f"unknown workload {name!r}")
