"""Acceptance checks: six end-to-end criteria the build must satisfy.

Each check returns a ``CriterionResult`` instead of raising, so the CLI can
print one pass/fail line per criterion and the test suite can assert on the
same objects. Oracles here are computed independently of the library code
under test (plain closed-form arithmetic, linear-space Bayes), so agreement
is evidence rather than tautology.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from ..environments import TrapWorldConfig, bernoulli_step, trap_sample_world, trap_step
from ..inframeasure import (
    AMeasure,
    Infradistribution,
    lower_expectation,
    mix_knightian,
    prune,
)
from ..updates import condition
from ..worldmodels import (
    STATELESS,
    BernoulliArmsModel,
    ExplicitFiniteModel,
    FiniteOutcomeMeasure,
    NewcombModel,
)
from .config import DEFAULT_SEED, ExperimentConfig
from .runner import (
    BOOT_STREAM,
    ENV_STREAM,
    catastrophe_rates,
    classical_belief,
    derive_stream,
    final_cumulative_regrets,
    ku_knightian_belief,
    run_experiment,
    run_newcomb_sweep,
    trap_ib_belief,
    trap_model,
)
from .stats import bootstrap_percentiles


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of one criterion; ``run_all`` fills in its wall time."""

    number: int
    name: str
    passed: bool
    detail: str
    seconds: float | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        elapsed = "" if self.seconds is None else f" ({self.seconds:.1f} s)"
        return f"criterion {self.number} ({self.name}): {status}{elapsed} - {self.detail}"


def _result(number: int, name: str, problems: list[str], ok_detail: str) -> CriterionResult:
    if problems:
        return CriterionResult(number, name, False, "; ".join(problems))
    return CriterionResult(number, name, True, ok_detail)


# ---------------------------------------------------------------------------
# Criterion 1: classical recovery under matched seeds
# ---------------------------------------------------------------------------


def check_classical_recovery(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Single-point robust agent vs classical Bayes agent: identical actions
    and identical cumulative regret, exactly, on every run."""
    cfg = ExperimentConfig("validate-classical", seed=seed)
    records = run_experiment(cfg)
    by_agent: dict[str, dict[tuple[int, int], tuple[int, float, float]]] = {}
    for rec in records:
        by_agent.setdefault(rec.agent, {})[(rec.episode, rec.step)] = (
            rec.action,
            rec.cum_regret,
            rec.cum_exp_regret,
        )
    ib, bayes = by_agent["ib_single"], by_agent["bayes"]
    problems = []
    if set(ib) != set(bayes):
        problems.append("agents produced different (episode, step) coverage")
    else:
        mismatches = sum(1 for key in ib if ib[key] != bayes[key])
        if mismatches:
            problems.append(
                f"{mismatches} of {len(ib)} steps differ in action or cumulative regret"
            )
    episodes = {rec.episode for rec in records}
    steps = max(rec.step for rec in records) + 1
    return _result(
        1,
        "classical recovery",
        problems,
        f"{len(episodes)} runs x {steps} steps: actions and cumulative regret "
        "identical with zero tolerance",
    )


# ---------------------------------------------------------------------------
# Criterion 2: conditioning equals a discrete-Bayes oracle
# ---------------------------------------------------------------------------


def _oracle_posterior(grid: np.ndarray, weights: np.ndarray, pulls: int, successes: int) -> np.ndarray:
    likelihood = np.power(grid, successes) * np.power(1.0 - grid, pulls - successes)
    post = weights * likelihood
    return post / post.sum()


def check_conditioning_oracle(seed: int = DEFAULT_SEED, instances: int = 1000) -> CriterionResult:
    """Posterior predictives after the full conditioning pipeline match
    linear-space discrete Bayes within 1e-9 on random instances."""
    rng = derive_stream(seed, 9, 2)
    worst = 0.0
    problems = []
    for _ in range(instances):
        arms = int(rng.integers(1, 4))
        grid_size = int(rng.integers(2, 9))
        grid = rng.random(grid_size)
        if rng.random() < 0.25:
            grid[0] = 0.0
        if rng.random() < 0.25:
            grid[-1] = 1.0
        weights = rng.dirichlet(np.ones(grid_size))
        model = BernoulliArmsModel(arms)
        values = np.tile([0.0, 1.0], (arms, 1))
        belief = classical_belief(model, model.grid_measure(grid, weights))
        pulls = [0] * arms
        successes = [0] * arms
        for _ in range(int(rng.integers(0, 31))):
            arm = int(rng.integers(arms))
            post = _oracle_posterior(grid, weights, pulls[arm], successes[arm])
            outcome = 1 if rng.random() < float(post @ grid) else 0
            event = model.observation(arm, outcome, model.arm_return(arm, values))
            belief = condition(belief, event)
            pulls[arm] += 1
            successes[arm] += outcome
        for arm in range(arms):
            oracle = float(_oracle_posterior(grid, weights, pulls[arm], successes[arm]) @ grid)
            pipeline = lower_expectation(belief, model.arm_return(arm, values))
            worst = max(worst, abs(pipeline - oracle))
    if worst > 1e-9:
        problems.append(f"worst predictive deviation {worst:.3e} exceeds 1e-9")
    return _result(
        2,
        "conditioning oracle",
        problems,
        f"{instances} random grid instances: worst predictive deviation {worst:.3e}",
    )


# ---------------------------------------------------------------------------
# Criterion 3: interval-bandit worst-case geometry
# ---------------------------------------------------------------------------


def check_ku_geometry(seed: int = DEFAULT_SEED) -> CriterionResult:
    """The robust agent always pulls arm 2; its worst-case regret slope is
    0.3 per step versus 0.5 for the worst corner-prior classical agent."""
    cfg = ExperimentConfig("ku-bandit", seed=seed, settings={"runs": 100, "steps": 100})
    records = run_experiment(cfg)
    problems = []
    ib_actions = [rec.action for rec in records if rec.agent == "ib"]
    if any(a != 1 for a in ib_actions):
        off = sum(1 for a in ib_actions if a != 1)
        problems.append(f"robust agent left arm 2 on {off} of {len(ib_actions)} steps")
    finals = final_cumulative_regrets(records)
    ib_final = finals["ib"]
    if np.max(np.abs(ib_final - 30.0)) > 1e-9:
        problems.append(f"robust final expected regret {ib_final.max():.9f} != 30.0")
    corner_worst = max(
        float(np.max(values)) for agent, values in finals.items() if agent != "ib"
    )
    if abs(corner_worst - 50.0) > 1e-9:
        problems.append(f"worst corner-prior final expected regret {corner_worst:.9f} != 50.0")
    return _result(
        3,
        "interval bandit geometry",
        problems,
        f"100 runs x 100 steps: arm 2 every step; final expected regret "
        f"{float(ib_final[0]):.6f} vs worst corner {corner_worst:.6f}",
    )


# ---------------------------------------------------------------------------
# Criterion 4: predictor-accuracy sweep
# ---------------------------------------------------------------------------


def check_newcomb_curve(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Policy flips from two-boxing to one-boxing at accuracy 0.55; mean
    rewards track the analytic curve; the three closed-form cells are exact."""
    cfg = ExperimentConfig("newcomb", seed=seed)
    _, summaries = run_newcomb_sweep(cfg)
    problems = []
    for cell in summaries:
        if cell.alpha <= 0.545 and cell.selected_one_box_rate != 0.0:
            problems.append(
                f"accuracy {cell.alpha:.2f}: one-box rate {cell.selected_one_box_rate} != 0"
            )
        if cell.alpha >= 0.555 and cell.selected_one_box_rate != 1.0:
            problems.append(
                f"accuracy {cell.alpha:.2f}: one-box rate {cell.selected_one_box_rate} != 1"
            )
        margin = 3.0 * cell.reward_se + 1e-12
        if abs(cell.mean_reward - cell.mean_policy_value) > margin:
            problems.append(
                f"accuracy {cell.alpha:.2f}: mean reward {cell.mean_reward:.4f} off the "
                f"analytic value {cell.mean_policy_value:.4f} by more than 3 SE"
            )
    exact = {0.50: 6.0, 0.55: 5.5, 1.00: 10.0}
    for alpha, expected in exact.items():
        cell = next(c for c in summaries if abs(c.alpha - alpha) < 1e-12)
        if abs(cell.mean_policy_value - expected) > 1e-9:
            problems.append(
                f"accuracy {alpha:.2f}: expected-value column {cell.mean_policy_value!r} != {expected}"
            )
    return _result(
        4,
        "predictor sweep",
        problems,
        f"{len(summaries)} accuracy cells x 1000 episodes: two-box through 0.545, "
        "one-box from 0.555, rewards 6.0/5.5/10.0 at 0.50/0.55/1.00, all cells within 3 SE",
    )


# ---------------------------------------------------------------------------
# Criterion 5: trap bandit orderings
# ---------------------------------------------------------------------------


def check_trap_bandit(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Risky condition: robust regret is tiny and survives; misspecified
    greedy Bayes walks into the trap. Mostly-safe condition: caution costs
    the robust agent a constant factor."""
    roster = ("ib", "greedy_prior0.99", "greedy_prior0.01")
    risky_cfg = ExperimentConfig(
        "trap-bandit", seed=seed, settings={"agents": roster, "env.alpha_dgp": 0.99}
    )
    safe_cfg = ExperimentConfig(
        "trap-bandit", seed=seed, settings={"agents": roster, "env.alpha_dgp": 0.01}
    )
    risky_records = run_experiment(risky_cfg)
    safe_records = run_experiment(safe_cfg)
    risky_finals = final_cumulative_regrets(risky_records)
    safe_finals = final_cumulative_regrets(safe_records)
    risky_cats = catastrophe_rates(risky_records)
    problems = []

    ib_risky = risky_finals["ib"]
    positive = ib_risky[ib_risky > 1e-9]
    if positive.size == 0:
        problems.append("no robust run had positive expected regret")
    elif abs(positive.min() - 9.6) > 1e-9:
        problems.append(
            f"minimum positive robust run regret {positive.min():.9f} != 9.6 "
            "(one trap pull)"
        )

    boots = {
        (label, cond): bootstrap_percentiles(
            finals[label], 0.5, 10000, derive_stream(seed, BOOT_STREAM, i)
        )
        for i, (label, cond, finals) in enumerate(
            [(lbl, cond, fin) for cond, fin in (("risky", risky_finals), ("safe", safe_finals))
             for lbl in roster]
        )
    }
    p50_ib_risky = boots[("ib", "risky")].estimate
    p50_mis = boots[("greedy_prior0.01", "risky")].estimate
    if not p50_mis > 20.0 * p50_ib_risky:
        problems.append(
            f"misspecified greedy p50 {p50_mis:.2f} not > 20x robust p50 {p50_ib_risky:.2f}"
        )
    if not risky_cats["greedy_prior0.01"] > 0.5:
        problems.append(
            f"misspecified greedy catastrophe rate {risky_cats['greedy_prior0.01']:.3f} not > 0.5"
        )
    well = boots[("greedy_prior0.99", "risky")]
    robust = boots[("ib", "risky")]
    if not (well.ci_low <= robust.ci_high and robust.ci_low <= well.ci_high):
        problems.append(
            f"well-specified greedy p50 CI [{well.ci_low:.2f}, {well.ci_high:.2f}] does not "
            f"overlap robust CI [{robust.ci_low:.2f}, {robust.ci_high:.2f}]"
        )
    p50_ib_safe = boots[("ib", "safe")].estimate
    p50_greedy_safe = boots[("greedy_prior0.01", "safe")].estimate
    if not (p50_ib_safe > 0.0 and p50_ib_safe >= 10.0 * p50_greedy_safe):
        problems.append(
            f"mostly-safe condition: robust p50 {p50_ib_safe:.2f} not >= 10x "
            f"well-specified greedy p50 {p50_greedy_safe:.2f}"
        )
    return _result(
        5,
        "trap bandit",
        problems,
        f"risky p50: robust {p50_ib_risky:.2f}, well-specified greedy "
        f"{boots[('greedy_prior0.99', 'risky')].estimate:.2f}, misspecified greedy {p50_mis:.2f} "
        f"(catastrophe rate {risky_cats['greedy_prior0.01']:.3f}); "
        f"safe p50: robust {p50_ib_safe:.2f} vs greedy {p50_greedy_safe:.2f}",
    )


# ---------------------------------------------------------------------------
# Criterion 6: algebra property suite
# ---------------------------------------------------------------------------


def _random_finite_belief(rng: np.random.Generator, model: ExplicitFiniteModel, k: int) -> Infradistribution:
    points = []
    for _ in range(k):
        masses = rng.dirichlet(np.ones(model.outcome_count)) * rng.random()
        points.append(
            AMeasure(
                2.0 * rng.random(),
                FiniteOutcomeMeasure(tuple(masses)),
                2.0 * rng.random(),
                model,
            )
        )
    return Infradistribution(tuple(points))


def _check_pruning(rng: np.random.Generator, problems: list[str]) -> float:
    worst = 0.0
    for _ in range(100):
        model = ExplicitFiniteModel(int(rng.integers(2, 6)))
        psi = _random_finite_belief(rng, model, int(rng.integers(1, 7)))
        pruned = prune(psi, convex=True)
        for _ in range(10):
            f = model.return_function(rng.random(model.outcome_count))
            gap = abs(lower_expectation(pruned, f) - lower_expectation(psi, f))
            worst = max(worst, gap)
    if worst > 1e-12:
        problems.append(f"pruning moved a lower expectation by {worst:.3e} > 1e-12")
    return worst


def _dyadic_point(rng: np.random.Generator, model: ExplicitFiniteModel) -> AMeasure:
    masses = rng.integers(0, 5, model.outcome_count) / 64.0
    return AMeasure(
        float(rng.integers(1, 5)) / 4.0,
        FiniteOutcomeMeasure(tuple(masses)),
        float(rng.integers(0, 9)) / 8.0,
        model,
    )


def _effective(a: AMeasure) -> tuple[np.ndarray, float]:
    return a.scale * np.asarray(a.measure.masses), a.offset


def _check_linearity(rng: np.random.Generator, problems: list[str]) -> int:
    """Raw updates are linear in (scaled measure, offset). Checked exactly on
    dyadic-valued instances, where float arithmetic is error-free."""
    from ..updates import raw_update

    failures = 0
    for _ in range(200):
        n = int(rng.integers(2, 6))
        model = ExplicitFiniteModel(n)
        kept = [i for i in range(n) if rng.random() < 0.5]
        if not kept or len(kept) == n:
            kept = [int(rng.integers(n))]
        g = model.return_function(rng.integers(0, 9, n) / 8.0)
        event = model.observation(kept, g)
        a1, a2 = _dyadic_point(rng, model), _dyadic_point(rng, model)
        u1, u2 = raw_update(a1, event, None), raw_update(a2, event, None)
        for c in (0.5, 2.0):
            scaled = AMeasure(c * a1.scale, a1.measure, c * a1.offset, model)
            us = raw_update(scaled, event, None)
            vs, bs = _effective(us)
            v1, b1 = _effective(u1)
            if not (np.array_equal(vs, c * v1) and bs == c * b1):
                failures += 1
        combined = AMeasure(
            1.0,
            FiniteOutcomeMeasure(
                tuple(
                    a1.scale * np.asarray(a1.measure.masses)
                    + a2.scale * np.asarray(a2.measure.masses)
                )
            ),
            a1.offset + a2.offset,
            model,
        )
        uc = raw_update(combined, event, None)
        vc, bc = _effective(uc)
        v1, b1 = _effective(u1)
        v2, b2 = _effective(u2)
        if not (np.array_equal(vc, v1 + v2) and bc == b1 + b2):
            failures += 1
    if failures:
        problems.append(f"raw-update linearity failed exactly on {failures} dyadic instances")
    return failures


def _check_unit_normalization(seed: int, problems: list[str]) -> float:
    """After every conditioning step in every experiment regime, the
    constants 0 and 1 must evaluate to 0 and 1 within 1e-9."""
    worst = 0.0

    def probe_bandit(belief: Infradistribution, arms: int, outcomes: int) -> float:
        model = belief.model
        zeros = model.policy_return([1.0 / arms] * arms, np.zeros((arms, outcomes)))
        ones = model.policy_return([1.0 / arms] * arms, np.ones((arms, outcomes)))
        return max(
            abs(lower_expectation(belief, zeros)),
            abs(lower_expectation(belief, ones) - 1.0),
        )

    # Classical-recovery regime: grid posterior over two Bernoulli arms.
    model = BernoulliArmsModel(2)
    values = np.tile([0.0, 1.0], (2, 1))
    belief = classical_belief(model, model.grid_measure(np.linspace(0.0, 1.0, 11)))
    env_rng = derive_stream(seed, 6, 0, ENV_STREAM)
    for _ in range(60):
        arm = int(env_rng.integers(2))
        outcome = bernoulli_step((0.3, 0.7)[arm], env_rng)
        belief = condition(belief, model.observation(arm, outcome, model.arm_return(arm, values)))
        worst = max(worst, probe_bandit(belief, 2, 2))

    # Interval-bandit regime: four corner hypotheses under the worst case.
    belief = ku_knightian_belief(model, ((0.3, 0.7), (0.4, 0.8)))
    for _ in range(60):
        arm = int(env_rng.integers(2))
        outcome = bernoulli_step(0.5, env_rng)
        belief = condition(belief, model.observation(arm, outcome, model.arm_return(arm, values)))
        worst = max(worst, probe_bandit(belief, 2, 2))

    # Trap regime: safe-or-risky two-point belief fed by a risky world.
    env = TrapWorldConfig(alpha_dgp=1.0)
    jmodel, raw_support, jvalues = trap_model(env)
    belief = trap_ib_belief(jmodel, env)
    world = trap_sample_world(env, env_rng)
    for _ in range(60):
        arm = int(env_rng.integers(2))
        reward = trap_step(world, env, arm, env_rng)
        outcome = int(np.argmin([abs(reward - r) for r in raw_support]))
        belief = condition(
            belief, jmodel.observation(arm, outcome, jmodel.arm_return(arm, jvalues))
        )
        worst = max(worst, probe_bandit(belief, 2, 3))

    # Predictor regime: conditioning is the identity on the belief.
    nmodel = NewcombModel(accuracy=0.8)
    belief = Infradistribution.singleton(AMeasure(1.0, STATELESS, 0.0, nmodel))
    for _ in range(5):
        belief = condition(belief, nmodel.observation())
        point = belief.points[0]
        worst = max(worst, abs(point.offset), abs(point.scale - 1.0))

    if worst > 1e-9:
        problems.append(f"unit normalization drifted by {worst:.3e} > 1e-9 after conditioning")
    return worst


def _check_knightian_envelope(rng: np.random.Generator, problems: list[str]) -> int:
    failures = 0
    for _ in range(200):
        model = ExplicitFiniteModel(int(rng.integers(2, 6)))
        parts = [
            _random_finite_belief(rng, model, int(rng.integers(1, 4)))
            for _ in range(int(rng.integers(2, 5)))
        ]
        union = mix_knightian(parts)
        f = model.return_function(rng.random(model.outcome_count))
        direct = lower_expectation(union, f)
        enveloped = min(lower_expectation(p, f) for p in parts)
        if direct != enveloped:
            failures += 1
    if failures:
        problems.append(f"worst-case envelope identity failed on {failures} instances")
    return failures


def _check_exchangeability(rng: np.random.Generator, problems: list[str]) -> int:
    """Permuting an observation sequence leaves a classical bandit posterior
    (and its predictives) exactly unchanged: counts are sufficient."""
    failures = 0
    model = BernoulliArmsModel(2)
    values = np.tile([0.0, 1.0], (2, 1))
    for _ in range(50):
        grid = rng.random(int(rng.integers(2, 7)))
        weights = rng.dirichlet(np.ones(grid.size))
        sequence = [
            (int(rng.integers(2)), int(rng.integers(2))) for _ in range(20)
        ]
        results = []
        for order in (sequence, [sequence[i] for i in rng.permutation(len(sequence))]):
            belief = classical_belief(model, model.grid_measure(grid, weights))
            for arm, outcome in order:
                belief = condition(
                    belief, model.observation(arm, outcome, model.arm_return(arm, values))
                )
            point = belief.points[0]
            preds = tuple(
                lower_expectation(belief, model.arm_return(arm, values)) for arm in range(2)
            )
            results.append((point.scale, point.offset, belief.history, preds))
        if results[0] != results[1]:
            failures += 1
    if failures:
        problems.append(f"bandit history exchangeability failed on {failures} instances")
    return failures


def check_algebra_properties(seed: int = DEFAULT_SEED) -> CriterionResult:
    problems: list[str] = []
    rng = derive_stream(seed, 9, 6)
    prune_gap = _check_pruning(rng, problems)
    _check_linearity(rng, problems)
    norm_gap = _check_unit_normalization(seed, problems)
    _check_knightian_envelope(rng, problems)
    _check_exchangeability(rng, problems)
    return _result(
        6,
        "algebra properties",
        problems,
        f"pruning gap {prune_gap:.2e}; exact dyadic linearity; unit drift {norm_gap:.2e}; "
        "worst-case envelope and history exchangeability exact",
    )


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    """All six acceptance criteria, in numbered order, each with its wall
    time in seconds."""
    results = []
    for check in (
        check_classical_recovery,
        check_conditioning_oracle,
        check_ku_geometry,
        check_newcomb_curve,
        check_trap_bandit,
        check_algebra_properties,
    ):
        start = time.perf_counter()
        result = check(seed)
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results
