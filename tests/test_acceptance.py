"""Acceptance suite: one test per release criterion.

Each test exercises a full pipeline with pinned seeds and tolerances and
records a single pass/fail line that the terminal summary prints after
the run. Tolerances are fixed here, not tuned to the suite's output.
"""

import time

import numpy as np
import pytest

from icshadows import (
    ConstrainedLAD,
    DensityMatrix,
    FrequencyBias,
    GlobalDuals,
    LinearInversionPSD,
    Partition,
    PauliObservable,
    bell_pair_chain,
    canonical_duals,
    canonical_global,
    duality_residual,
    duals_from_weights,
    estimate,
    exact_moments,
    exact_variance,
    ghz_state,
    greedy_partition,
    klo_duals,
    marginal_counts,
    maximally_mixed,
    naive_partition,
    optimal_duals,
    optimize_product_duals,
    pauli6_product,
    product_state,
    reconstruct,
    reduced_density,
    rmse_experiment,
    sample_shots,
    state_mse,
    toy_mixed,
    toy_pure,
    write_dataset,
)
from icshadows.frames import DUALITY_TOL
from icshadows.povm import outcome_probabilities
from icshadows.sampling import joint_probabilities

from . import conftest
from .conftest import random_density
from .test_estimation import brute_force_moments


def record(num, name, ok, detail):
    conftest.ACCEPTANCE_RESULTS[num] = (name, ok, detail)
    assert ok, f"criterion {num} ({name}): {detail}"


def _random_words(rng, n, count):
    return ["".join(rng.choice(list("IXYZ"), size=n)) for _ in range(count)]


def test_criterion_01_duality_bound_all_constructors():
    start = time.perf_counter()
    povm = pauli6_product(3)
    ghz = ghz_state(3)
    zeros = product_state("000")
    ds = sample_shots(ghz, povm, 2000, seed=3)
    backends = [FrequencyBias(36.0), LinearInversionPSD(), ConstrainedLAD()]

    frames = []
    for group in [(0,), (1, 2), (0, 1, 2)]:
        effects = povm.group_effects(group)
        frames.append(canonical_duals(effects, group=group))
        frames.append(optimal_duals(reduced_density(ghz, group), effects, group=group))
        # |000> zeroes some outcome probabilities, exercising the floor
        frames.append(optimal_duals(reduced_density(zeros, group), effects, group=group))
        for backend in backends:
            est, _ = reconstruct(marginal_counts(ds, group), povm, backend)
            frames.append(optimal_duals(est, effects, group=group))
    for k in (1, 2, 3):
        for backend in backends:
            frames.extend(klo_duals(ds, k=k, backend=backend).frames)

    worst = max(duality_residual(f.duals, f.effects) for f in frames)
    elapsed = time.perf_counter() - start
    ok = worst <= DUALITY_TOL and elapsed < 10.0
    record(1, "duality bound, every constructor", ok,
           f"max residual {worst:.2e} over {len(frames)} frames, {elapsed:.1f}s")


def test_criterion_02_variance_matches_enumeration():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    povm = pauli6_product(2)
    worst = 0.0
    for trial in range(100):
        rho = random_density(rng, 4)
        state = DensityMatrix(2, rho)
        words = _random_words(rng, 2, 3)
        obs = PauliObservable.from_terms(
            list(zip(rng.normal(size=3), words))
        )
        if trial % 2 == 0:
            part = Partition.singletons(2)
            duals = GlobalDuals(part, tuple(
                duals_from_weights(
                    povm.group_effects(g), rng.uniform(0.2, 5.0, 6), group=g
                )
                for g in part.groups
            ))
        else:
            part = Partition.single_group(2)
            duals = GlobalDuals(part, (
                duals_from_weights(
                    povm.group_effects((0, 1)), rng.uniform(0.2, 5.0, 36), group=(0, 1)
                ),
            ))
        mean, second = exact_moments(state, povm, duals, obs)
        bmean, bsecond = brute_force_moments(rho, duals, obs)
        worst = max(worst, abs(mean - bmean), abs(
            (second - mean * mean) - (bsecond - bmean * bmean)
        ))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 30.0
    record(2, "factorized variance equals enumeration", ok,
           f"max deviation {worst:.2e} over 100 triples, {elapsed:.1f}s")


def test_criterion_03_optimal_duals_dominate():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    povm = pauli6_product(2)
    effects = povm.group_effects((0, 1))
    state = DensityMatrix(2, random_density(rng, 4))
    part = Partition.single_group(2)

    opt = GlobalDuals(part, (optimal_duals(state, effects, group=(0, 1)),))
    can = GlobalDuals(part, (canonical_duals(effects, group=(0, 1)),))
    randoms = [
        GlobalDuals(part, (duals_from_weights(
            effects, rng.uniform(0.2, 5.0, 36), group=(0, 1)
        ),))
        for _ in range(20)
    ]
    pool = _random_words(rng, 2, 50)
    violations = 0
    for _ in range(50):
        words = rng.choice(pool, size=4, replace=False)
        obs = PauliObservable.from_terms(list(zip(rng.normal(size=4), words)))
        v_opt = exact_variance(state, povm, opt, obs)
        if v_opt > exact_variance(state, povm, can, obs) + 1e-9:
            violations += 1
            continue
        if any(v_opt > exact_variance(state, povm, r, obs) + 1e-9 for r in randoms):
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    record(3, "optimal duals never beaten", ok,
           f"{violations} violations over 50 observables x 21 rivals, {elapsed:.1f}s")


def test_criterion_04_h2_variance_benchmarks(h2_4q, h2_4q_ground, povm4):
    start = time.perf_counter()
    energy, psi = h2_4q_ground
    v_can = exact_variance(psi, povm4, canonical_global(povm4), h2_4q)

    group = (0, 1, 2, 3)
    effects = povm4.group_effects(group)
    klo4 = GlobalDuals(
        Partition.single_group(4),
        (optimal_duals(reduced_density(psi, group), effects, group=group),),
    )
    v_klo = exact_variance(psi, povm4, klo4, h2_4q)
    elapsed = time.perf_counter() - start
    ok = abs(v_can / 1.97 - 1.0) <= 0.05 and v_klo <= 0.70 and elapsed < 120.0
    record(4, "H2 canonical 1.97 +/- 5%, 4-local <= 0.70", ok,
           f"canonical {v_can:.4f}, 4-local {v_klo:.4f}, {elapsed:.1f}s")


def test_criterion_05_toy_family_sweep():
    start = time.perf_counter()
    povm = pauli6_product(2)
    zz = PauliObservable.single("ZZ")
    qs = [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0]
    singles = Partition.singletons(2)
    pair = Partition.single_group(2)

    endpoint_spread = 0.0
    crossings = {"mixed": False, "pure": False}
    order_ok = True
    for family, make in (("mixed", toy_mixed), ("pure", toy_pure)):
        for q in qs:
            state = make(q)
            rho = reduced_density(state, range(2))
            probs = joint_probabilities(state, povm, range(2))
            frames = {
                "can": canonical_global(povm, singles),
                "1lo": GlobalDuals(singles, tuple(
                    optimal_duals(reduced_density(state, [i]),
                                  povm.group_effects([i]), group=(i,))
                    for i in range(2)
                )),
                "opt1": optimize_product_duals(probs, singles, rho)[0],
                "2lo": GlobalDuals(pair, (
                    optimal_duals(rho, povm.group_effects((0, 1)), group=(0, 1)),
                )),
            }
            var = {k: exact_variance(state, povm, f, zz) for k, f in frames.items()}
            mse = {k: state_mse(f, probs, rho) for k, f in frames.items()}
            if q in (0.0, 1.0):
                local = [var["1lo"], var["opt1"], var["2lo"]]
                endpoint_spread = max(endpoint_spread, max(local) - min(local))
            if var["can"] < var["1lo"] - 1e-12:
                crossings[family] = True
            if var["2lo"] > min(var.values()) + 1e-9:
                order_ok = False
            if mse["1lo"] > mse["can"] + 1e-9:
                order_ok = False
    elapsed = time.perf_counter() - start
    ok = (endpoint_spread <= 1e-6 and all(crossings.values()) and order_ok
          and elapsed < 120.0)
    record(5, "two-qubit family sweep", ok,
           f"endpoint spread {endpoint_spread:.1e}, canonical-beats-1LO seen "
           f"mixed={crossings['mixed']} pure={crossings['pure']}, "
           f"orderings {'held' if order_ok else 'broken'}, {elapsed:.1f}s")


def test_criterion_06_backend_bias_detection(h2_4q, h2_4q_ground, povm4):
    start = time.perf_counter()
    energy, psi = h2_4q_ground
    group = (0, 1, 2, 3)
    effects = povm4.group_effects(group)
    part = Partition.single_group(4)
    backends = {
        "bias": FrequencyBias(1296.0),
        "psd": LinearInversionPSD(),
        "lad": ConstrainedLAD(),
    }
    shot_counts = [100, 1000, 10_000, 1_000_000]
    devs = {name: [] for name in backends}
    for S in shot_counts:
        ds = sample_shots(psi, povm4, S, seed=1)
        mt = marginal_counts(ds, group)
        for name, backend in backends.items():
            est, _ = reconstruct(mt, povm4, backend)
            duals = GlobalDuals(part, (optimal_duals(est, effects, group=group),))
            rep = estimate(ds, duals, h2_4q)
            devs[name].append(abs(rep.mean - energy) / rep.std_error)
    elapsed = time.perf_counter() - start
    sound = all(d <= 3.0 for name in ("psd", "lad") for d in devs[name])
    # the same shots build the weights and score the estimate, so inverse
    # frequency weighting is biased until S dwarfs the outcome space
    biased = any(d > 3.0 for d in devs["bias"][:3])
    ok = sound and biased and elapsed < 600.0
    fmt = lambda name: "/".join(f"{d:.1f}" for d in devs[name])
    record(6, "tomography backends sound, plug-in weights biased", ok,
           f"sigma devs psd {fmt('psd')}, lad {fmt('lad')}, bias {fmt('bias')}, "
           f"{elapsed:.0f}s")


def test_criterion_07_rmse_calibration(h2_4q, h2_4q_ground, povm4):
    start = time.perf_counter()
    energy, psi = h2_4q_ground
    R, S = 1000, 1000
    frames = {"canonical": canonical_global(povm4)}
    part = Partition(((0, 1), (2, 3)))
    frames["2lo-exact"] = GlobalDuals(part, tuple(
        optimal_duals(reduced_density(psi, g), povm4.group_effects(g), group=g)
        for g in part.groups
    ))
    results = {}
    ratios_ok = True
    for name, duals in frames.items():
        rmse = rmse_experiment(psi, povm4, duals, h2_4q, R=R, S=S, seed=7)
        predicted = np.sqrt(exact_variance(psi, povm4, duals, h2_4q) / S)
        ratio = rmse / predicted
        results[name] = (rmse, ratio)
        if not 0.85 <= ratio <= 1.15:
            ratios_ok = False
    rmse_can = results["canonical"][0]
    elapsed = time.perf_counter() - start
    ok = abs(rmse_can / 0.048 - 1.0) <= 0.15 and ratios_ok and elapsed < 600.0
    record(7, "RMSE 0.048 +/- 15%, ratio in [0.85, 1.15]", ok,
           f"canonical rmse {rmse_can:.4f} ratio {results['canonical'][1]:.3f}, "
           f"2lo rmse {results['2lo-exact'][0]:.4f} ratio "
           f"{results['2lo-exact'][1]:.3f}, {elapsed:.0f}s")


def test_criterion_08_mixed_state_degeneracy(povm4):
    start = time.perf_counter()
    ds = sample_shots(maximally_mixed(4), povm4, 10**6, seed=8)
    worst = 0.0
    for k, part in ((1, Partition.singletons(4)),
                    (2, Partition(((0, 1), (2, 3))))):
        for backend in (LinearInversionPSD(), ConstrainedLAD()):
            learned = klo_duals(ds, k=k, backend=backend, partitioner=part)
            for frame in learned.frames:
                target = canonical_duals(frame.effects, group=frame.group)
                err = float(max(
                    np.linalg.norm(d - c) for d, c in zip(frame.duals, target.duals)
                ))
                worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst <= 5e-2 and elapsed < 600.0
    record(8, "learned duals collapse to canonical on white noise", ok,
           f"max per-dual Frobenius error {worst:.4f} (k in 1,2), {elapsed:.0f}s")


def test_criterion_09_partition_recovery():
    start = time.perf_counter()
    state = bell_pair_chain(2)
    povm = pauli6_product(4)
    target = {frozenset({0, 1}), frozenset({2, 3})}
    hits = 0
    for seed in range(100):
        ds = sample_shots(state, povm, 10**5, seed=seed)
        if greedy_partition(ds, k=2).as_sets() == target:
            hits += 1

    naive_ok = (
        naive_partition(14, 2).groups
        == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11), (12, 13))
        and naive_partition(14, 4).groups
        == ((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13))
    )
    elapsed = time.perf_counter() - start
    ok = hits >= 99 and naive_ok and elapsed < 600.0
    record(9, "greedy recovers Bell pairs, naive blocks fixed", ok,
           f"{hits}/100 recoveries, naive rows {'exact' if naive_ok else 'WRONG'}, "
           f"{elapsed:.0f}s")


def test_criterion_10_byte_identical_determinism(tmp_path):
    start = time.perf_counter()
    state = ghz_state(3)
    povm = pauli6_product(3)
    runs = [
        sample_shots(state, povm, 50_000, seed=11, workers=w, chunk=c)
        for w, c in ((1, 65536), (4, 65536), (1, 3000), (4, 512))
    ]
    same_records = all(
        np.array_equal(runs[0].records, ds.records) for ds in runs[1:]
    )
    paths = []
    for i, ds in enumerate(runs[:2]):
        p = tmp_path / f"run{i}.icsd"
        write_dataset(p, ds)
        paths.append(p.read_bytes())
    repeat = sample_shots(state, povm, 50_000, seed=11)
    elapsed = time.perf_counter() - start
    ok = (same_records and paths[0] == paths[1]
          and np.array_equal(repeat.records, runs[0].records))
    record(10, "outputs byte-identical across runs and workers", ok,
           f"4 worker/chunk layouts agree, files identical, {elapsed:.1f}s")
