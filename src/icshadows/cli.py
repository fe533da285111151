"""Command-line pipeline: sample, group, reconstruct, build duals, estimate.

Every subcommand is a thin wrapper over the library and stays
deterministic for a fixed argument list; CSV outputs carry the seed and
a digest of the effective configuration so results are traceable.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .correlations import PARTITIONERS, mi_graph, resolve_partitioner
from .estimation import estimate, exact_variance, rmse_experiment
from .frames import canonical_global, optimal_global, optimize_product_duals, state_mse
from .io import (
    BACKENDS,
    RunConfig,
    bundled_hamiltonian,
    read_dataset,
    read_duals,
    read_hamiltonian,
    read_partition,
    write_dataset,
    write_duals,
    write_csv,
    write_partition,
)
from .observables import PauliObservable
from .partition import Partition
from .povm import pauli6_product
from .sampling import joint_probabilities, marginal_counts, sample_shots
from .states import (
    bell_pair_chain,
    bell_state,
    ghz_state,
    ground_state,
    maximally_mixed,
    product_state,
    reduced_density,
    toy_mixed,
    toy_pure,
)
from .tomography import klo_duals, reconstruct

STATE_SPEC_HELP = (
    "state spec: bell | ghz-N | bell-pairs-P (P pairs, 2P qubits) | "
    "product-<chars over 01+-rl> | mixed-Q | pure-Q (two-qubit families) | "
    "max-mixed-N | ground-state-of:<hamiltonian path or bundled:NAME>"
)


def load_hamiltonian(spec: str) -> PauliObservable:
    if spec.startswith("bundled:"):
        return bundled_hamiltonian(spec[len("bundled:") :])
    return read_hamiltonian(spec)


def _number(text: str, kind, where: str):
    """``kind(text)``, or a ValueError that names ``where`` the text came from."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{where}: {text!r} is not {noun}") from None


def _number_list(text: str, kind, flag: str) -> list:
    """A comma-separated list of numbers given to ``flag``."""
    return [_number(tok, kind, flag) for tok in text.split(",") if tok]


def parse_state_spec(spec: str):
    if spec == "bell":
        return bell_state()
    if spec.startswith("product-"):
        return product_state(spec[len("product-") :])
    # families with one numeric parameter after the prefix
    families = (
        ("ghz-", int, ghz_state),
        ("bell-pairs-", int, bell_pair_chain),
        ("mixed-", float, toy_mixed),
        ("pure-", float, toy_pure),
        ("max-mixed-", int, maximally_mixed),
    )
    for prefix, kind, build in families:
        if spec.startswith(prefix):
            return build(_number(spec[len(prefix) :], kind, f"state spec {spec!r}"))
    if spec.startswith("ground-state-of:"):
        obs = load_hamiltonian(spec[len("ground-state-of:") :])
        return ground_state(obs)[1]
    raise ValueError(f"unrecognized state spec {spec!r}")


# flags of the RunConfig fields that subcommands share; each flag stores into
# its field's name and defaults to RunConfig()'s value
_CONFIG_FLAGS = {
    "seed": (["--seed"], dict(type=int, help="random seed")),
    "S": (["--shots", "-S"], dict(type=int, metavar="SHOTS", help="number of shots")),
    "workers": (["--workers"], dict(type=int, help="sampler threads")),
    "k": (["--k"], dict(type=int, help="largest qubit group")),
    "partitioner": (["--partitioner"], dict(choices=list(PARTITIONERS), help="qubit grouping")),
    "backend": (["--backend"], dict(choices=list(BACKENDS), help="tomography backend")),
    "S_bias": (["--S-bias"], dict(type=float, help="bias-backend pseudo-counts; None is d^k")),
    "floor": (["--floor"], dict(type=float, help="probability floor of the dual weights")),
    "drop_identity": (["--drop-identity"], dict(action="store_true", help="drop the identity")),
}


def _add_config_flags(p: argparse.ArgumentParser, *fields: str, **settings) -> None:
    """Add the flags of RunConfig ``fields`` to ``p``; ``settings`` maps a
    field to add_argument keywords that replace the shared ones."""
    defaults = RunConfig()
    for field in fields:
        flags, kwargs = _CONFIG_FLAGS[field]
        kwargs = dict(kwargs, dest=field, default=getattr(defaults, field))
        kwargs.update(settings.get(field, {}))
        p.add_argument(*flags, **kwargs)


def _config(args, **overrides) -> RunConfig:
    """The RunConfig fields parsed into ``args``, then ``overrides``."""
    names = {f.name for f in dataclasses.fields(RunConfig)}
    fields = {name: value for name, value in vars(args).items() if name in names}
    return RunConfig(**{**fields, **overrides})


def _maybe_drop_identity(obs: PauliObservable, cfg: RunConfig) -> PauliObservable:
    return obs.without_identity() if cfg.drop_identity else obs


def _load_duals(args, n: int):
    if getattr(args, "duals", None):
        duals = read_duals(args.duals)
        if duals.n != n:
            raise ValueError(f"duals are for {duals.n} qubits, need {n}")
        return duals
    return canonical_global(pauli6_product(n))


def cmd_sample(args) -> int:
    cfg = _config(args)
    state = parse_state_spec(args.state)
    povm = pauli6_product(state.n)
    ds = sample_shots(state, povm, cfg.S, cfg.seed, workers=cfg.workers)
    write_dataset(args.out, ds)
    return 0


def cmd_mi(args) -> int:
    ds = read_dataset(args.dataset)
    cfg = _config(args, seed=ds.seed, S=ds.S)
    graph = mi_graph(ds)
    header = ["qubit"] + [f"mi_{j}" for j in range(ds.n)] + ["seed", "config"]
    rows = [
        [i] + [repr(float(v)) for v in graph.weights[i]] + [ds.seed, cfg.hash()]
        for i in range(ds.n)
    ]
    write_csv(args.out, header, rows)
    return 0


def cmd_partition(args) -> int:
    ds = read_dataset(args.dataset)
    cfg = _config(args, seed=ds.seed, S=ds.S)
    part = resolve_partitioner(cfg.partitioner)(ds, cfg.k)
    if args.out:
        write_partition(args.out, part)
    else:
        for group in part.groups:
            print(" ".join(str(q) for q in group))
    return 0


def cmd_tomo(args) -> int:
    ds = read_dataset(args.dataset)
    cfg = _config(args, seed=ds.seed, S=ds.S)
    part = read_partition(args.partition)
    if part.n != ds.n:
        raise ValueError(f"partition covers {part.n} qubits, dataset has {ds.n}")
    povm = pauli6_product(ds.n)
    rows = []
    for gi, group in enumerate(part.groups):
        backend = cfg.tomography_backend(ds.d)
        result, report = reconstruct(marginal_counts(ds, group), povm, backend)
        if hasattr(result, "matrix"):
            payload, kind = result.matrix, "state"
        else:
            payload, kind = result, "probabilities"
        np.save(f"{args.out_prefix}-group{gi}.npy", payload)
        rows.append(
            [
                gi,
                " ".join(str(q) for q in group),
                kind,
                repr(report.residual),
                report.iterations,
                report.converged,
                cfg.backend,
                ds.seed,
                cfg.hash(),
            ]
        )
    write_csv(
        f"{args.out_prefix}-residuals.csv",
        ["group", "qubits", "kind", "residual", "iterations", "converged", "backend", "seed", "config"],
        rows,
    )
    return 0


def cmd_duals(args) -> int:
    if args.dataset and args.rdm_prefix:
        raise ValueError("pass either --dataset or --rdm-prefix, not both")
    if args.dataset:
        ds = read_dataset(args.dataset)
        cfg = _config(args, seed=ds.seed, S=ds.S)
        duals = klo_duals(
            ds,
            k=cfg.k,
            backend=cfg.tomography_backend(ds.d),
            partitioner=cfg.partitioner,
            floor=cfg.floor,
        )
    elif args.rdm_prefix:
        if not args.partition:
            raise ValueError("--rdm-prefix requires --partition")
        cfg = _config(args)
        part = read_partition(args.partition)
        paths = []

        def sigmas():
            for gi in range(len(part.groups)):
                paths.append(f"{args.rdm_prefix}-group{gi}.npy")
                yield np.load(paths[-1])

        # optimal_global solves each group as soon as its file is loaded,
        # so a failure belongs to the last path loaded
        try:
            duals = optimal_global(part, sigmas(), pauli6_product(part.n), cfg.floor, "optimal-rdm")
        except ValueError as exc:
            raise ValueError(f"{paths[-1]}: {exc}") from exc
    else:
        raise ValueError("pass --dataset or --rdm-prefix")
    write_duals(args.out, duals)
    return 0


def cmd_estimate(args) -> int:
    ds = read_dataset(args.dataset)
    cfg = _config(args, seed=ds.seed, S=ds.S)
    obs = _maybe_drop_identity(load_hamiltonian(args.hamiltonian), cfg)
    duals = _load_duals(args, ds.n)
    report = estimate(ds, duals, obs)
    write_csv(
        args.out,
        ["hamiltonian", "duals", "mean", "sample_variance", "std_error", "shots", "seed", "config"],
        [
            [
                args.hamiltonian,
                report.duals_provenance,
                repr(report.mean),
                repr(report.sample_variance),
                repr(report.std_error),
                report.shots,
                ds.seed,
                cfg.hash(),
            ]
        ],
    )
    return 0


def cmd_exact_variance(args) -> int:
    cfg = _config(args)
    state = parse_state_spec(args.state)
    obs = _maybe_drop_identity(load_hamiltonian(args.hamiltonian), cfg)
    duals = _load_duals(args, state.n)
    povm = pauli6_product(state.n)
    print(repr(exact_variance(state, povm, duals, obs)))
    return 0


def cmd_benchmark(args) -> int:
    cfg = _config(args)
    ks = _number_list(args.ks, int, "--ks")
    obs = load_hamiltonian(args.hamiltonian)
    energy, psi = ground_state(obs)
    povm = pauli6_product(obs.n)
    rows = []

    def add_row(label: str, k: int, duals):
        var_full = exact_variance(psi, povm, duals, obs)
        var_drop = exact_variance(psi, povm, duals, obs.without_identity())
        rows.append(
            [
                label,
                k,
                repr(var_full),
                repr(var_drop),
                repr(energy),
                cfg.seed,
                cfg.hash(),
            ]
        )

    add_row("canonical", 0, canonical_global(povm))
    ds = sample_shots(psi, povm, cfg.S, cfg.seed, workers=cfg.workers)
    for k in ks:
        duals = klo_duals(
            ds,
            k=k,
            backend=cfg.tomography_backend(ds.d),
            partitioner=cfg.partitioner,
            floor=cfg.floor,
        )
        add_row(f"{k}-LO", k, duals)
    write_csv(
        args.out,
        ["method", "k", "variance", "variance_no_identity", "exact_energy", "seed", "config"],
        rows,
    )
    return 0


def cmd_rmse(args) -> int:
    cfg = _config(args)
    state = parse_state_spec(args.state)
    obs = _maybe_drop_identity(load_hamiltonian(args.hamiltonian), cfg)
    duals = _load_duals(args, state.n)
    povm = pauli6_product(state.n)
    # the harness takes the exact variance before its first shot, so it fails fast
    value = rmse_experiment(state, povm, duals, obs, R=args.repetitions, S=cfg.S, seed=cfg.seed)
    predicted = float(np.sqrt(value.variance / cfg.S))
    ratio = value / predicted if predicted > 0 else float("nan")
    write_csv(
        args.out,
        ["repetitions", "shots", "rmse", "predicted_rmse", "ratio", "duals", "seed", "config"],
        [
            [
                args.repetitions,
                cfg.S,
                repr(value),
                repr(predicted),
                repr(ratio),
                duals.provenance,
                cfg.seed,
                cfg.hash(),
            ]
        ],
    )
    return 0


def cmd_toy(args) -> int:
    cfg = _config(args)
    qs = _number_list(args.q, float, "--q")
    povm = pauli6_product(2)
    zz = PauliObservable.single("ZZ")
    rows = []
    for q in qs:
        state = toy_mixed(q) if args.family == "mixed" else toy_pure(q)
        rho = state.density()
        probs = joint_probabilities(state, povm, range(2))
        singles = Partition.singletons(2)

        frames = {
            "canonical": canonical_global(povm, singles),
            "1lo": optimal_global(
                singles, [reduced_density(state, [i]) for i in range(2)], povm, cfg.floor
            ),
            "opt1": optimize_product_duals(probs, singles, rho)[0],
            "2lo": optimal_global(Partition.single_group(2), [rho], povm, cfg.floor),
        }
        row = [args.family, repr(q)]
        for name in ("canonical", "1lo", "opt1", "2lo"):
            row.append(repr(exact_variance(state, povm, frames[name], zz)))
        for name in ("canonical", "1lo", "opt1", "2lo"):
            row.append(repr(state_mse(frames[name], probs, rho)))
        row += [cfg.seed, cfg.hash()]
        rows.append(row)
    write_csv(
        args.out,
        [
            "family",
            "q",
            "var_canonical",
            "var_1lo",
            "var_opt1",
            "var_2lo",
            "mse_canonical",
            "mse_1lo",
            "mse_opt1",
            "mse_2lo",
            "seed",
            "config",
        ],
        rows,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icshadows",
        description="observable estimation with overcomplete POVMs and optimized dual frames",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(
            name, help=help_text, formatter_class=argparse.ArgumentDefaultsHelpFormatter
        )
        p.set_defaults(func=func)
        return p

    p = add("sample", cmd_sample, "draw Pauli-6 shots from a state into a dataset file")
    p.add_argument("state", help=STATE_SPEC_HELP)
    _add_config_flags(p, "S", "seed", "workers", S=dict(required=True, default=argparse.SUPPRESS))
    p.add_argument("--out", required=True)

    p = add("mi", cmd_mi, "pairwise mutual information matrix of a dataset")
    p.add_argument("dataset")
    p.add_argument("--out", default=None)

    p = add("partition", cmd_partition, "group qubits from a dataset")
    p.add_argument("dataset")
    _add_config_flags(p, "k", "partitioner")
    p.add_argument("--out", default=None)

    p = add("tomo", cmd_tomo, "reconstruct group states from a dataset")
    p.add_argument("dataset")
    p.add_argument("--partition", required=True)
    _add_config_flags(p, "backend", "S_bias")
    p.add_argument("--out-prefix", required=True)

    p = add("duals", cmd_duals, "build and serialize dual frames")
    p.add_argument("--dataset", default=None)
    p.add_argument("--rdm-prefix", default=None)
    p.add_argument("--partition", default=None)
    _add_config_flags(p, "k", "backend", "partitioner", "S_bias", "floor")
    p.add_argument("--out", required=True)

    p = add("estimate", cmd_estimate, "estimate a Hamiltonian from a dataset")
    p.add_argument("dataset")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--duals", default=None, help="serialized duals; canonical when omitted")
    _add_config_flags(p, "drop_identity")
    p.add_argument("--out", default=None)

    p = add("exact-variance", cmd_exact_variance, "exact single-shot estimator variance")
    p.add_argument("state", help=STATE_SPEC_HELP)
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--duals", default=None)
    _add_config_flags(p, "drop_identity")

    p = add("benchmark", cmd_benchmark, "variance table across canonical and k-LO duals")
    p.add_argument("--hamiltonian", required=True)
    _add_config_flags(p, "S", "seed", "workers")
    p.add_argument("--ks", default="1,2,4", help="comma-separated group sizes")
    _add_config_flags(p, "backend", "partitioner", "floor")
    p.add_argument("--out", default=None)

    p = add("rmse", cmd_rmse, "repeated-estimate root mean square error")
    p.add_argument("state", help=STATE_SPEC_HELP)
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--duals", default=None)
    p.add_argument("--repetitions", "-R", type=int, default=1000)
    _add_config_flags(p, "S", "seed", "drop_identity", S=dict(default=1000))
    p.add_argument("--out", default=None)

    p = add("toy", cmd_toy, "two-qubit family sweep of variances and state MSE")
    p.add_argument("--family", choices=["mixed", "pure"], required=True)
    p.add_argument("--q", default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1")
    _add_config_flags(p, "floor")
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
