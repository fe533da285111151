import csv
import warnings

import numpy as np
import pytest

from icshadows import (
    BlockProductState,
    DensityMatrix,
    Partition,
    PureState,
    RunConfig,
    canonical_global,
    exact_variance,
    pauli6_product,
    read_dataset,
    read_duals,
    read_partition,
    rmse_experiment,
    write_duals,
    write_partition,
)
from icshadows import cli
from icshadows.cli import _config, build_parser, main, parse_state_spec

from .conftest import refuse_dense_builds


def run(argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def write_zz(tmp_path):
    path = tmp_path / "zz.txt"
    path.write_text("1.0 ZZ\n")
    return path


def test_parse_state_spec_forms():
    assert isinstance(parse_state_spec("bell"), PureState)
    assert parse_state_spec("ghz-3").n == 3
    assert isinstance(parse_state_spec("bell-pairs-2"), BlockProductState)
    assert parse_state_spec("product-0+rl").n == 4
    assert isinstance(parse_state_spec("mixed-0.3"), DensityMatrix)
    assert parse_state_spec("pure-0.5").n == 2
    assert parse_state_spec("max-mixed-3").n == 3
    psi = parse_state_spec("ground-state-of:bundled:h2_sto3g_4q.txt")
    assert isinstance(psi, PureState) and psi.n == 4
    with pytest.raises(ValueError, match="unrecognized"):
        parse_state_spec("w-state")


@pytest.mark.parametrize(
    "spec, cap",
    [
        ("ghz-40", "statevector cap"),
        ("product-" + "0" * 40, "statevector cap"),
        ("max-mixed-40", "density cap"),
        ("ghz-0", "statevector cap"),
        ("bell-pairs-1000000000000000", "Bell-pair chain cap"),
        ("bell-pairs-33000", "Bell-pair chain cap"),
    ],
)
def test_state_family_outside_its_cap_exits_one(tmp_path, capsys, monkeypatch, spec, cap):
    from icshadows import states

    class NoAllocation:
        """numpy for the states module, without the calls that build 2^n arrays."""

        def __getattr__(self, name):
            if name in ("zeros", "eye", "kron"):
                raise AssertionError(f"np.{name} reached before the size check")
            return getattr(np, name)

    monkeypatch.setattr(states, "np", NoAllocation())
    assert run(["sample", spec, "-S", 10, "--out", tmp_path / "ds.icsd"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and cap in err


def test_sample_is_deterministic(tmp_path):
    a, b = tmp_path / "a.icsd", tmp_path / "b.icsd"
    assert run(["sample", "bell", "-S", 500, "--seed", 3, "--out", a]) == 0
    assert run(["sample", "bell", "-S", 500, "--seed", 3, "--workers", 4, "--out", b]) == 0
    assert a.read_bytes() == b.read_bytes()
    ds = read_dataset(a)
    assert ds.S == 500 and ds.n == 2 and ds.seed == 3


def test_mi_output_shape(tmp_path, capsys):
    ds_path = tmp_path / "ds.icsd"
    run(["sample", "bell-pairs-1", "-S", 2000, "--seed", 4, "--out", ds_path])
    out = tmp_path / "mi.csv"
    assert run(["mi", ds_path, "--out", out]) == 0
    rows = read_rows(out)
    assert len(rows) == 2
    assert float(rows[0]["mi_0"]) == 0.0
    assert float(rows[0]["mi_1"]) == float(rows[1]["mi_0"])
    assert float(rows[0]["mi_1"]) > 0.1
    assert len(rows[0]["config"]) == 12
    # no --out prints the same table to stdout
    assert run(["mi", ds_path]) == 0
    assert capsys.readouterr().out.splitlines()[0].startswith("qubit,mi_0")


def test_partition_file_and_stdout(tmp_path, capsys):
    ds_path = tmp_path / "ds.icsd"
    run(["sample", "bell-pairs-2", "-S", 4000, "--seed", 5, "--out", ds_path])
    out = tmp_path / "part.txt"
    assert run(["partition", ds_path, "--k", 2, "--out", out]) == 0
    assert read_partition(out).as_sets() == {frozenset({0, 1}), frozenset({2, 3})}
    assert run(["partition", ds_path, "--k", 2, "--partitioner", "naive"]) == 0
    assert capsys.readouterr().out == "0 1\n2 3\n"
    # a name outside PARTITIONERS is refused like any unknown choice
    with pytest.raises(SystemExit) as exc:
        run(["partition", ds_path, "--partitioner", "node"])
    assert exc.value.code == 2
    assert "invalid choice: 'node'" in capsys.readouterr().err


def test_tomo_writes_states_and_residuals(tmp_path):
    ds_path = tmp_path / "ds.icsd"
    run(["sample", "bell", "-S", 3000, "--seed", 6, "--out", ds_path])
    part = tmp_path / "part.txt"
    part.write_text("0 1\n")
    prefix = tmp_path / "rec"
    assert run(["tomo", ds_path, "--partition", part, "--backend", "psd",
                "--out-prefix", prefix]) == 0
    sigma = np.load(f"{prefix}-group0.npy")
    assert sigma.shape == (4, 4)
    assert np.trace(sigma).real == pytest.approx(1.0)
    rows = read_rows(f"{prefix}-residuals.csv")
    assert rows[0]["kind"] == "state"
    assert rows[0]["backend"] == "psd"
    assert float(rows[0]["residual"]) >= 0.0


def test_tomo_bias_backend_writes_probabilities(tmp_path):
    ds_path = tmp_path / "ds.icsd"
    run(["sample", "bell", "-S", 1000, "--seed", 7, "--out", ds_path])
    part = tmp_path / "part.txt"
    part.write_text("0\n1\n")
    prefix = tmp_path / "rec"
    assert run(["tomo", ds_path, "--partition", part, "--backend", "bias",
                "--S-bias", 6, "--out-prefix", prefix]) == 0
    probs = np.load(f"{prefix}-group0.npy")
    assert probs.shape == (6,)
    assert probs.sum() == pytest.approx(1.0)
    rows = read_rows(f"{prefix}-residuals.csv")
    assert [r["kind"] for r in rows] == ["probabilities", "probabilities"]


def test_duals_from_dataset_and_rdms(tmp_path):
    ds_path = tmp_path / "ds.icsd"
    run(["sample", "bell", "-S", 3000, "--seed", 8, "--out", ds_path])
    learned = tmp_path / "learned.icdl"
    assert run(["duals", "--dataset", ds_path, "--k", 2, "--out", learned]) == 0
    gd = read_duals(learned)
    assert gd.provenance == "klo-ConstrainedLAD"
    assert gd.partition.groups == ((0, 1),)

    part = tmp_path / "part.txt"
    part.write_text("0 1\n")
    prefix = tmp_path / "rec"
    run(["tomo", ds_path, "--partition", part, "--out-prefix", prefix])
    from_rdm = tmp_path / "rdm.icdl"
    assert run(["duals", "--rdm-prefix", prefix, "--partition", part,
                "--out", from_rdm]) == 0
    assert read_duals(from_rdm).provenance == "optimal-rdm"


@pytest.mark.parametrize("bad, message", [
    ("nan", "non-finite"),
    ("shape", "does not match"),
    ("asymmetric", "not Hermitian"),
])
def test_duals_rejects_bad_rdm_file(tmp_path, capsys, bad, message):
    ds_path = tmp_path / "ds.icsd"
    assert run(["sample", "ghz-4", "-S", 3000, "--seed", 8, "--out", ds_path]) == 0
    part = tmp_path / "part.txt"
    part.write_text("0 1\n2 3\n")
    prefix = tmp_path / "rec"
    assert run(["tomo", ds_path, "--partition", part, "--backend", "psd",
                "--out-prefix", prefix]) == 0
    path = tmp_path / "rec-group1.npy"
    sigma = np.load(path)
    broken = {
        "nan": np.where(np.eye(4, dtype=bool), np.nan, sigma),
        "shape": sigma[:2, :2],
        "asymmetric": sigma + np.triu(np.full((4, 4), 1e-3), 1),
    }[bad]
    np.save(path, broken)
    out = tmp_path / "d.icdl"
    assert run(["duals", "--rdm-prefix", prefix, "--partition", part, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err
    assert not out.exists()


def test_dual_routes_agree(tmp_path):
    # duals --dataset and tomo + duals --rdm-prefix on the partition it chose
    ds_path = tmp_path / "ds.icsd"
    assert run(["sample", "ghz-4", "-S", 3000, "--seed", 8, "--out", ds_path]) == 0
    learned = tmp_path / "learned.icdl"
    assert run(["duals", "--dataset", ds_path, "--k", 2, "--out", learned]) == 0
    direct = read_duals(learned)
    part = tmp_path / "part.txt"
    write_partition(part, direct.partition)
    prefix = tmp_path / "rec"
    assert run(["tomo", ds_path, "--partition", part, "--backend", "lad",
                "--out-prefix", prefix]) == 0
    from_rdm = tmp_path / "rdm.icdl"
    assert run(["duals", "--rdm-prefix", prefix, "--partition", part,
                "--out", from_rdm]) == 0
    staged = read_duals(from_rdm)
    assert staged.partition.groups == direct.partition.groups
    for a, b in zip(staged.frames, direct.frames, strict=True):
        assert np.array_equal(a.duals, b.duals)


def test_duals_source_flags_are_exclusive(tmp_path, capsys):
    ds_path = tmp_path / "ds.icsd"
    run(["sample", "bell", "-S", 100, "--seed", 0, "--out", ds_path])
    code = run(["duals", "--dataset", ds_path, "--rdm-prefix", "x",
                "--out", tmp_path / "d.icdl"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    code = run(["duals", "--out", tmp_path / "d.icdl"])
    assert code == 1


def test_estimate_pipeline(tmp_path):
    ds_path = tmp_path / "ds.icsd"
    run(["sample", "bell", "-S", 5000, "--seed", 9, "--out", ds_path])
    ham = write_zz(tmp_path)
    out = tmp_path / "est.csv"
    assert run(["estimate", ds_path, "--hamiltonian", ham, "--out", out]) == 0
    row = read_rows(out)[0]
    assert row["duals"] == "canonical"
    assert int(row["shots"]) == 5000
    assert abs(float(row["mean"]) - 1.0) < 0.2
    se = float(row["std_error"])
    assert se == pytest.approx(np.sqrt(float(row["sample_variance"]) / 5000))

    learned = tmp_path / "learned.icdl"
    run(["duals", "--dataset", ds_path, "--k", 2, "--out", learned])
    assert run(["estimate", ds_path, "--hamiltonian", ham, "--duals", learned,
                "--out", out]) == 0
    row = read_rows(out)[0]
    assert row["duals"] == "klo-ConstrainedLAD"
    assert abs(float(row["mean"]) - 1.0) < 0.2


def test_exact_variance_command(tmp_path, capsys):
    ham = write_zz(tmp_path)
    assert run(["exact-variance", "bell", "--hamiltonian", ham]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(8.0, abs=1e-9)


def test_exact_variance_rejects_size_mismatch(tmp_path, capsys):
    ham = write_zz(tmp_path)
    assert run(["exact-variance", "ghz-3", "--hamiltonian", ham]) == 1
    assert "qubits" in capsys.readouterr().err


def test_exact_variance_above_density_cap_exits_one(tmp_path, capsys, monkeypatch):
    refuse_dense_builds(monkeypatch)
    ham = tmp_path / "zz50.txt"
    ham.write_text("1.0 ZZ" + "I" * 48 + "\n")
    assert run(["exact-variance", "bell-pairs-25", "--hamiltonian", ham]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "density cap" in err


def test_benchmark_table(tmp_path):
    ham = write_zz(tmp_path)
    out = tmp_path / "bench.csv"
    assert run(["benchmark", "--hamiltonian", ham, "--shots", 4000,
                "--seed", 10, "--ks", "1,2", "--out", out]) == 0
    rows = read_rows(out)
    assert [r["method"] for r in rows] == ["canonical", "1-LO", "2-LO"]
    assert float(rows[0]["variance"]) == pytest.approx(8.0, abs=1e-9)
    # the ZZ ground state is |00>+|11|-like; learned duals should not blow up
    assert float(rows[2]["variance"]) < 20.0
    assert all(len(r["config"]) == 12 for r in rows)
    assert float(rows[0]["exact_energy"]) == pytest.approx(-1.0)


def test_rmse_checks_the_density_cap_before_the_harness(tmp_path, capsys, monkeypatch):
    from icshadows import estimation

    def sampler(*args, **kwargs):
        raise AssertionError("the RMSE harness planned its sampler before the predicted RMSE")

    monkeypatch.setattr(estimation, "SamplingPlan", sampler)
    refuse_dense_builds(monkeypatch)
    ham = tmp_path / "zz50.txt"
    ham.write_text("1.0 ZZ" + "I" * 48 + "\n")
    assert run(["rmse", "bell-pairs-25", "--hamiltonian", ham]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "density cap" in err


def test_rmse_command(tmp_path):
    ham = write_zz(tmp_path)
    out = tmp_path / "rmse.csv"
    assert run(["rmse", "bell", "--hamiltonian", ham, "-R", 40, "-S", 100,
                "--seed", 2, "--out", out]) == 0
    row = read_rows(out)[0]
    assert int(row["repetitions"]) == 40
    assert float(row["predicted_rmse"]) == pytest.approx(np.sqrt(8.0 / 100), abs=1e-9)
    assert 0.5 < float(row["ratio"]) < 1.5
    assert row["duals"] == "canonical"


H2_4Q = "bundled:h2_sto3g_4q.txt"


def _ground_state_run(command, tmp_path, *flags):
    """Argv of ``command`` on the ground state of the 4-qubit H2, estimating it."""
    rmse = ["-R", 20, "-S", 200, "--seed", 3, "--out", tmp_path / "rmse.csv"] if command == "rmse" else []
    return [command, f"ground-state-of:{H2_4Q}", "--hamiltonian", H2_4Q, *rmse, *flags]


@pytest.mark.parametrize("command", ["exact-variance", "rmse"])
def test_the_ground_state_of_the_estimated_hamiltonian_parses_it_once(tmp_path, monkeypatch, command):
    calls = []
    load = cli.load_hamiltonian
    monkeypatch.setattr(cli, "load_hamiltonian", lambda spec: calls.append(spec) or load(spec))
    assert run(_ground_state_run(command, tmp_path)) == 0
    assert calls == [H2_4Q]


@pytest.mark.parametrize("command", ["exact-variance", "rmse"])
def test_drop_identity_leaves_the_ground_state_of_the_full_hamiltonian(tmp_path, capsys, command):
    # the state from its own parse, the estimated observable from another
    state = parse_state_spec(f"ground-state-of:{H2_4Q}")
    obs = cli.load_hamiltonian(H2_4Q).without_identity()
    povm = pauli6_product(state.n)
    assert run(_ground_state_run(command, tmp_path, "--drop-identity")) == 0
    if command == "exact-variance":
        want = exact_variance(state, povm, canonical_global(povm), obs)
        assert capsys.readouterr().out.strip() == repr(want)
    else:
        want = rmse_experiment(state, povm, canonical_global(povm), obs, R=20, S=200, seed=3)
        row = read_rows(tmp_path / "rmse.csv")[0]
        assert row["rmse"] == repr(float(want))
        assert row["predicted_rmse"] == repr(float(np.sqrt(want.variance / 200)))


@pytest.mark.parametrize("repetitions", [0, -1])
def test_rmse_rejects_fewer_than_one_repetition(tmp_path, capsys, repetitions):
    ham = write_zz(tmp_path)
    out = tmp_path / "rmse.csv"
    argv = ["rmse", "bell", "--hamiltonian", ham, "-R", repetitions, "-S", 10, "--out", out]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "repetition" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("floor", ["nan", "inf", "0", "-1"])
def test_duals_rejects_bad_floor(tmp_path, capsys, floor):
    ds_path = tmp_path / "ds.icsd"
    assert run(["sample", "bell", "-S", 100, "--seed", 5, "--out", ds_path]) == 0
    out = tmp_path / "d.icdl"
    assert run(["duals", "--dataset", ds_path, "--k", 2, "--floor", floor, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "floor" in err
    assert not out.exists()


def test_toy_sweep(tmp_path):
    out = tmp_path / "toy.csv"
    assert run(["toy", "--family", "mixed", "--q", "0,1", "--out", out]) == 0
    rows = read_rows(out)
    assert [r["q"] for r in rows] == ["0.0", "1.0"]
    for row in rows:
        v1, vo, v2 = (float(row[c]) for c in ("var_1lo", "var_opt1", "var_2lo"))
        assert abs(v1 - vo) < 1e-6 and abs(v1 - v2) < 1e-6
        assert float(row["mse_1lo"]) <= float(row["mse_canonical"]) + 1e-9


@pytest.mark.parametrize("backend", ["bias", "psd", "lad"])
def test_tomo_on_an_empty_dataset_exits_one_without_a_warning(tmp_path, capsys, backend):
    ds, part = tmp_path / "ds.icsd", tmp_path / "p.txt"
    assert run(["sample", "bell", "--shots", 0, "--out", ds]) == 0
    write_partition(part, Partition.singletons(2))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = run(["tomo", ds, "--partition", part, "--backend", backend,
                      "--out-prefix", tmp_path / "rdm"])
    assert status == 1
    assert capsys.readouterr().err == "error: empty dataset\n"
    assert not caught


def test_cli_reports_errors_with_exit_one(tmp_path, capsys):
    assert run(["estimate", tmp_path / "missing.icsd",
                "--hamiltonian", tmp_path / "missing.txt"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("case", ["duals-for-other-register", "partition-for-other-register",
                                  "rdm-prefix-without-partition"])
def test_mismatched_inputs_exit_one_with_an_error_line(tmp_path, capsys, case):
    if case == "duals-for-other-register":
        duals = tmp_path / "three.icdl"
        write_duals(duals, canonical_global(pauli6_product(3)))
        argv = ["exact-variance", "bell", "--hamiltonian", write_zz(tmp_path), "--duals", duals]
        named = "duals are for 3 qubits, need 2"
    elif case == "partition-for-other-register":
        ds = tmp_path / "bell.icsd"
        assert run(["sample", "bell", "-S", 100, "--out", ds]) == 0
        part = tmp_path / "three.txt"
        write_partition(part, Partition(((0, 1), (2,))))
        argv = ["tomo", ds, "--partition", part, "--out-prefix", tmp_path / "rdm"]
        named = "partition covers 3 qubits, dataset has 2"
    else:
        argv = ["duals", "--rdm-prefix", tmp_path / "rdm", "--out", tmp_path / "d.icdl"]
        named = "--rdm-prefix requires --partition"
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {named}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["sample", "ghz-x", "-S", 10], "state spec 'ghz-x': 'x' is not an integer"),
        (["sample", "bell-pairs-", "-S", 10], "state spec 'bell-pairs-': '' is not an integer"),
        (["sample", "mixed-abc", "-S", 10], "state spec 'mixed-abc': 'abc' is not a number"),
        (["benchmark", "--hamiltonian", "bundled:h2_sto3g_4q.txt", "--ks", "x"],
         "--ks: 'x' is not an integer"),
        (["toy", "--family", "mixed", "--q", "0,x"], "--q: 'x' is not a number"),
    ],
)
def test_malformed_numbers_name_their_spec_or_flag(tmp_path, capsys, argv, named):
    assert run(argv + ["--out", tmp_path / "out"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {named}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_sample_rejects_out_of_range_seed(tmp_path, capsys, seed):
    out = tmp_path / "ds.icsd"
    argv = ["sample", "ground-state-of:bundled:h2_sto3g_4q.txt", "-S", 10, "--seed", seed]
    assert run(argv + ["--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["tomo", "duals"])
def test_undecodable_partition_file_exits_one(tmp_path, capsys, command):
    ds_path = tmp_path / "ds.icsd"
    assert run(["sample", "bell", "-S", 100, "--seed", 5, "--out", ds_path]) == 0
    part = tmp_path / "groups.txt"
    part.write_bytes(b"0 \xff1\n")
    prefix = tmp_path / "rdm"
    if command == "tomo":
        argv = ["tomo", ds_path, "--partition", part, "--out-prefix", prefix]
    else:
        argv = ["duals", "--rdm-prefix", prefix, "--partition", part, "--out", tmp_path / "d.icdl"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "groups.txt:1: bad group line" in err


def test_reruns_are_byte_identical(tmp_path):
    ham = write_zz(tmp_path)
    ds_path = tmp_path / "ds.icsd"
    run(["sample", "bell", "-S", 1000, "--seed", 11, "--out", ds_path])
    outs = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        run(["estimate", ds_path, "--hamiltonian", ham, "--out", out])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# the smallest argv of each subcommand, and the RunConfig fields it sets itself
MINIMAL_ARGV = {
    "sample": (["bell", "-S", "5", "--out", "x"], {"S": 5}),
    "mi": (["x"], {}),
    "partition": (["x"], {}),
    "tomo": (["x", "--partition", "p", "--out-prefix", "r"], {}),
    "duals": (["--out", "x"], {}),
    "estimate": (["x", "--hamiltonian", "h"], {}),
    "exact-variance": (["bell", "--hamiltonian", "h"], {}),
    "benchmark": (["--hamiltonian", "h"], {}),
    "rmse": (["bell", "--hamiltonian", "h"], {"S": 1000}),
    "toy": (["--family", "mixed"], {}),
}


def test_minimal_argv_covers_every_subcommand():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == set(MINIMAL_ARGV)


@pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
def test_cli_defaults_are_run_config_defaults(command):
    argv, own = MINIMAL_ARGV[command]
    args = build_parser().parse_args([command] + argv)
    assert _config(args) == RunConfig(**own)


def test_sample_above_the_record_cap_exits_one(tmp_path, capsys):
    out = tmp_path / "x.icsd"
    assert run(["sample", "bell", "-S", 10**12, "--workers", 10**15, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "cap" in err
    assert not out.exists()


def test_sample_of_a_density_matrix_above_the_limit_exits_one(tmp_path, capsys):
    out = tmp_path / "x.icsd"
    assert run(["sample", "max-mixed-9", "-S", 10, "--out", out]) == 1
    assert capsys.readouterr().err == "error: density matrices above the joint-tensor limit are not samplable\n"
    assert not out.exists()
    # a pure state of that size has amplitudes to collapse
    assert run(["sample", "ghz-9", "-S", 10, "--out", out]) == 0


def test_memory_error_exits_one(tmp_path, capsys, monkeypatch):
    import icshadows.cli as cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.82 TiB for an array")

    monkeypatch.setattr(cli, "sample_shots", out_of_memory)
    assert run(["sample", "bell", "-S", 10, "--out", tmp_path / "x.icsd"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "1.82 TiB" in err


# every integer a command line takes, in a flag or a state spec
INTEGER_ARGV = {
    "sample --shots": ["sample", "bell", "--shots", "{v}", "--out", "{out}"],
    "sample --seed": ["sample", "bell", "--shots", 10, "--seed", "{v}", "--out", "{out}"],
    "ghz-N": ["sample", "ghz-{v}", "--shots", 10, "--out", "{out}"],
    "max-mixed-N": ["sample", "max-mixed-{v}", "--shots", 10, "--out", "{out}"],
    "bell-pairs-N": ["sample", "bell-pairs-{v}", "--shots", 10, "--out", "{out}"],
    "partition --k": ["partition", "{ds}", "--k", "{v}", "--out", "{out}"],
    "duals --k": ["duals", "--dataset", "{ds}", "--k", "{v}", "--out", "{out}"],
    "duals --floor": ["duals", "--dataset", "{ds}", "--k", 1, "--floor", "{v}", "--out", "{out}"],
    "benchmark --ks": ["benchmark", "--hamiltonian", "{ham}", "--shots", 100, "--ks", "{v}",
                       "--out", "{out}"],
    "benchmark --shots": ["benchmark", "--hamiltonian", "{ham}", "--shots", "{v}", "--ks", 1,
                          "--out", "{out}"],
    "rmse --shots": ["rmse", "bell", "--hamiltonian", "{ham}", "-R", 2, "--shots", "{v}",
                     "--out", "{out}"],
    "rmse --repetitions": ["rmse", "bell", "--hamiltonian", "{ham}", "-R", "{v}", "--shots", 10,
                           "--out", "{out}"],
    "rmse --seed": ["rmse", "bell", "--hamiltonian", "{ham}", "-R", 2, "--shots", 10,
                    "--seed", "{v}", "--out", "{out}"],
    "tomo --S-bias": ["tomo", "{ds}", "--partition", "{part}", "--backend", "bias",
                      "--S-bias", "{v}", "--out-prefix", "{out}"],
}


@pytest.mark.parametrize("value", [-1, 0, 10**15])
@pytest.mark.parametrize("case", sorted(INTEGER_ARGV))
def test_integer_arguments_exit_zero_or_one_without_a_traceback(tmp_path, capsys, case, value):
    ds, part = tmp_path / "ds.icsd", tmp_path / "p.txt"
    assert run(["sample", "bell", "-S", 50, "--seed", 1, "--out", ds]) == 0
    write_partition(part, Partition.singletons(2))
    paths = dict(ds=ds, part=part, ham=write_zz(tmp_path), out=tmp_path / "out")
    argv = [str(a).format(v=value, **paths) for a in INTEGER_ARGV[case]]
    capsys.readouterr()
    status = run(argv)  # an uncaught exception fails the test with its traceback
    err = capsys.readouterr().err
    assert status in (0, 1), err
    assert status == 0 or err.startswith("error:"), err
