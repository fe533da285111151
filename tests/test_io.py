import hashlib
import os
import tempfile
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from icshadows import (
    Partition,
    PauliObservable,
    RunConfig,
    bell_state,
    bundled_hamiltonian,
    canonical_global,
    klo_duals,
    pauli6_product,
    read_dataset,
    read_duals,
    read_hamiltonian,
    read_partition,
    sample_shots,
    write_dataset,
    write_duals,
    write_hamiltonian,
    write_partition,
)
from icshadows.algebra import hermitian_stack
from icshadows.frames import DUALITY_TOL, GlobalDuals, duality_residual
from icshadows.io import QUBIT_FIELD_MAX, config_hash, write_csv
from icshadows.sampling import Dataset

from .conftest import anti_hermitian_duals
from .oracles import max_entry_residual


def test_hamiltonian_round_trip(tmp_path):
    obs = PauliObservable.from_terms([(0.5, "XZ"), (-1.25, "IY"), (3e-8, "ZZ")])
    path = tmp_path / "h.txt"
    write_hamiltonian(path, obs, comments=("benchmark", "two qubits"))
    back = read_hamiltonian(path)
    assert back.n == 2
    assert [w for _, w in back.terms] == ["XZ", "IY", "ZZ"]
    for (a, _), (b, _) in zip(back.terms, obs.terms):
        assert a == pytest.approx(b, rel=1e-14)
    text = path.read_text()
    assert text.startswith("# benchmark\n# two qubits\n")


def test_read_hamiltonian_error_positions(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.5 XZ\n0.25\n")
    with pytest.raises(ValueError, match="bad.txt:2: expected"):
        read_hamiltonian(path)
    path.write_text("abc XZ\n")
    with pytest.raises(ValueError, match=":1: bad coefficient"):
        read_hamiltonian(path)
    path.write_text("0.5 XQ\n")
    with pytest.raises(ValueError, match="bad Pauli word"):
        read_hamiltonian(path)
    path.write_text("0.5 XZ\n0.25 XZI\n")
    with pytest.raises(ValueError, match="word length differs"):
        read_hamiltonian(path)
    path.write_text("# only a comment\n\n")
    with pytest.raises(ValueError, match="no Hamiltonian terms"):
        read_hamiltonian(path)
    path.write_bytes(b"0.5 XZ\n0.25 Z\xffZ\n")
    with pytest.raises(ValueError, match="bad.txt:2: bad Pauli word"):
        read_hamiltonian(path)


@pytest.mark.parametrize("coeff", ["nan", "inf", "-Infinity", "1e999"])
def test_read_hamiltonian_rejects_non_finite_coefficient(tmp_path, coeff):
    path = tmp_path / "bad.txt"
    path.write_text(f"0.5 XZ\n{coeff} ZZ\n")
    with pytest.raises(ValueError, match=f"bad.txt:2: non-finite coefficient '{coeff}'"):
        read_hamiltonian(path)


H2_4Q_BYTES = resources.files("icshadows.data").joinpath("h2_sto3g_4q.txt").read_bytes()


@st.composite
def corrupted_hamiltonian_files(draw):
    """The bundled 4-qubit file, truncated and with some bits flipped."""
    blob = bytearray(H2_4Q_BYTES[: draw(st.integers(0, len(H2_4Q_BYTES)))])
    for _ in range(draw(st.integers(0, 4))):
        if blob:
            pos = draw(st.integers(0, len(blob) - 1))
            blob[pos] ^= 1 << draw(st.integers(0, 7))
    return bytes(blob)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(blob=corrupted_hamiltonian_files())
def test_read_hamiltonian_fuzz_rejects_or_parses_cleanly(tmp_path, blob):
    path = tmp_path / "h.txt"
    path.write_bytes(blob)
    try:
        obs = read_hamiltonian(path)
    except ValueError as exc:
        assert str(exc).startswith(str(path))
        return
    assert all(np.isfinite(c) and len(w) == obs.n for c, w in obs.terms)


def _file_bytes(write, obj) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file")
        write(path, obj)
        with open(path, "rb") as fh:
            return fh.read()


DATASET_BYTES = _file_bytes(
    write_dataset, sample_shots(bell_state(), pauli6_product(2), 40, seed=3)
)
DUALS_BYTES = _file_bytes(
    write_duals, canonical_global(pauli6_product(3), Partition(((0,), (1, 2))))
)
PARTITION_BYTES = b"# groups\n0 2\n1\n3 4 5\n"


@st.composite
def corrupted(draw, blob: bytes):
    """``blob`` whole or truncated, with up to four bits flipped."""
    size = draw(st.one_of(st.just(len(blob)), st.integers(0, len(blob))))
    out = bytearray(blob[:size])
    for _ in range(draw(st.integers(0, 4))):
        if out:
            pos = draw(st.integers(0, len(out) - 1))
            out[pos] ^= 1 << draw(st.integers(0, 7))
    return bytes(out)


def _read_corrupted(tmp_path, read, blob):
    """``read`` of ``blob``, or None when it raised a ValueError naming the file."""
    path = tmp_path / "corrupted"
    path.write_bytes(blob)
    try:
        return read(path)
    except ValueError as exc:
        assert str(exc).startswith(str(path))
        return None


def _valid_partition(part: Partition) -> bool:
    qubits = sorted(q for g in part.groups for q in g)
    return all(g and list(g) == sorted(g) for g in part.groups) and qubits == list(
        range(part.n)
    )


FUZZ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(blob=corrupted(DATASET_BYTES))
def test_read_dataset_fuzz_rejects_or_parses_cleanly(tmp_path, blob):
    ds = _read_corrupted(tmp_path, read_dataset, blob)
    if ds is not None:
        assert ds.n >= 1 and ds.d == 6 and ds.povm_id == "pauli6"
        assert ds.records.shape == (ds.S, ds.n)
        assert ds.S == 0 or int(ds.records.max()) < ds.d


@FUZZ
@given(blob=corrupted(DUALS_BYTES))
def test_read_duals_fuzz_rejects_or_parses_cleanly(tmp_path, blob):
    gd = _read_corrupted(tmp_path, read_duals, blob)
    if gd is not None:
        assert _valid_partition(gd.partition)
        povm = pauli6_product(gd.n)
        for frame, group in zip(gd.frames, gd.partition.groups):
            assert np.array_equal(frame.effects, povm.group_effects(group))
            assert duality_residual(frame.duals, frame.effects) <= DUALITY_TOL


@FUZZ
@given(blob=corrupted(PARTITION_BYTES))
def test_read_partition_fuzz_rejects_or_parses_cleanly(tmp_path, blob):
    part = _read_corrupted(tmp_path, read_partition, blob)
    if part is not None:
        assert _valid_partition(part)


def test_read_hamiltonian_accepts_lowercase_and_comments(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("# header\n+5.0e-01 xz\n\n-0.5 iy\n")
    obs = read_hamiltonian(path)
    assert obs.terms == ((0.5, "XZ"), (-0.5, "IY"))


def test_bundled_hamiltonians_load():
    h4 = bundled_hamiltonian("h2_sto3g_4q.txt")
    assert h4.n == 4
    assert len(h4.terms) == 15
    h8 = bundled_hamiltonian("h2_631g_8q.txt")
    assert h8.n == 8
    assert len(h8.terms) == 185


def test_dataset_round_trip_bytes(tmp_path):
    ds = sample_shots(bell_state(), pauli6_product(2), 1000, seed=17)
    path = tmp_path / "shots.icsd"
    write_dataset(path, ds)
    back = read_dataset(path)
    assert back.n == ds.n and back.d == ds.d and back.S == ds.S
    assert back.seed == 17
    assert np.array_equal(back.records, ds.records)
    # same dataset serializes to the same bytes
    path2 = tmp_path / "again.icsd"
    write_dataset(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_dataset_format_errors(tmp_path):
    ds = sample_shots(bell_state(), pauli6_product(2), 10, seed=0)
    path = tmp_path / "shots.icsd"
    write_dataset(path, ds)
    blob = path.read_bytes()

    bad = tmp_path / "bad.icsd"
    bad.write_bytes(blob[:8])
    with pytest.raises(ValueError, match="truncated header"):
        read_dataset(bad)
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(ValueError, match="not a dataset"):
        read_dataset(bad)
    bad.write_bytes(blob[:4] + b"\x02\x00" + blob[6:])
    with pytest.raises(ValueError, match="unsupported version"):
        read_dataset(bad)
    bad.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match="record bytes"):
        read_dataset(bad)
    from icshadows.sampling import Dataset

    alien = Dataset(n=1, d=6, S=1, records=np.zeros((1, 1), dtype=np.uint8),
                    seed=0, povm_id="other")
    with pytest.raises(ValueError, match="Pauli-6"):
        write_dataset(tmp_path / "alien.icsd", alien)


def test_partition_round_trip(tmp_path):
    part = Partition(((0, 2), (1,), (3, 4)))
    path = tmp_path / "groups.txt"
    write_partition(path, part)
    assert read_partition(path).groups == part.groups
    path.write_text("0 x\n")
    with pytest.raises(ValueError, match="bad group line"):
        read_partition(path)
    path.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no groups"):
        read_partition(path)
    path.write_bytes(b"0 1\n2 \xff3\n")
    with pytest.raises(ValueError, match="groups.txt:2: bad group line"):
        read_partition(path)


def test_read_partition_rejects_repeated_qubit(tmp_path):
    # a repeated qubit inside one group used to parse, with n counting it twice
    path = tmp_path / "groups.txt"
    path.write_text("0 2\n1\n3 4 4\n")
    with pytest.raises(ValueError, match="groups.txt: group \\(3, 4, 4\\) not strictly ascending"):
        read_partition(path)


def test_read_dataset_rejects_non_pauli6_header(tmp_path):
    ds = sample_shots(bell_state(), pauli6_product(2), 10, seed=0)
    path = tmp_path / "shots.icsd"
    write_dataset(path, ds)
    blob = bytearray(path.read_bytes())
    blob[8] = 7  # d = 7: every record is still in range, but v1 is Pauli-6 only
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="shots.icsd: v1 holds Pauli-6 records"):
        read_dataset(path)


def test_read_duals_rejects_group_outside_register(tmp_path):
    gd = canonical_global(pauli6_product(2))
    path = tmp_path / "frames.icdl"
    write_duals(path, gd)
    blob = bytearray(path.read_bytes())
    blob[12] = 5  # the first group's qubit: 5 in a 2-qubit register
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=r"frames.icdl: group \(5,\) is not a Pauli-6 group"):
        read_duals(path)


def test_writers_name_the_qubit_field_limit(tmp_path):
    from types import SimpleNamespace

    from icshadows.sampling import Dataset

    n = QUBIT_FIELD_MAX + 1
    ds = Dataset(n=n, d=6, S=1, records=np.zeros((1, n), dtype=np.uint8), seed=0)
    with pytest.raises(ValueError, match=f"{n} qubits exceeds 65535, the most a dataset file"):
        write_dataset(tmp_path / "x.icsd", ds)
    # the count is checked before any frame is read, so a stand-in register will do
    with pytest.raises(ValueError, match=f"{n} qubits exceeds 65535, the most a duals file"):
        write_duals(tmp_path / "x.icdl", SimpleNamespace(n=n, frames=()))
    assert not any(tmp_path.iterdir())


def test_duals_round_trip_canonical(tmp_path):
    gd = canonical_global(pauli6_product(3), Partition(((0, 1), (2,))))
    path = tmp_path / "frames.icdl"
    write_duals(path, gd)
    back = read_duals(path)
    assert back.partition.groups == gd.partition.groups
    assert back.provenance == "canonical"
    # the file stores the complex stack, which round-trips bit for bit
    for fa, fb in zip(back.frames, gd.frames):
        assert np.array_equal(hermitian_stack(fa.duals), hermitian_stack(fb.duals))


def test_duals_round_trip_learned(tmp_path):
    ds = sample_shots(bell_state(), pauli6_product(2), 2000, seed=19)
    gd = klo_duals(ds, k=2)
    path = tmp_path / "frames.icdl"
    write_duals(path, gd)
    back = read_duals(path)
    assert back.provenance == "klo-ConstrainedLAD"
    assert np.array_equal(hermitian_stack(back.frames[0].duals), hermitian_stack(gd.frames[0].duals))


# Golden duals files: the canonical frame of test_duals_round_trip_canonical
# and the learned one of test_duals_round_trip_learned, as written when
# frames still held complex stacks. The canonical file's bytes are pinned.
GOLDEN = Path(__file__).parent / "data"
CANONICAL_SHA256 = "b58e18d8da8363c1d9b8c45c6e71f59a8286a115b4d19fe3f584108cbc5d3c95"


@pytest.mark.parametrize("name", ["canonical_3q.icdl", "klo_bell_2q.icdl"])
def test_golden_duals_files_round_trip_byte_for_byte(tmp_path, name):
    path = tmp_path / name
    write_duals(path, read_duals(GOLDEN / name))
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


def test_canonical_duals_file_bytes_are_pinned(tmp_path):
    path = tmp_path / "frames.icdl"
    write_duals(path, canonical_global(pauli6_product(3), Partition(((0, 1), (2,)))))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CANONICAL_SHA256
    assert path.read_bytes() == (GOLDEN / "canonical_3q.icdl").read_bytes()


def test_dataset_rejects_seeds_the_file_cannot_hold():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"is outside \[0, 2\^64\)"):
            Dataset(n=1, d=6, S=1, records=np.zeros((1, 1), dtype=np.uint8), seed=seed)
    Dataset(n=1, d=6, S=1, records=np.zeros((1, 1), dtype=np.uint8), seed=2**64 - 1)


def test_write_duals_rejects_provenances_the_file_cannot_hold(tmp_path):
    frame = canonical_global(pauli6_product(1)).frames[0]

    def register(provenance):
        return GlobalDuals(Partition.singletons(1), (replace(frame, provenance=provenance),))

    # the length field counts UTF-8 bytes: 32768 two-byte letters are one too many
    for provenance, message in (
        ("x" * 65536, "65536 provenance bytes exceeds 65535, the most a duals file"),
        ("\u00e9" * 32768, "65536 provenance bytes exceeds 65535"),
        ("lone \ud800 surrogate", "not encodable as UTF-8"),
    ):
        with pytest.raises(ValueError, match=message):
            write_duals(tmp_path / "x.icdl", register(provenance))
    assert not any(tmp_path.iterdir())
    longest = "\u00e9" * 32767 + "x"
    write_duals(tmp_path / "x.icdl", register(longest))
    assert read_duals(tmp_path / "x.icdl").provenance == longest


def test_duals_format_errors(tmp_path):
    gd = canonical_global(pauli6_product(2))
    path = tmp_path / "frames.icdl"
    write_duals(path, gd)
    blob = path.read_bytes()

    bad = tmp_path / "bad.icdl"
    bad.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(ValueError, match="not a duals"):
        read_duals(bad)
    bad.write_bytes(blob[:4] + b"\x02\x00" + blob[6:])
    with pytest.raises(ValueError, match="unsupported version"):
        read_duals(bad)
    bad.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="truncated"):
        read_duals(bad)
    bad.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        read_duals(bad)


def test_read_duals_rejects_provenance_that_is_not_utf8(tmp_path):
    gd = canonical_global(pauli6_product(1))
    path = tmp_path / "frames.icdl"
    write_duals(path, gd)
    blob = path.read_bytes()
    prov = gd.frames[0].provenance.encode()
    at = blob.index(prov)
    path.write_bytes(blob[:at] + b"\xff" * len(prov) + blob[at + len(prov):])
    with pytest.raises(ValueError, match="provenance is not UTF-8"):
        read_duals(path)


def test_read_duals_rejects_nan_payload(tmp_path):
    gd = canonical_global(pauli6_product(2))
    path = tmp_path / "frames.icdl"
    write_duals(path, gd)
    blob = bytearray(path.read_bytes())
    # the last frame's payload ends the file; poison its final real part
    blob[-16:-8] = np.array([np.nan]).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="finite"):
        read_duals(path)


def test_read_duals_rejects_non_hermitian_duals(tmp_path):
    gd = canonical_global(pauli6_product(1))
    path = tmp_path / "frames.icdl"
    write_duals(path, gd)
    blob = bytearray(path.read_bytes())
    payload = np.frombuffer(bytes(blob[-6 * 4 * 16 :]), dtype=np.complex128).reshape(6, 2, 2)
    skewed = anti_hermitian_duals(payload)
    assert max_entry_residual(skewed, hermitian_stack(gd.frames[0].effects)) < 1e-15
    blob[-6 * 4 * 16 :] = skewed.tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="frames.icdl.*duals are not Hermitian"):
        read_duals(path)


def test_write_duals_rejects_foreign_effects(tmp_path):
    from icshadows.frames import DualFrame, GlobalDuals, canonical_duals

    effects = pauli6_product(1).group_effects((0,))
    frame = canonical_duals(effects, group=(0,))
    # rescaled effects still form a frame but are not the packaged POVM
    scaled = DualFrame(group=(0,), effects=2 * effects, duals=0.5 * frame.duals)
    gd = GlobalDuals(Partition.singletons(1), (scaled,))
    with pytest.raises(ValueError, match="Pauli-6"):
        write_duals(tmp_path / "x.icdl", gd)


def test_run_config_validation_and_backends():
    cfg = RunConfig()
    assert cfg.backend == "lad"
    assert cfg.resolved_S_bias(6) == pytest.approx(6.0**4)
    assert RunConfig(S_bias=100.0).resolved_S_bias(6) == 100.0
    from icshadows.tomography import ConstrainedLAD, FrequencyBias, LinearInversionPSD

    assert isinstance(RunConfig(backend="bias").tomography_backend(6), FrequencyBias)
    assert isinstance(RunConfig(backend="psd").tomography_backend(6), LinearInversionPSD)
    assert isinstance(cfg.tomography_backend(6), ConstrainedLAD)
    with pytest.raises(ValueError, match="unknown partitioner"):
        RunConfig(partitioner="metis")
    with pytest.raises(ValueError, match="unknown backend"):
        RunConfig(backend="mle")
    with pytest.raises(ValueError):
        RunConfig(k=0)
    with pytest.raises(ValueError):
        RunConfig(workers=0)


def test_run_config_rejects_out_of_range_seeds():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            RunConfig(seed=seed)
    # the check adds no field: digests of valid configs keep their values
    assert RunConfig().hash() == "dfb2aa4cbb4a"
    assert RunConfig(seed=2**64 - 1).hash() == "cd408c74ef6c"


@pytest.mark.parametrize("floor", [float("nan"), float("inf"), 0.0, -1.0])
def test_run_config_rejects_bad_floor(floor):
    with pytest.raises(ValueError, match="floor"):
        RunConfig(floor=floor)


def test_config_hash_stability():
    cfg = RunConfig()
    h = cfg.hash()
    assert len(h) == 12
    assert h == RunConfig().hash()
    assert h != RunConfig(seed=1).hash()
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})


def test_write_csv_file_and_stdout(tmp_path, capsys):
    path = tmp_path / "out.csv"
    write_csv(path, ["a", "b"], [[1, 2], [3, "x,y"]])
    assert path.read_text() == 'a,b\n1,2\n3,"x,y"\n'
    write_csv(None, ["a"], [[1]])
    assert capsys.readouterr().out == "a\n1\n"
    write_csv("-", ["z"], [])
    assert capsys.readouterr().out == "z\n"
