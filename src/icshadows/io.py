"""File formats: Hamiltonian text, dataset binary, partitions, duals, CSV.

Round-trip fidelity is a hard requirement; every format is covered by
golden-file tests. Binary formats are little-endian with fixed magic
bytes, so files are portable across platforms.
"""

from __future__ import annotations

import csv
import hashlib
import io as _io
import math
import struct
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from .algebra import hermitian_coords, hermitian_stack, stack_asymmetry
from .correlations import PARTITIONERS
from .frames import DUALITY_TOL, PROBABILITY_FLOOR, DualFrame, GlobalDuals
from .observables import PauliObservable
from .partition import Partition
from .povm import pauli6_product
from .sampling import Dataset
from .tomography import ConstrainedLAD, FrequencyBias, LinearInversionPSD

__all__ = [
    "BACKENDS",
    "RunConfig",
    "read_hamiltonian",
    "write_hamiltonian",
    "bundled_hamiltonian",
    "read_dataset",
    "write_dataset",
    "read_partition",
    "write_partition",
    "read_duals",
    "write_duals",
    "config_hash",
    "write_csv",
]

DATASET_MAGIC = b"ICSD"
DUALS_MAGIC = b"ICDL"
DATASET_HEADER = struct.Struct("<4sHHHQQ")
QUBIT_FIELD_MAX = 2**16 - 1  # uint16 fields: each qubit count, a provenance's UTF-8 bytes
_PAULI6_OUTCOMES = 6


# tomography backends by name, each built by ``(config, d)``
BACKENDS = {
    "bias": lambda cfg, d: FrequencyBias(cfg.resolved_S_bias(d)),
    "psd": lambda cfg, d: LinearInversionPSD(),
    "lad": lambda cfg, d: ConstrainedLAD(),
}


@dataclass(frozen=True)
class RunConfig:
    """Pipeline defaults shared by the CLI subcommands."""

    seed: int = 0
    S: int = 10**6
    k: int = 4
    partitioner: str = next(iter(PARTITIONERS))  # the table's first name
    backend: str = "lad"
    S_bias: float | None = None  # None means d^k at point of use
    floor: float = PROBABILITY_FLOOR
    drop_identity: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.partitioner not in PARTITIONERS:
            raise ValueError(f"unknown partitioner {self.partitioner!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.k < 1 or self.S < 0 or self.workers < 1:
            raise ValueError("k and workers must be >= 1 and S >= 0")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} is outside [0, 2^64)")
        if not (math.isfinite(self.floor) and self.floor > 0):
            raise ValueError(f"floor must be finite and positive, got {self.floor!r}")

    def resolved_S_bias(self, d: int) -> float:
        return float(d**self.k) if self.S_bias is None else float(self.S_bias)

    def tomography_backend(self, d: int):
        return BACKENDS[self.backend](self, d)

    def hash(self) -> str:
        return config_hash(asdict(self))


def config_hash(mapping: dict) -> str:
    """Short stable digest of a flat config mapping, for CSV provenance."""
    blob = "\n".join(f"{k}={mapping[k]!r}" for k in sorted(mapping))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def read_hamiltonian(path) -> PauliObservable:
    terms = []
    # an undecodable byte becomes U+FFFD, which fails below with its line number
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected '<coefficient> <word>', got {line!r}"
                )
            try:
                coeff = float(parts[0])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad coefficient {parts[0]!r}") from None
            if not np.isfinite(coeff):
                raise ValueError(f"{path}:{lineno}: non-finite coefficient {parts[0]!r}")
            word = parts[1].upper()
            if any(ch not in "IXYZ" for ch in word):
                raise ValueError(f"{path}:{lineno}: bad Pauli word {parts[1]!r}")
            if terms and len(word) != len(terms[0][1]):
                raise ValueError(f"{path}:{lineno}: word length differs from earlier lines")
            terms.append((coeff, word))
    if not terms:
        raise ValueError(f"{path}: no Hamiltonian terms found")
    return PauliObservable.from_terms(terms)


def write_hamiltonian(path, obs: PauliObservable, comments=()) -> None:
    with open(path, "w") as fh:
        for comment in comments:
            fh.write(f"# {comment}\n")
        for coeff, word in obs.terms:
            fh.write(f"{coeff:+.14e} {word}\n")


def bundled_hamiltonian(name: str) -> PauliObservable:
    """Load one of the packaged benchmark Hamiltonians by file name."""
    ref = resources.files("icshadows.data").joinpath(name)
    with resources.as_file(ref) as path:
        return read_hamiltonian(path)


def _check_field(value: int, unit: str, kind: str) -> None:
    if value > QUBIT_FIELD_MAX:
        raise ValueError(f"{value} {unit} exceeds {QUBIT_FIELD_MAX}, the most a {kind} file holds")


def write_dataset(path, ds: Dataset) -> None:
    if ds.povm_id != "pauli6":
        raise ValueError("dataset format v1 stores Pauli-6 datasets only")
    _check_field(ds.n, "qubits", "dataset")
    header = DATASET_HEADER.pack(DATASET_MAGIC, 1, ds.n, ds.d, ds.S, ds.seed)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(ds.records.tobytes())


@contextmanager
def _errors_name(path):
    """Prefix the file name to every ValueError raised while parsing it."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    with _errors_name(path):
        if len(blob) < DATASET_HEADER.size:
            raise ValueError("truncated header")
        magic, version, n, d, S, seed = DATASET_HEADER.unpack_from(blob)
        if magic != DATASET_MAGIC:
            raise ValueError("not a dataset file")
        if version != 1:
            raise ValueError(f"unsupported version {version}")
        if n < 1 or d != _PAULI6_OUTCOMES:
            raise ValueError(f"v1 holds Pauli-6 records of at least one qubit, not n={n}, d={d}")
        body = blob[DATASET_HEADER.size :]
        if len(body) != S * n:
            raise ValueError(f"expected {S * n} record bytes, found {len(body)}")
        records = np.frombuffer(body, dtype=np.uint8).reshape(S, n)
        return Dataset(n=n, d=d, S=S, records=records, seed=seed)


def write_partition(path, partition: Partition) -> None:
    with open(path, "w") as fh:
        for group in partition.groups:
            fh.write(" ".join(str(q) for q in group) + "\n")


def read_partition(path) -> Partition:
    groups = []
    # undecodable bytes become U+FFFD and then fail as a bad group line
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                groups.append(tuple(int(tok) for tok in line.split()))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad group line {line!r}") from None
    with _errors_name(path):
        if not groups:
            raise ValueError("no groups found")
        return Partition(tuple(groups))


def write_duals(path, duals: GlobalDuals) -> None:
    """Serialize per-group dual operators; v1 covers Pauli-6 frames, each
    stored as the complex128 ``(M, dim, dim)`` stack of its coordinates."""
    n = duals.n
    _check_field(n, "qubits", "duals")
    povm = pauli6_product(n)
    out = bytearray()
    out += struct.pack("<4sHH", DUALS_MAGIC, 1, n)
    out += struct.pack("<H", len(duals.frames))
    for frame in duals.frames:
        if not np.array_equal(frame.effects, povm.group_effects(frame.group)):
            raise ValueError("duals format v1 stores Pauli-6 frames only")
        try:
            prov = frame.provenance.encode()
        except UnicodeEncodeError:
            raise ValueError("provenance is not encodable as UTF-8") from None
        _check_field(len(prov), "provenance bytes", "duals")
        out += struct.pack("<H", len(frame.group))
        out += struct.pack(f"<{len(frame.group)}H", *frame.group)
        out += struct.pack("<IHH", frame.outcomes, frame.dim, len(prov))
        out += prov
        out += hermitian_stack(frame.duals).tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(out))


def read_duals(path) -> GlobalDuals:
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0

    def take(size: int) -> bytes:
        nonlocal offset
        if offset + size > len(blob):
            raise ValueError("truncated duals file")
        offset += size
        return blob[offset - size : offset]

    def unpack(fmt: str):
        s = struct.Struct(fmt)
        return s.unpack(take(s.size))

    with _errors_name(path):
        magic, version, n = unpack("<4sHH")
        if magic != DUALS_MAGIC:
            raise ValueError("not a duals file")
        if version != 1:
            raise ValueError(f"unsupported version {version}")
        (n_groups,) = unpack("<H")
        povm = pauli6_product(n)
        frames = []
        for _ in range(n_groups):
            (k,) = unpack("<H")
            group = unpack(f"<{k}H")
            outcomes, dim, prov_len = unpack("<IHH")
            # checked before any group-sized array is built
            if not all(q < n for q in group) or (outcomes, dim) != (_PAULI6_OUTCOMES**k, 2**k):
                raise ValueError(f"group {group} is not a Pauli-6 group of {n} qubits")
            try:
                prov = take(prov_len).decode()
            except UnicodeDecodeError:
                raise ValueError("provenance is not UTF-8") from None
            stack = np.frombuffer(take(outcomes * dim * dim * 16), dtype=np.complex128)
            stack = stack.reshape(outcomes, dim, dim)
            # the real coordinates would drop an anti-Hermitian part unseen
            if not np.isfinite(stack).all():
                raise ValueError("duals must be finite")
            asym = stack_asymmetry(stack)
            if not asym <= DUALITY_TOL:
                raise ValueError(
                    f"duals are not Hermitian (asymmetry {asym:.3e} exceeds {DUALITY_TOL})"
                )
            duals = hermitian_coords(stack)
            duals.setflags(write=False)  # fresh, so the frame keeps it without a copy
            frames.append(DualFrame(group, povm.group_effects(group), duals, prov))
        if offset != len(blob):
            raise ValueError("trailing bytes after duals payload")
        partition = Partition(tuple(frame.group for frame in frames))
        if partition.n != n:
            raise ValueError(f"groups cover {partition.n} of the {n} qubits")
        return GlobalDuals(partition=partition, frames=tuple(frames))


def write_csv(path, header, rows) -> None:
    """Write CSV to a path, or to stdout when path is None or '-'."""
    if path is None or path == "-":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        return
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with open(path, "w", newline="") as fh:
        fh.write(buf.getvalue())
