"""Multi-view dataset container, dataset manifests, and delimited-text I/O.

A dataset is a list of per-view feature matrices over the same samples. The
manifest is a small JSON file describing where each view lives on disk, how
to parse it, and whether to z-score it on load.

Every file acsl writes goes through `write_matrix`, `write_lines` or
`write_json`, so all outputs share one format: 17-significant-digit floats,
sorted-key JSON, a newline after every line.
"""

from dataclasses import asdict, dataclass, fields
from functools import cached_property
import json
from pathlib import Path
from types import NoneType, UnionType
from typing import get_args, get_origin

import numpy as np

from .errors import ConfigError, require_finite, require_numeric

# 17 significant digits round-trips IEEE doubles exactly.
FLOAT_FORMAT = "%.17g"

MANIFEST_SCHEMA_VERSION = 1

# Characters a FLOAT_FORMAT number can hold, which no delimiter may hold.
_NUMBER_CHARS = frozenset("0123456789.+-eE")

# How a manifest file spells each field type.
_JSON_TYPES = {str: "a string", bool: "true or false", int: "an integer", list: "a list",
               NoneType: "null"}


@dataclass(frozen=True)
class MultiViewDataset:
    """Per-view feature matrices sharing a common sample axis.

    `informative_dims` carries the planted per-view informative column
    indices for synthetic data (None for loaded datasets).
    """

    views: list[np.ndarray]
    name: str = "dataset"
    informative_dims: list[np.ndarray] | None = None

    def __post_init__(self):
        if not self.views:
            raise ConfigError("a dataset needs at least one view")
        views = [require_finite(f"view {i}", v, 2) for i, v in enumerate(self.views)]
        n = views[0].shape[0]
        for i, v in enumerate(views):
            if v.shape[0] != n:
                raise ConfigError(
                    f"row-count mismatch: view {i} has {v.shape[0]} rows, view 0 has {n}"
                )
        object.__setattr__(self, "views", views)

    @property
    def n(self) -> int:
        return self.views[0].shape[0]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def dims(self) -> list[int]:
        return [v.shape[1] for v in self.views]

    @property
    def d(self) -> int:
        return sum(self.dims)

    @cached_property
    def stacked(self) -> np.ndarray:
        """All views concatenated column-wise into one (n, d) matrix."""
        return np.hstack(self.views)

    @cached_property
    def view_of(self) -> np.ndarray:
        """View index of every stacked column."""
        return np.repeat(np.arange(self.n_views), self.dims)

    @cached_property
    def view_offsets(self) -> np.ndarray:
        """Starting stacked-column offset of each view."""
        return np.concatenate(([0], np.cumsum(self.dims)[:-1]))

    def stacked_informative_dims(self) -> np.ndarray | None:
        """Planted informative indices mapped into stacked-column space."""
        if self.informative_dims is None:
            return None
        parts = [
            idx + off for idx, off in zip(self.informative_dims, self.view_offsets)
        ]
        return np.concatenate(parts)


def _check_types(spec) -> None:
    """Raise a ConfigError naming the first field of dataclass `spec` whose
    value is not of the field's type. The test is `type(value) is t`, since
    True would pass isinstance(True, int)."""
    for f in fields(spec):
        types = get_args(f.type) if isinstance(f.type, UnionType) else (f.type,)
        types = [get_origin(t) or t for t in types]
        value = getattr(spec, f.name)
        if type(value) not in types:
            expected = " or ".join(_JSON_TYPES[t] for t in types)
            raise ConfigError(f"manifest field {f.name!r} must be {expected}, got {value!r}")


@dataclass(frozen=True)
class ViewSpec:
    """How to locate and parse one view's matrix file.

    The delimiter must split written numbers back apart: it is nonempty and
    holds no line break and no _NUMBER_CHARS. A blank one splits on any
    whitespace run.
    """

    path: str
    delimiter: str = ","
    has_header: bool = False
    dims: int | None = None

    def __post_init__(self):
        _check_types(self)
        if self.delimiter.splitlines() != [self.delimiter] or _NUMBER_CHARS & set(self.delimiter):
            raise ConfigError(
                f"delimiter {self.delimiter!r} must be nonempty and hold no line break "
                "and none of 0-9 . + - e E"
            )


@dataclass(frozen=True)
class DatasetManifest:
    """Description of an on-disk multi-view dataset.

    Paths are interpreted relative to `base_dir` (set when reading a
    manifest file). Labels are optional; the method is unsupervised and
    labels only serve evaluation.
    """

    name: str
    views: list[ViewSpec]
    labels_path: str | None = None
    n: int | None = None
    standardize: bool = True
    base_dir: str = "."

    def __post_init__(self):
        _check_types(self)
        if not self.views:
            raise ConfigError(f"manifest '{self.name}' declares no views")

    def resolve(self, path: str) -> Path:
        return Path(self.base_dir) / path

    @classmethod
    def _file_keys(cls) -> set[str]:
        """Top-level keys of a manifest file: every field but base_dir, which
        is where the file lives, plus schema_version."""
        return {f.name for f in fields(cls)} - {"base_dir"} | {"schema_version"}

    @classmethod
    def from_file(cls, path: str | Path) -> "DatasetManifest":
        """Read a manifest file. Unknown keys and a schema_version other than
        the integer MANIFEST_SCHEMA_VERSION are ConfigErrors; a missing one
        is accepted."""
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"manifest file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"manifest {path} is not valid JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError(f"manifest {path} must hold a JSON object")
        unknown = sorted(set(raw) - cls._file_keys())
        if unknown:
            raise ConfigError(f"manifest {path} has unknown key(s): {', '.join(unknown)}")
        version = raw.pop("schema_version", MANIFEST_SCHEMA_VERSION)
        # `==` alone would pass true and 1.0, which equal 1 in Python.
        if type(version) is not int or version != MANIFEST_SCHEMA_VERSION:
            raise ConfigError(
                f"manifest {path} has schema_version {version!r}; "
                f"only {MANIFEST_SCHEMA_VERSION} is supported"
            )
        try:
            views = [ViewSpec(**v) for v in raw["views"]]
            return cls(**{"name": path.stem, **raw, "views": views,
                          "base_dir": str(path.parent)})
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"manifest {path} has an invalid field: {exc}")

    def to_dict(self) -> dict:
        keys = self._file_keys()
        stored = {k: v for k, v in asdict(self).items() if k in keys}
        return {**stored, "schema_version": MANIFEST_SCHEMA_VERSION}

    def write(self, path: str | Path) -> None:
        write_json(path, self.to_dict())


def _parse_matrix(path: Path, delimiter: str, has_header: bool) -> np.ndarray:
    """Parse a delimited numeric text matrix in one pass.

    Each data row is converted by one numpy call, which accepts exactly the
    cells `float()` accepts and gives the same bits. The pass stops at the
    first row that does not convert or whose width differs from the first
    row's. The file's first defect is in that row or in an earlier one that
    holds a non-finite value; `_reject_row` names its row, column and cell.
    """
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise ConfigError(f"view file not found: {path}")
    rows, numbers, stop = [], [], None
    for r in range(1 if has_header else 0, len(lines)):
        if not lines[r].strip():
            continue
        try:
            row = np.array(_cells(lines[r], delimiter), dtype=float)
        except ValueError:
            row = None
        if row is None or (rows and row.size != rows[0].size):
            stop = r
            break
        rows.append(row)
        numbers.append(r)
    matrix = np.array(rows)
    if rows and not np.isfinite(matrix).all():
        stop = numbers[np.isfinite(matrix).all(axis=1).argmin()]
    if stop is not None:
        width = rows[0].size if rows else None
        _reject_row(path, stop, _cells(lines[stop], delimiter), width)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    return matrix


def _cells(line: str, delimiter: str) -> list[str]:
    """The cells of one line; a blank delimiter splits on any whitespace run."""
    return line.split() if delimiter.strip() == "" else line.split(delimiter)


def _reject_row(path: Path, r: int, cells: list[str], width: int | None):
    """Raise a ConfigError at the first cell of line `r` that is not a finite
    number or, if there is none, at the row's width."""
    for c, cell in enumerate(cells):
        try:
            defect = None if np.isfinite(float(cell)) else "non-finite"
        except ValueError:
            defect = "non-numeric"
        if defect:
            raise ConfigError(
                f"{path}: {defect} value {cell.strip()!r} at row {r + 1}, column {c + 1}"
            )
    raise ConfigError(f"{path}: row {r + 1} has {len(cells)} columns, expected {width}")


def zscore_columns(a: np.ndarray) -> np.ndarray:
    """Center and scale each column to unit variance; constant columns are
    centered only."""
    mu = a.mean(axis=0)
    sd = a.std(axis=0)
    sd = np.where(sd == 0, 1.0, sd)
    return (a - mu) / sd


def load_dataset(manifest: DatasetManifest) -> MultiViewDataset:
    """Load every view declared in the manifest into a MultiViewDataset.

    Validates declared dimensions and sample counts, and applies per-view
    z-score standardization when the manifest asks for it (the default).
    """
    mats = []
    for spec in manifest.views:
        m = _parse_matrix(manifest.resolve(spec.path), spec.delimiter, spec.has_header)
        if spec.dims is not None and m.shape[1] != spec.dims:
            raise ConfigError(
                f"view '{spec.path}' has {m.shape[1]} columns, manifest declares {spec.dims}"
            )
        mats.append(m)
    counts = {spec.path: m.shape[0] for spec, m in zip(manifest.views, mats)}
    if len(set(counts.values())) > 1:
        detail = ", ".join(f"'{p}': {c} rows" for p, c in counts.items())
        raise ConfigError(f"views disagree on sample count ({detail})")
    if manifest.n is not None and mats[0].shape[0] != manifest.n:
        raise ConfigError(
            f"dataset has {mats[0].shape[0]} samples, manifest declares {manifest.n}"
        )
    if manifest.standardize:
        mats = [zscore_columns(m) for m in mats]
    return MultiViewDataset(views=mats, name=manifest.name)


def load_labels(manifest: DatasetManifest) -> np.ndarray | None:
    """Integer labels (one per line) if the manifest declares them."""
    if manifest.labels_path is None:
        return None
    path = manifest.resolve(manifest.labels_path)
    try:
        lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.strip()]
    except FileNotFoundError:
        raise ConfigError(f"labels file not found: {path}")
    try:
        labels = np.array([int(ln) for ln in lines])
    except ValueError as exc:
        raise ConfigError(f"{path}: labels must be integers ({exc})")
    if manifest.n is not None and labels.size != manifest.n:
        raise ConfigError(
            f"{path}: {labels.size} labels for {manifest.n} declared samples"
        )
    return labels


def write_matrix(path: str | Path, a: np.ndarray, delimiter: str = ",") -> None:
    """Write a 2-d matrix one row per line, cells in FLOAT_FORMAT joined by
    `delimiter`: the bytes of `np.savetxt` with that format, formatted in
    one operation instead of one per row."""
    a = require_numeric("matrix", a)
    row_fmt = delimiter.join([FLOAT_FORMAT] * a.shape[1]) + "\n"
    Path(path).write_text((row_fmt * a.shape[0]) % tuple(a.ravel().tolist()),
                          encoding="utf-8")


def write_lines(path: str | Path, lines) -> None:
    """Write each of `lines` and a newline as UTF-8 text, creating the
    parent directory if it is missing."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def _plain(value):
    """json's fallback: a numpy scalar or array as the equal Python value."""
    if not isinstance(value, (np.generic, np.ndarray)):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return value.tolist()


def write_json(path: str | Path, payload: dict) -> None:
    """Write `payload` as JSON, sorted keys, two-space indent, numpy values as Python's."""
    write_lines(path, [json.dumps(payload, indent=2, sort_keys=True, default=_plain)])


def save_dataset(
    dataset: MultiViewDataset,
    out_dir: str | Path,
    labels: np.ndarray | None = None,
    delimiter: str = ",",
    standardize: bool = True,
) -> Path:
    """Write a dataset as per-view text matrices plus a manifest.

    Returns the manifest path. The raw matrices are written verbatim;
    `standardize` only records whether loaders should z-score them.
    """
    out = Path(out_dir)
    specs = [ViewSpec(path=f"view_{i}.csv", delimiter=delimiter, dims=m.shape[1])
             for i, m in enumerate(dataset.views)]
    out.mkdir(parents=True, exist_ok=True)
    for spec, m in zip(specs, dataset.views):
        write_matrix(out / spec.path, m, delimiter=delimiter)
    labels_path = None
    if labels is not None:
        labels_path = "labels.txt"
        write_lines(out / labels_path, (int(v) for v in labels))
    manifest = DatasetManifest(
        name=dataset.name,
        views=specs,
        labels_path=labels_path,
        n=dataset.n,
        standardize=standardize,
        base_dir=str(out),
    )
    manifest_path = out / "manifest.json"
    manifest.write(manifest_path)
    return manifest_path
