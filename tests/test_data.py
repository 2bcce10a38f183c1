import json

import numpy as np
import pytest

import acsl.data
from acsl.data import (
    FLOAT_FORMAT,
    DatasetManifest,
    MultiViewDataset,
    ViewSpec,
    load_dataset,
    load_labels,
    save_dataset,
    write_json,
    write_matrix,
    zscore_columns,
)
from acsl.errors import ConfigError
from acsl.synthetic import generate_synthetic

from helpers import check_array_rule


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


def toy_manifest(tmp_path, standardize=False):
    write_csv(tmp_path / "a.csv", [[1, 2], [3, 4], [5, 6], [7, 8]])
    write_csv(tmp_path / "b.csv", [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]])
    return DatasetManifest(
        name="toy",
        views=[ViewSpec(path="a.csv", dims=2), ViewSpec(path="b.csv", dims=3)],
        n=4,
        standardize=standardize,
        base_dir=str(tmp_path),
    )


def test_two_view_stacking_arithmetic(tmp_path):
    ds = load_dataset(toy_manifest(tmp_path))
    assert ds.stacked.shape == (4, 5)
    assert np.array_equal(ds.view_of, [0, 0, 1, 1, 1])
    assert np.array_equal(ds.view_offsets, [0, 2])
    assert np.array_equal(ds.stacked[:, :2], [[1, 2], [3, 4], [5, 6], [7, 8]])


def test_row_count_mismatch_names_both_views(tmp_path):
    write_csv(tmp_path / "a.csv", [[1, 2], [3, 4]])
    write_csv(tmp_path / "b.csv", [[1], [2], [3]])
    manifest = DatasetManifest(
        name="bad",
        views=[ViewSpec(path="a.csv"), ViewSpec(path="b.csv")],
        base_dir=str(tmp_path),
    )
    with pytest.raises(ConfigError) as exc:
        load_dataset(manifest)
    assert "a.csv" in str(exc.value) and "b.csv" in str(exc.value)


def test_non_numeric_cell_reports_row_and_column(tmp_path):
    (tmp_path / "a.csv").write_text("1,2\n3,oops\n")
    manifest = DatasetManifest(
        name="bad", views=[ViewSpec(path="a.csv")], base_dir=str(tmp_path)
    )
    with pytest.raises(ConfigError) as exc:
        load_dataset(manifest)
    msg = str(exc.value)
    assert "row 2" in msg and "column 2" in msg and "oops" in msg


def test_non_finite_cell_rejected(tmp_path):
    (tmp_path / "a.csv").write_text("1,2\n3,inf\n")
    manifest = DatasetManifest(
        name="bad", views=[ViewSpec(path="a.csv")], base_dir=str(tmp_path)
    )
    with pytest.raises(ConfigError):
        load_dataset(manifest)


def test_declared_dimension_mismatch(tmp_path):
    write_csv(tmp_path / "a.csv", [[1, 2], [3, 4]])
    manifest = DatasetManifest(
        name="bad", views=[ViewSpec(path="a.csv", dims=3)], base_dir=str(tmp_path)
    )
    with pytest.raises(ConfigError) as exc:
        load_dataset(manifest)
    assert "declares 3" in str(exc.value)


def test_declared_sample_count_mismatch(tmp_path):
    write_csv(tmp_path / "a.csv", [[1], [2]])
    manifest = DatasetManifest(
        name="bad", views=[ViewSpec(path="a.csv")], n=5, base_dir=str(tmp_path)
    )
    with pytest.raises(ConfigError):
        load_dataset(manifest)


def test_missing_view_file(tmp_path):
    manifest = DatasetManifest(
        name="bad", views=[ViewSpec(path="nope.csv")], base_dir=str(tmp_path)
    )
    with pytest.raises(ConfigError):
        load_dataset(manifest)


def test_whitespace_delimiter(tmp_path):
    (tmp_path / "a.txt").write_text("1  2\n3 4\n")
    manifest = DatasetManifest(
        name="ws",
        views=[ViewSpec(path="a.txt", delimiter=" ")],
        standardize=False,
        base_dir=str(tmp_path),
    )
    ds = load_dataset(manifest)
    assert np.array_equal(ds.views[0], [[1, 2], [3, 4]])


def test_header_rows_are_skipped(tmp_path):
    (tmp_path / "a.csv").write_text("x,y\n1,2\n3,4\n")
    manifest = DatasetManifest(
        name="hdr",
        views=[ViewSpec(path="a.csv", has_header=True)],
        standardize=False,
        base_dir=str(tmp_path),
    )
    assert np.array_equal(load_dataset(manifest).views[0], [[1, 2], [3, 4]])


def _load_raw(tmp_path, text, delimiter=",", has_header=False):
    (tmp_path / "a.txt").write_text(text, encoding="utf-8")
    manifest = DatasetManifest(
        name="raw",
        views=[ViewSpec(path="a.txt", delimiter=delimiter, has_header=has_header)],
        standardize=False,
        base_dir=str(tmp_path),
    )
    return load_dataset(manifest).views[0]


def _float_per_cell(text, delimiter=",", has_header=False):
    """The reference parse: one float() per cell."""
    lines = text.splitlines()[1 if has_header else 0:]
    split = str.split if delimiter.strip() == "" else (lambda ln: ln.split(delimiter))
    return np.array([[float(c) for c in split(ln)] for ln in lines if ln.strip()])


PARSE_CASES = [
    (" 1.5 ,+1,-0\n1_000,4.9e-324,0.30000000000000004\n", ",", False),
    ("2.2250738585072014e-308,-1.7976931348623157e+308,\u0661\u0662\n"
     "\t3 ,1E5,-.5\n", ",", False),
    ("  1   2\t-0\n\n 0.10000000000000001 1e-5  7 \n", " ", False),
    ("x;y;z\n1;2;3\n\n4;5;6\n", ";", True),
]


@pytest.mark.parametrize("text, delimiter, has_header", PARSE_CASES)
def test_parse_is_bitwise_float_per_cell(tmp_path, text, delimiter, has_header):
    got = _load_raw(tmp_path, text, delimiter, has_header)
    want = _float_per_cell(text, delimiter, has_header)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_written_matrix_reloads_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    a = rng.normal(size=(40, 7)) * 10.0 ** rng.integers(-300, 300, size=(40, 7))
    a[0, :3] = [-0.0, 5e-324, 1.7976931348623157e308]
    write_matrix(tmp_path / "a.txt", a)
    assert _load_raw(tmp_path, (tmp_path / "a.txt").read_text()).tobytes() == a.tobytes()


def test_successful_parse_makes_no_per_cell_pass(tmp_path, monkeypatch):
    # A valid file is read in one pass: each data line is split exactly once.
    split = []
    cells = acsl.data._cells

    def counted(line, delimiter):
        split.append(line)
        return cells(line, delimiter)

    monkeypatch.setattr(acsl.data, "_cells", counted)
    text, delimiter, has_header = PARSE_CASES[3]
    assert _load_raw(tmp_path, text, delimiter, has_header).shape == (2, 3)
    assert split == ["1;2;3", "4;5;6"]


@pytest.mark.parametrize("text, message", [
    ("1,2\n3\n", "row 2 has 1 columns, expected 2"),
    ("1,2\n\n3,4,5\n", "row 3 has 3 columns, expected 2"),
    ("1,2,\n3,4,\n", "non-numeric value '' at row 1, column 3"),
    ("x,y\n1,2\n", "non-numeric value 'x' at row 1, column 1"),
    ("1,2\n3, oops \n", "non-numeric value 'oops' at row 2, column 2"),
    ("1,nan\n3,4\n", "non-finite value 'nan' at row 1, column 2"),
    ("1,2\n1e400,4\n", "non-finite value '1e400' at row 2, column 1"),
    ("1,nan\n3,x\n", "non-finite value 'nan' at row 1, column 2"),
    ("1,2\n3,inf,x\n", "non-finite value 'inf' at row 2, column 2"),
    ("\n  \n", "no data rows"),
])
def test_parse_errors_name_the_cell(tmp_path, text, message):
    with pytest.raises(ConfigError) as exc:
        _load_raw(tmp_path, text)
    assert str(exc.value) == f"{tmp_path / 'a.txt'}: {message}"


@pytest.mark.parametrize("delimiter", [",", "\t", " "])
def test_write_matrix_bytes_match_savetxt(tmp_path, delimiter):
    rng = np.random.default_rng(5)
    a = rng.normal(size=(30, 4)) * 10.0 ** rng.integers(-20, 20, size=(30, 4))
    a[0] = [-0.0, 5e-324, 1e308, 3.0]
    write_matrix(tmp_path / "ours.txt", a, delimiter=delimiter)
    np.savetxt(tmp_path / "ref.txt", a, fmt=FLOAT_FORMAT, delimiter=delimiter)
    assert (tmp_path / "ours.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_write_json_writes_numpy_values_as_the_equal_python_values(tmp_path):
    as_numpy = {"k": np.int64(3), "seeds": (np.uint8(0), np.int32(1)), "dims": np.arange(3),
                "mass": np.float64(0.1), "done": np.bool_(True), "grid": [np.int64(-2)]}
    as_python = {"k": 3, "seeds": [0, 1], "dims": [0, 1, 2], "mass": 0.1, "done": True,
                 "grid": [-2]}
    write_json(tmp_path / "numpy.json", as_numpy)
    write_json(tmp_path / "python.json", as_python)
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        write_json(tmp_path / "set.json", {"s": {1}})


def test_labels_roundtrip(tmp_path):
    manifest = toy_manifest(tmp_path)
    assert load_labels(manifest) is None
    (tmp_path / "labels.txt").write_text("0\n1\n1\n0\n")
    manifest2 = DatasetManifest(
        name="toy", views=manifest.views, labels_path="labels.txt",
        n=4, base_dir=str(tmp_path),
    )
    assert np.array_equal(load_labels(manifest2), [0, 1, 1, 0])


def test_labels_length_checked(tmp_path):
    manifest = toy_manifest(tmp_path)
    (tmp_path / "labels.txt").write_text("0\n1\n")
    bad = DatasetManifest(
        name="toy", views=manifest.views, labels_path="labels.txt",
        n=4, base_dir=str(tmp_path),
    )
    with pytest.raises(ConfigError):
        load_labels(bad)


def test_zscore_standardization_applied(tmp_path):
    ds = load_dataset(toy_manifest(tmp_path, standardize=True))
    for view in ds.views:
        assert np.allclose(view.mean(axis=0), 0.0, atol=1e-12)
        live = view.std(axis=0) > 0
        assert np.allclose(view.std(axis=0)[live], 1.0, atol=1e-12)


def test_zscore_leaves_constant_columns_centered():
    a = np.array([[1.0, 5.0], [1.0, 7.0]])
    z = zscore_columns(a)
    assert np.allclose(z[:, 0], 0.0)
    assert np.allclose(z[:, 1], [-1.0, 1.0])


def test_written_dataset_roundtrips_exactly(tmp_path):
    ds, labels = generate_synthetic(6, 2, [(7, 0.4, 0.5), (3, 0.2, 1.0)], seed=11)
    manifest_path = save_dataset(ds, tmp_path / "out", labels=labels, standardize=False)
    reloaded = load_dataset(DatasetManifest.from_file(manifest_path))
    for orig, back in zip(ds.views, reloaded.views):
        assert np.abs(orig - back).max() <= 1e-12
    assert np.array_equal(load_labels(DatasetManifest.from_file(manifest_path)), labels)


def test_manifest_file_errors(tmp_path):
    with pytest.raises(ConfigError):
        DatasetManifest.from_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        DatasetManifest.from_file(bad)
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    with pytest.raises(ConfigError):
        DatasetManifest.from_file(empty)
    not_an_object = tmp_path / "list.json"
    not_an_object.write_text("[]")
    with pytest.raises(ConfigError):
        DatasetManifest.from_file(not_an_object)


def test_dataset_requires_consistent_rows():
    with pytest.raises(ConfigError):
        MultiViewDataset(views=[np.zeros((3, 2)), np.zeros((4, 2))])
    with pytest.raises(ConfigError):
        MultiViewDataset(views=[])


def test_dataset_views_follow_the_array_rule():
    check_array_rule(lambda a: MultiViewDataset(views=[np.zeros((3, 2)), a]), "view 1", 2)


def _manifest_file(tmp_path, **changes):
    raw = toy_manifest(tmp_path).to_dict()
    raw.update(changes)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(raw))
    return path


def test_manifest_with_an_unknown_key_is_rejected(tmp_path):
    # A misspelt field must not fall back to its default: with "standardise"
    # ignored, the views would be z-scored against the file's intent.
    with pytest.raises(ConfigError, match="unknown key.*standardise"):
        DatasetManifest.from_file(_manifest_file(tmp_path, standardise=False))
    with pytest.raises(ConfigError, match="base_dir"):
        DatasetManifest.from_file(_manifest_file(tmp_path, base_dir="/elsewhere"))


def test_manifest_schema_version_is_checked(tmp_path):
    with pytest.raises(ConfigError, match="schema_version 7"):
        DatasetManifest.from_file(_manifest_file(tmp_path, schema_version=7))
    path = _manifest_file(tmp_path)
    raw = json.loads(path.read_text())
    del raw["schema_version"]  # as in the README example
    path.write_text(json.dumps(raw))
    manifest = DatasetManifest.from_file(path)
    assert manifest.to_dict() == {**raw, "schema_version": 1}
    assert manifest.base_dir == str(tmp_path)


@pytest.mark.parametrize("version", [True, 1.0, "1"])
def test_manifest_schema_version_must_be_the_integer_one(tmp_path, version):
    # Each of these equals 1 or looks like it; only the JSON integer 1 passes.
    with pytest.raises(ConfigError, match=f"schema_version {version!r}"):
        DatasetManifest.from_file(_manifest_file(tmp_path, schema_version=version))


@pytest.mark.parametrize("delimiter", [",", ";", ", ", " ", "\t", "|"])
def test_every_accepted_delimiter_reloads_bitwise(tmp_path, delimiter):
    ds, _ = generate_synthetic(3, 2, [(4, 0.5, 0.5)], seed=2)
    manifest_path = save_dataset(ds, tmp_path / "out", delimiter=delimiter, standardize=False)
    reloaded = load_dataset(DatasetManifest.from_file(manifest_path))
    assert reloaded.views[0].tobytes() == ds.views[0].tobytes()
