"""CSV round trips, schema/parse failures, normalization, folds."""

import tracemalloc

import numpy as np
import pytest

from rfloc.data import (
    WRITE_CHUNK_ROWS,
    Dataset,
    NormStats,
    fit_normalizer,
    load_csv,
    make_folds,
    normalize_features,
    write_csv,
)
from rfloc.errors import ConfigError, CsvParseError, DataError, SchemaError
from util import write_csv_rowwise


def make_dataset(n=10, labeled=True, seed=0):
    gen = np.random.default_rng(seed)
    return Dataset(
        "t",
        gen.normal(-50.0, 8.0, size=(n, 8)),
        gen.uniform(0, 10, size=(n, 2)) if labeled else None,
    )


# ---------------------------------------------------------------- dataset

def test_dataset_validation():
    with pytest.raises(DataError):
        Dataset("bad", np.zeros((3, 5)))
    with pytest.raises(DataError):
        Dataset("empty", np.zeros((0, 8)))
    feats = np.zeros((2, 8))
    feats[1, 3] = np.nan
    with pytest.raises(DataError):
        Dataset("nan", feats)
    with pytest.raises(DataError):
        Dataset("badlab", np.zeros((2, 8)), np.zeros((3, 2)))


def test_subset_and_without_labels():
    ds = make_dataset(6)
    sub = ds.subset([0, 2, 4])
    assert len(sub) == 3
    assert np.array_equal(sub.features, ds.features[[0, 2, 4]])
    assert np.array_equal(sub.labels, ds.labels[[0, 2, 4]])
    bare = ds.without_labels()
    assert not bare.labeled
    assert len(bare) == len(ds)


# ---------------------------------------------------------------- CSV

def test_csv_round_trip_bit_exact(tmp_path):
    ds = make_dataset(20)
    path = tmp_path / "d.csv"
    write_csv(ds, path, run_id="abc123")
    back = load_csv(path)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    assert path.read_text().startswith("# run: abc123\n")


def test_csv_unlabeled_round_trip(tmp_path):
    ds = make_dataset(5, labeled=False)
    path = tmp_path / "d.csv"
    write_csv(ds, path)
    back = load_csv(path)
    assert not back.labeled
    assert np.array_equal(back.features, ds.features)


@pytest.mark.parametrize("labeled", [True, False], ids=["labeled", "unlabeled"])
@pytest.mark.parametrize("run_id", [None, "abc123"], ids=["no-run-id", "run-id"])
def test_write_csv_bytes_equal_the_rowwise_writer(tmp_path, labeled, run_id):
    ds = make_dataset(WRITE_CHUNK_ROWS + 1, labeled=labeled, seed=4)
    write_csv(ds, tmp_path / "chunked.csv", run_id=run_id)
    write_csv_rowwise(ds, tmp_path / "rowwise.csv", run_id=run_id)
    assert (tmp_path / "chunked.csv").read_bytes() == (tmp_path / "rowwise.csv").read_bytes()


@pytest.mark.parametrize(
    "n", [1, WRITE_CHUNK_ROWS - 1, WRITE_CHUNK_ROWS, WRITE_CHUNK_ROWS + 1, 10_050]
)
def test_write_csv_row_counts_across_chunks(tmp_path, n):
    ds = make_dataset(n, seed=n)
    write_csv(ds, tmp_path / "chunked.csv", run_id="abc123")
    write_csv_rowwise(ds, tmp_path / "rowwise.csv", run_id="abc123")
    written = (tmp_path / "chunked.csv").read_bytes()
    assert written == (tmp_path / "rowwise.csv").read_bytes()
    assert written.count(b"\r\n") == n + 1  # header and rows; the run line ends in \n
    back = load_csv(tmp_path / "chunked.csv")
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_write_csv_exact_format_of_extreme_values(tmp_path):
    feats = np.array([[1e-05, -1.5e16, -0.0, 5e-324, 0.1, 1e16, -123.456, 2.0 ** 70]])
    labels = np.array([[1e22, -1e-07]])
    ds = Dataset("v", feats, labels)
    write_csv(ds, tmp_path / "v.csv")
    write_csv_rowwise(ds, tmp_path / "rowwise.csv")
    written = (tmp_path / "v.csv").read_bytes()
    assert written == (
        b"r1x,r1y,r2x,r2y,r3x,r3y,r4x,r4y,x,y\r\n"
        b"1e-05,-1.5e+16,-0.0,5e-324,0.1,1e+16,-123.456,1.1805916207174113e+21,1e+22,-1e-07\r\n"
    )
    assert written == (tmp_path / "rowwise.csv").read_bytes()
    back = load_csv(tmp_path / "v.csv")
    assert back.features.tobytes() == feats.tobytes()  # -0.0 keeps its sign
    assert back.labels.tobytes() == labels.tobytes()


def test_write_csv_memory_is_bounded_by_the_chunk(tmp_path):
    # 20,000 labeled rows. Chunks of 1,024 rows peaked at 0.7 MiB; a
    # whole-table np.hstack of features and labels peaked at 2.2 MiB, and a
    # whole-table .tolist() at 8.6 MiB.
    ds = make_dataset(20_000, seed=5)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        write_csv(ds, tmp_path / "big.csv")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_csv_missing_feature_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("r1x,r1y,r2x\n1,2,3\n")
    with pytest.raises(SchemaError, match="r2y"):
        load_csv(path)


def test_csv_bad_cell_reports_line_and_column(tmp_path):
    path = tmp_path / "d.csv"
    header = "r1x,r1y,r2x,r2y,r3x,r3y,r4x,r4y,x,y"
    good = ",".join(["1.0"] * 10)
    bad = ",".join(["1.0"] * 4 + ["oops"] + ["1.0"] * 5)
    path.write_text(f"{header}\n{good}\n{bad}\n")
    with pytest.raises(CsvParseError, match="line 3.*r3x|r3x.*line 3"):
        load_csv(path)


HEADER = "r1x,r1y,r2x,r2y,r3x,r3y,r4x,r4y,x,y"


def test_csv_header_repeating_a_column_is_rejected(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(HEADER + ",r1x\n" + ",".join(["1.0"] * 11) + "\n")
    with pytest.raises(SchemaError, match="repeats column.*'r1x'"):
        load_csv(path)


@pytest.mark.parametrize("fields", [11, 9], ids=["one-more", "one-fewer"])
def test_csv_row_field_count_must_match_header(tmp_path, fields):
    path = tmp_path / "d.csv"
    good = ",".join(["1.0"] * 10)
    path.write_text(f"{HEADER}\n{good}\n" + ",".join(["1.0"] * fields) + "\n")
    with pytest.raises(CsvParseError, match=f"line 3: {fields} fields, header has 10"):
        load_csv(path)


def test_csv_extra_named_column_is_allowed(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(HEADER + ",note\n" + ",".join(["1.0"] * 10) + ",a\n")
    assert len(load_csv(path)) == 1


def test_csv_not_utf8_is_a_data_error(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(b"\xff\xfer1x,r1y\n")
    with pytest.raises(DataError, match="not UTF-8"):
        load_csv(path)


def test_csv_leading_byte_order_mark_is_skipped(tmp_path):
    ds = make_dataset(3)
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_csv(ds, plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    back = load_csv(marked)
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)
    # Before a comment line too, as in a file written with a run id.
    write_csv(ds, plain, run_id="abc123")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert np.array_equal(load_csv(marked).features, ds.features)


def test_csv_byte_order_mark_inside_the_file_is_kept(tmp_path):
    # Only a leading mark is skipped; one inside a cell is data.
    path = tmp_path / "d.csv"
    path.write_bytes(
        HEADER.encode() + b"\n" + b"\xef\xbb\xbf1.0," + b",".join([b"1.0"] * 9) + b"\n"
    )
    with pytest.raises(CsvParseError, match="line 2, column 'r1x'"):
        load_csv(path)


def test_csv_overlong_quoted_field_is_a_parse_error(tmp_path):
    # A stray quote makes the csv module read on past the field size limit.
    path = tmp_path / "d.csv"
    row = ",".join(["1.0"] * 10) + "\n"
    path.write_text(f"{HEADER}\n{row}\"" + row * 4000)
    with pytest.raises(CsvParseError, match="line 3.*field larger than field limit"):
        load_csv(path)


def test_csv_drops_nonfinite_rows(tmp_path):
    path = tmp_path / "d.csv"
    header = "r1x,r1y,r2x,r2y,r3x,r3y,r4x,r4y,x,y"
    good = ",".join(["1.0"] * 10)
    nan_row = ",".join(["1.0"] * 6 + ["nan"] + ["1.0"] * 3)
    path.write_text(f"{header}\n{good}\n{nan_row}\n{good}\n")
    ds = load_csv(path)
    assert len(ds) == 2


def test_csv_all_rows_bad(tmp_path):
    path = tmp_path / "d.csv"
    header = "r1x,r1y,r2x,r2y,r3x,r3y,r4x,r4y"
    nan_row = ",".join(["nan"] * 8)
    path.write_text(f"{header}\n{nan_row}\n")
    with pytest.raises(DataError, match="no usable data"):
        load_csv(path)


def test_csv_missing_file():
    with pytest.raises(DataError):
        load_csv("/nonexistent/nope.csv")


# ---------------------------------------------------------------- normalization

def test_normalizer_hand_case():
    feats = np.array([[-50.0] * 8, [-30.0] * 8])
    stats = fit_normalizer(Dataset("h", feats))
    assert np.allclose(stats.mean, -40.0)
    assert np.allclose(stats.std, 10.0)  # population std
    z = normalize_features(feats, stats)
    assert np.allclose(z, np.array([[-1.0] * 8, [1.0] * 8]))


def test_normalizer_constant_column_floored():
    feats = np.full((4, 8), -42.0)
    stats = fit_normalizer(Dataset("c", feats))
    assert (stats.std > 0).all()
    z = normalize_features(feats, stats)
    assert np.all(np.isfinite(z))


def test_normalized_source_has_zero_mean_unit_std():
    ds = make_dataset(200, seed=3)
    stats = fit_normalizer(ds)
    z = normalize_features(ds.features, stats)
    assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(z.std(axis=0), 1.0, atol=1e-12)


def test_norm_stats_validation():
    with pytest.raises(ConfigError):
        NormStats(np.zeros(8), np.zeros(8))  # zero std
    with pytest.raises(ConfigError):
        NormStats(np.zeros(4), np.ones(4))  # wrong length


# ---------------------------------------------------------------- folds

def test_folds_partition_and_balance():
    ds = make_dataset(23)
    folds = make_folds(ds, n_folds=5, seed=0)
    seen = np.zeros(23, dtype=int)
    for f in range(5):
        val = folds.val_indices(f)
        train = folds.train_indices(f)
        assert len(val) + len(train) == 23
        assert set(val).isdisjoint(train)
        seen[val] += 1
        assert len(val) in (4, 5)  # 23 = 3 folds of 5 + 2 folds of 4
    assert (seen == 1).all()


def test_folds_errors():
    ds = make_dataset(4)
    with pytest.raises(ConfigError):
        make_folds(ds, n_folds=1)
    with pytest.raises(DataError):
        make_folds(ds, n_folds=9)
