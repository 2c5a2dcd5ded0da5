"""DuckDB correctness oracle.

``assert_equivalent(got, sql, **tables)`` runs ``sql`` in DuckDB over
``tables`` and asserts the sorted rows match ``got`` (the Spark result,
e.g. the rows of one configured run). This catches wrong results from a
rewritten plan or a custom operator — "it ran" is not "it is correct".
``canon`` is the comparison's canonical form of a result.

``got`` and ``tables`` may be Spark or pandas DataFrames; Spark inputs
are collected via ``.toPandas()``. Alias every output column identically
on both sides (Spark names ``count(*)`` as ``count(1)``, DuckDB as
``count_star()``) and project to scalar columns — array/map/struct
columns are not orderable so cannot be compared here.
"""
import duckdb
import pandas as pd
from pyspark.sql import DataFrame


def canon(pdf: pd.DataFrame) -> pd.DataFrame:
    """Columns sorted by name, floats rounded to 6 decimals (plans may sum
    in different orders), then rows sorted by those columns, so two
    results that differ only in projection or row order compare equal."""
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.select_dtypes(include=["float", "float64"]).columns:
        pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def _pandas(df) -> pd.DataFrame:
    return df.toPandas() if isinstance(df, DataFrame) else df


def assert_equivalent(got, sql: str, **tables) -> None:
    con = duckdb.connect()
    try:
        for name, t in tables.items():
            con.register(name, _pandas(t))
        expected = con.execute(sql).fetchdf()
    finally:
        con.close()
    got = _pandas(got)
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)} "
        "— alias every output column identically on both sides"
    )
    pd.testing.assert_frame_equal(
        canon(got), canon(expected), check_dtype=False
    )
