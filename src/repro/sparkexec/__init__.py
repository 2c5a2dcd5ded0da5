"""Real-Spark validation layer: each live query is one SQL text that Spark
runs under the per-query-settable θp knobs on the live local session, with
physical-plan inspection, and that the DuckDB oracle runs for the expected
rows."""
