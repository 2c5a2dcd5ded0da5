"""Per-table reproduction harnesses (Tables 3, 4, 5, Expt 6 and the live-Spark
grounding run): each module's ``run_*``, ``format_*`` and ``check_*``."""
