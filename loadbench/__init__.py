"""Closed-loop wall-clock benchmark of the serving stack (``python3 loadbench/run.py``)."""
