"""End-to-end serving benchmark of the PIM similarity-search simulator.

See ``servebench/README.md`` for the workloads, the metrics and how a
layer maps onto the end-to-end metric it should move.
"""
