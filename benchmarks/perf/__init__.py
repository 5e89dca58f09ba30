"""End-to-end + per-layer performance harness (host→SN→border→SN→host).

Run as ``python -m benchmarks.perf``; see README.md in this directory.
"""
