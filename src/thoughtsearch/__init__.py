"""Retrieval-grounded thought-graph planning engine.

Builds a directed graph of generated thoughts anchored in retrieved
documents, plans its growth with bandit tree search under pluggable scoring
models, and evaluates the resulting answers on QA benchmarks.
"""
