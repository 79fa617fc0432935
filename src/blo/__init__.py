"""Bilevel optimization bench: single-loop dual-correction solver,
classical hypergradient baselines, analytic testbeds, and the study
runner behind the ``blo`` CLI."""

__version__ = "0.1.0"
