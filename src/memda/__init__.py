"""Desk-scale domain adaptation lab: adversarial alignment plus
memory-augmented sample-consistency training."""

__version__ = "0.1.0"
