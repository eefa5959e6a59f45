"""Long-tailed semi-supervised learning with controllable pseudo-labels.

A labeled pool grows with reliably filtered, majority-voted pseudo-labels;
a logit-adjusted classifier is fit to the pool's evolving class distribution;
minority classes are reinforced with synthesized representations. Baselines,
metrics, and a config-driven experiment harness come along.

Import each name from the module that defines it, e.g.
``from pseudopool.training import train``; importing the package loads nothing.
"""

__version__ = "0.1.0"
