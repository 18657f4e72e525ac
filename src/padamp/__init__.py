"""Partially adaptive momentum optimization with conditional tangent projection.

The optimizer scales Adam-style moment estimates by an adjustable power
p in (0, 1/2] of the second moment and, per parameter group, projects the
update onto the tangent space of the current weights whenever the
gradient is nearly orthogonal to them (the signature of scale-invariant
weights). Baselines, analytic and synthetic-data objectives, a run
harness with CSV telemetry, and executable checks of the supporting
bounds live in the submodules.
"""

__version__ = "0.1.0"
