"""Non-parametric calibration: label propagation and error propagation."""

from repro.propagation.label_prop import label_propagation, propagate_scores
from repro.propagation.error_prop import error_propagation, softmax_rows

__all__ = ["label_propagation", "propagate_scores", "error_propagation",
           "softmax_rows"]
