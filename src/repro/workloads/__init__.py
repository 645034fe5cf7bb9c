"""Workload generators: lookup streams, churn, node heterogeneity."""

from repro.workloads.churn import ChurnConfig, ChurnProcess
from repro.workloads.heterogeneity import BimodalDelay, bimodal_processing_delay

__all__ = [
    "BimodalDelay",
    "ChurnConfig",
    "ChurnProcess",
    "bimodal_processing_delay",
]
