"""Post-hoc analysis of experiment results: summaries and comparisons."""

from repro.analysis.compare import compare_results, summarize_result
from repro.analysis.tables import summarize_directory

__all__ = [
    "compare_results",
    "summarize_directory",
    "summarize_result",
]
