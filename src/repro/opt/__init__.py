"""Optimizer passes: constfold, mem2reg, dce, redundant-check
elimination, and the loop-aware check optimizer (checkwiden)."""

from .pipeline import PassStats, optimize_after_instrumentation, optimize_module

__all__ = ["PassStats", "optimize_module", "optimize_after_instrumentation"]
