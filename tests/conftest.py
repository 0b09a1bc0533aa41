"""Hypothesis runs without its shrink phase: a failing property reports its first
counterexample at once instead of spending minutes shrinking it.  Example
generation is unchanged."""

from hypothesis import Phase, settings

settings.register_profile(
    "no-shrink", phases=tuple(p for p in settings.default.phases if p is not Phase.shrink))
settings.load_profile("no-shrink")
