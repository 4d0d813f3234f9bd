"""Hypothesis profiles for the test suite.

`mutants` leaves out the explain phase, which can spend over a minute on
a failing test before it reports; `tools/mutants.py` only needs to know
which test fails first. Select it with `--hypothesis-profile=mutants`.
"""
from hypothesis import Phase, settings

settings.register_profile("mutants", phases=[p for p in Phase if p is not Phase.explain])
