"""Tiered Hypothesis settings profiles for property tests.

Tiers (each instance is usable directly as a decorator under ``@given``):

- ``DIFFERENTIAL_SETTINGS``: 100 examples — engine-vs-engine equivalence
  tests, where every counterexample is a correctness bug in one engine;
- ``STANDARD_SETTINGS``: 50 examples — regular property tests;
- ``QUICK_SETTINGS``: 20 examples — expensive-per-example tests (machine
  generation, exact-probability DPs);
- ``STATE_MACHINE_SETTINGS``: 200 examples — Hypothesis
  ``RuleBasedStateMachine`` tests, where each example is a whole random
  program of primitive operations checked against a pure reference model.

All tiers disable the deadline and the too-slow health check: tape-level
simulation cost is dominated by the generated machine, not by a bug, and
loaded CI machines add scheduler jitter.
"""

from hypothesis import HealthCheck, settings

_BASE = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

DIFFERENTIAL_SETTINGS = settings(max_examples=100, **_BASE)
STANDARD_SETTINGS = settings(max_examples=50, **_BASE)
QUICK_SETTINGS = settings(max_examples=20, **_BASE)
STATE_MACHINE_SETTINGS = settings(max_examples=200, **_BASE)
