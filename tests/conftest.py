"""Hypothesis profiles: the local default, and `ci`, which searches about 20
times as many examples (`pytest --hypothesis-profile ci`)."""
from hypothesis import settings

settings.register_profile("ci", max_examples=2000)
