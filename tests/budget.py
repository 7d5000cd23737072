"""Hypothesis example budgets that follow the loaded settings profile."""

from __future__ import annotations

from hypothesis import settings

__all__ = ["examples"]


def examples(n: int) -> int:
    """``n`` under the default profile, scaled by the loaded one.

    The default profile draws 100 examples a test; a test that asks for
    ``n`` gets ``n`` there and ``n * max_examples / 100`` under another
    profile, so ``pytest --hypothesis-profile=ci`` (the ``ci`` profile
    of ``tests/conftest.py``) deepens every budget alike.
    """
    return max(1, n * settings.default.max_examples // 100)
