"""Fault-injection plans: parsing, application, env activation."""

from __future__ import annotations

import time

import pytest

from repro.faults import ENV_VAR, FaultPlan, InjectedFault


class TestParsing:
    def test_empty_spec_is_falsy_noop(self):
        plan = FaultPlan.parse("")
        assert not plan
        plan.apply("anything")  # no-op

    def test_stall_and_error_directives(self):
        plan = FaultPlan.parse("stall:HU:0.5, error:batcher")
        assert plan
        assert plan.targets() == ["HU", "batcher"]

    def test_error_with_budget(self):
        plan = FaultPlan.parse("error:fe:2")
        with pytest.raises(InjectedFault):
            plan.apply("fe")
        with pytest.raises(InjectedFault):
            plan.apply("fe")
        plan.apply("fe")  # budget spent: disarmed
        assert not plan

    @pytest.mark.parametrize(
        "spec",
        [
            "stall:HU",               # stall needs seconds
            "stall:HU:abc",           # non-numeric seconds
            "stall::1.0",             # empty target
            "stall:HU:-1",            # negative stall
            "error:",                 # empty target
            "error:fe:0",             # zero budget
            "error:fe:x",             # non-numeric budget
            "chaos:fe",               # unknown action
            "error:fe:1:extra",       # too many fields
        ],
    )
    def test_malformed_specs_fail_loudly(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)


class TestApplication:
    def test_stall_sleeps(self):
        plan = FaultPlan.parse("stall:fe:0.05")
        t0 = time.monotonic()
        plan.apply("fe")
        assert time.monotonic() - t0 >= 0.05

    def test_error_raises(self):
        plan = FaultPlan.parse("error:fe")
        with pytest.raises(InjectedFault, match="fe"):
            plan.apply("fe")
        # Unbudgeted faults persist.
        with pytest.raises(InjectedFault):
            plan.apply("fe")

    def test_untargeted_component_unaffected(self):
        plan = FaultPlan.parse("error:fe")
        plan.apply("other")  # no-op

    def test_clear_lifts_faults(self):
        plan = FaultPlan.parse("error:fe,stall:other:9")
        plan.clear("fe")
        plan.apply("fe")  # disarmed
        assert plan.targets() == ["other"]
        plan.clear()
        assert not plan


class TestEnvActivation:
    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(ENV_VAR, "error:fe")
        plan = FaultPlan.from_env()
        with pytest.raises(InjectedFault):
            plan.apply("fe")

    def test_from_env_unset_is_empty(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert not FaultPlan.from_env()
