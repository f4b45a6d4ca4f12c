"""Policy registry: lookup, canonicalization, factories, overrides,
and the protocol every registered policy must keep."""

import importlib
import pkgutil

import pytest

import repro.core
import repro.policy
from repro.core.policies import FQ_VFTF, FR_FCFS, POLICIES
from repro.dram.timing import DDR2Timing
from repro.policy import (
    BASELINE_POLICY,
    HEADLINE_POLICIES,
    PolicyContext,
    SchedulingPolicy,
    canonical,
    make_policy,
    register,
    registered_names,
    resolve,
)
from repro.policy import registry as registry_module
from repro.sim.config import SystemConfig


class TestCanonicalization:
    def test_paper_and_post_paper_policies_are_registered(self):
        names = registered_names()
        for name in ("FR-FCFS", "FR-VFTF", "FQ-VFTF", "FQ-VFTF-ARR",
                     "FQ-VSTF", "BLISS", "MISE"):
            assert name in names

    def test_headline_set_is_registered(self):
        assert BASELINE_POLICY in registered_names()
        for name in HEADLINE_POLICIES:
            assert canonical(name) == name

    @pytest.mark.parametrize(
        "spelling, expected",
        [
            ("fq_vftf", "FQ-VFTF"),
            ("fr-fcfs", "FR-FCFS"),
            ("Bliss", "BLISS"),
            ("fq_vftf_arr", "FQ-VFTF-ARR"),
            ("slowdown", "MISE"),  # alias
            ("SLOWDOWN", "MISE"),
        ],
    )
    def test_case_and_separator_folding(self, spelling, expected):
        assert canonical(spelling) == expected

    def test_typo_raises_with_registry_listing(self):
        with pytest.raises(ValueError) as excinfo:
            canonical("FR-FCSF")
        message = str(excinfo.value)
        assert "FR-FCSF" in message
        for name in registered_names():
            assert name in message


class TestFactories:
    def _config(self, **overrides):
        defaults = dict(num_cores=2, policy="FQ-VFTF", seed=0)
        defaults.update(overrides)
        return SystemConfig(**defaults)

    def test_paper_policies_resolve_to_shared_singletons(self):
        config = self._config(policy="FR-FCFS")
        assert make_policy(config) is make_policy(config) is FR_FCFS

    def test_stateful_policies_get_fresh_instances(self):
        config = self._config(policy="BLISS")
        a, b = make_policy(config), make_policy(config)
        assert a is not b  # one mutable blacklist per controller
        assert a.name == b.name == "BLISS"

    def test_context_knobs_reach_the_instance(self):
        config = self._config(
            policy="BLISS", bliss_threshold=7, bliss_interval=2_500
        )
        policy = make_policy(config)
        assert policy.threshold == 7
        assert policy.clearing_interval == 2_500
        mise = make_policy(self._config(policy="MISE", slowdown_interval=640))
        assert mise.interval == 640

    def test_inversion_bound_override_selects_bounded_variant(self):
        policy = make_policy(self._config(inversion_bound=48))
        assert policy.name == "FQ-VFTF(x=48)"
        assert policy.inversion_bound == 48
        assert policy.fq_bank_rule

    def test_inversion_bound_ignored_without_bank_rule(self):
        policy = make_policy(
            self._config(policy="FR-VFTF", inversion_bound=48)
        )
        assert policy.name == "FR-VFTF"
        assert policy.inversion_bound is None

    def test_resolve_returns_callable_factory(self):
        factory = resolve("fq_vstf")
        context = PolicyContext(num_threads=2, timing=self._config().timing)
        assert factory(context) is POLICIES["FQ-VSTF"]

    def test_external_registration_latest_wins(self):
        class Custom(SchedulingPolicy):
            name = "TEST-CUSTOM"

            def request_key(self, request):
                return (request.arrival_time, request.seq)

        try:
            register("TEST-CUSTOM", lambda ctx: FQ_VFTF)
            register("TEST-CUSTOM", lambda ctx: Custom(), aliases=("tc",))
            assert canonical("test_custom") == "TEST-CUSTOM"
            context = PolicyContext(
                num_threads=1, timing=self._config().timing
            )
            assert isinstance(resolve("tc")(context), Custom)
        finally:
            registry_module._REGISTRY.pop("TEST-CUSTOM", None)
            registry_module._ALIASES.pop("TC", None)


HOOKS = ("on_arrival", "on_issue", "on_complete", "on_cycle")


def _instance(name):
    return resolve(name)(PolicyContext(num_threads=2, timing=DDR2Timing()))


def _policy_classes():
    """Every SchedulingPolicy subclass defined under ``repro.``, after
    importing each module of the policy and core packages (so a class in
    a module nothing imports yet is still seen)."""
    for package in (repro.policy, repro.core):
        for module in pkgutil.iter_modules(package.__path__, package.__name__ + "."):
            importlib.import_module(module.name)
    found, work = set(), [SchedulingPolicy]
    while work:
        for cls in work.pop().__subclasses__():
            if cls not in found:
                found.add(cls)
                work.append(cls)
    return {cls for cls in found if cls.__module__.startswith("repro.")}


class TestProtocolConformance:
    @pytest.mark.parametrize("name", registered_names())
    def test_hooks_armed_exactly_when_overridden(self, name):
        # The controller dispatches hooks only when has_hooks is set: an
        # unarmed override never runs, an armed no-op costs every tick.
        policy = _instance(name)
        overridden = [
            hook for hook in HOOKS
            if getattr(type(policy), hook) is not getattr(SchedulingPolicy, hook)
        ]
        assert bool(overridden) == policy.has_hooks, overridden

    @pytest.mark.parametrize("name", registered_names())
    def test_fq_family_is_the_base_property(self, name):
        # The inversion invariant keys off fq_bank_rule through this
        # property; a policy sets the flag, never overrides the property.
        assert type(_instance(name)).fq_family is SchedulingPolicy.fq_family

    def test_every_policy_class_is_registered(self):
        registered = {type(_instance(name)) for name in registered_names()}
        assert _policy_classes() <= registered, _policy_classes() - registered
