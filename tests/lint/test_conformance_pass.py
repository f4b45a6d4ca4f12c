"""POL300 / WAKE400: scheduling-policy protocol and wake contracts."""

BASE = """
    class SchedulingPolicy:
        has_hooks = False
        fq_bank_rule = False
"""


class TestPolicyConformance:
    def test_conforming_policy_is_clean(self, project_of, run_rule):
        project = project_of({
            "base.py": BASE,
            "good.py": """
                from .base import SchedulingPolicy


                class GoodPolicy(SchedulingPolicy):
                    fq_bank_rule = True

                    def key_field_names(self):
                        return ("virtual_finish", "arrival")

                    def request_key(self, request):
                        return (request.virtual_finish_time, request.arrival_time)
            """,
        })
        assert run_rule("POL300", project) == []

    def test_unarmed_hooks_are_flagged(self, project_of, run_rule):
        project = project_of({
            "base.py": BASE,
            "bad.py": """
                from .base import SchedulingPolicy


                class SilentHooks(SchedulingPolicy):
                    def on_arrival(self, request, now):
                        pass

                    def on_complete(self, request, now):
                        pass
            """,
        })
        findings = run_rule("POL300", project)
        assert len(findings) == 1
        assert "has_hooks = True" in findings[0].message
        assert "on_arrival, on_complete" in findings[0].message

    def test_armed_hooks_are_clean(self, project_of, run_rule):
        project = project_of({
            "base.py": BASE,
            "good.py": """
                from .base import SchedulingPolicy


                class ArmedHooks(SchedulingPolicy):
                    has_hooks = True

                    def on_arrival(self, request, now):
                        pass
            """,
        })
        assert run_rule("POL300", project) == []

    def test_armed_without_hooks_is_flagged(self, project_of, run_rule):
        project = project_of({
            "base.py": BASE,
            "bad.py": """
                from .base import SchedulingPolicy


                class DeadDispatch(SchedulingPolicy):
                    has_hooks = True
            """,
        })
        findings = run_rule("POL300", project)
        assert len(findings) == 1
        assert "dead dispatch" in findings[0].message

    def test_fq_family_override_is_flagged(self, project_of, run_rule):
        project = project_of({
            "base.py": BASE,
            "bad.py": """
                from .base import SchedulingPolicy


                class FamilyOverride(SchedulingPolicy):
                    def fq_family(self):
                        return True
            """,
        })
        findings = run_rule("POL300", project)
        assert len(findings) == 1
        assert "fq_bank_rule" in findings[0].message

    def test_transitive_subclasses_are_covered(self, project_of, run_rule):
        project = project_of({
            "base.py": BASE,
            "mid.py": """
                from .base import SchedulingPolicy


                class MidPolicy(SchedulingPolicy):
                    pass


                class LeafPolicy(MidPolicy):
                    def on_issue(self, request, now):
                        pass
            """,
        })
        findings = run_rule("POL300", project)
        assert len(findings) == 1
        assert "LeafPolicy" in findings[0].message


class TestRegistryReachability:
    REGISTRY = """
        _REGISTRY = {}


        def _ensure_registered():
            _REGISTRY["good"] = GoodPolicy


        def make_policy(name):
            _ensure_registered()
            return _REGISTRY[name]()
    """

    def test_unreachable_policy_is_flagged(self, project_of, run_rule):
        project = project_of({
            "base.py": BASE,
            "registry.py": self.REGISTRY,
            "policies.py": """
                from .base import SchedulingPolicy


                class GoodPolicy(SchedulingPolicy):
                    pass


                class OrphanPolicy(SchedulingPolicy):
                    pass
            """,
        })
        findings = run_rule("POL300", project)
        assert len(findings) == 1
        assert "OrphanPolicy" in findings[0].message
        assert "not reachable" in findings[0].message

    def test_reachability_through_module_constant(self, project_of, run_rule):
        project = project_of({
            "base.py": BASE,
            "registry.py": """
                _REGISTRY = {}


                def _ensure_registered():
                    for policy in ALL_POLICIES:
                        _REGISTRY[policy.name] = policy


                def make_policy(name):
                    _ensure_registered()
                    return _REGISTRY[name]()
            """,
            "policies.py": """
                from .base import SchedulingPolicy


                class IndirectPolicy(SchedulingPolicy):
                    pass


                ALL_POLICIES = (IndirectPolicy,)
            """,
        })
        assert run_rule("POL300", project) == []


class TestWakeContract:
    def test_explicit_returns_everywhere_is_clean(self, project_of, run_rule):
        project = project_of({
            "component.py": """
                class Controller:
                    def next_event_time(self, now):
                        if self.busy:
                            return self.head_time
                        return now + 1
            """,
        })
        assert run_rule("WAKE400", project) == []

    def test_fall_through_is_flagged(self, project_of, run_rule):
        project = project_of({
            "component.py": """
                class Controller:
                    def next_event_time(self, now):
                        if self.busy:
                            return self.head_time
            """,
        })
        findings = run_rule("WAKE400", project)
        assert len(findings) == 1
        assert "fall off the end" in findings[0].message

    def test_if_else_both_returning_is_clean(self, project_of, run_rule):
        project = project_of({
            "component.py": """
                class Core:
                    def wake_time(self, now):
                        if self.idle:
                            return None
                        else:
                            return self.next_fill
            """,
        })
        assert run_rule("WAKE400", project) == []

    def test_loop_is_not_trusted_to_return(self, project_of, run_rule):
        project = project_of({
            "component.py": """
                class Core:
                    def wake_time(self, now):
                        for event in self.events:
                            return event.cycle
            """,
        })
        findings = run_rule("WAKE400", project)
        assert len(findings) == 1

    def test_wall_clock_in_wake_is_flagged(self, project_of, run_rule):
        project = project_of({
            "component.py": """
                import time


                class Controller:
                    def next_event_time(self, now):
                        return now + int(time.time())
            """,
        })
        findings = run_rule("WAKE400", project)
        assert any("time.time()" in f.message for f in findings)
        assert any("simulated cycles only" in f.message for f in findings)

    def test_on_cycle_without_has_hooks_is_flagged(self, project_of, run_rule):
        project = project_of({
            "base.py": BASE,
            "policy.py": """
                from .base import SchedulingPolicy


                class EpochPolicy(SchedulingPolicy):
                    def on_cycle(self, now):
                        return None
            """,
        })
        findings = run_rule("WAKE400", project)
        assert len(findings) == 1
        assert "on_cycle" in findings[0].message

    def test_on_cycle_with_has_hooks_is_clean(self, project_of, run_rule):
        project = project_of({
            "base.py": BASE,
            "policy.py": """
                from .base import SchedulingPolicy


                class EpochPolicy(SchedulingPolicy):
                    has_hooks = True

                    def on_cycle(self, now):
                        return None
            """,
        })
        assert run_rule("WAKE400", project) == []
