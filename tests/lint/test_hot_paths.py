"""Hot-path purity of the scheduler, legality and event-engine loops.

These functions run millions of times per simulated second, and the
e2e benchmark's regression bound is far too coarse to see one of them
slowed by an innocuous line.  From each live root, the check follows
``self.*()`` calls within the class and calls to functions of the same
module, reads each function's source, and flags:

* string formatting (f-strings, ``%``) outside ``raise``/``assert``,
  where the cost is paid on the failure path only;
* ``print``/``logging`` calls, ``sorted()`` and ``.sort()``, which
  allocate per call where the loops track a minimum in one pass;
* reads of module-level mutable containers, state that worker processes
  fork stale copies of.

Roots are looked up with ``getattr``, so a renamed root fails the test
instead of silently dropping out of the check.
"""

import ast
import collections
import inspect
import sys
import textwrap

from repro.controller import bank_scheduler, channel_scheduler
from repro.dram import legality
from repro.sim import system, wakeindex

MUTABLE_TYPES = (list, dict, set, collections.deque)


def _unwrap(value):
    """The plain function behind a method, static/class method or property."""
    if isinstance(value, property):
        value = value.fget
    value = getattr(value, "__func__", value)
    return value if inspect.isfunction(value) else None


def _whole_module(module):
    """Every function and method written in ``module``, constructors aside."""
    roots = []
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(value):
            roots += [
                _unwrap(member)
                for name, member in vars(value).items()
                if name != "__init__" and _unwrap(member) is not None
            ]
        elif inspect.isfunction(value):
            roots.append(value)
    return [fn for fn in roots if fn.__code__.co_filename == module.__file__]


def hot_roots():
    methods = {
        bank_scheduler.BankScheduler: (
            "candidate", "poll_bound", "cacheable_wake", "kind_mask", "reads_vtms",
        ),
        channel_scheduler.ChannelScheduler: (
            "select", "min_wake", "on_issue", "invalidate_vtms_bounds",
        ),
        system.CmpSystem: (
            "_run_event", "_event_target", "_sparse_step", "_skip_span",
            "_acceptance_due", "_wb_unblock_due", "_deliver_to_controller",
        ),
    }
    roots = [_unwrap(getattr(cls, name)) for cls, names in methods.items() for name in names]
    return roots + _whole_module(legality) + _whole_module(wakeindex)


def _owner(fn):
    """The class ``fn`` is defined in, or None for a module function."""
    owner = sys.modules[fn.__module__]
    for part in fn.__qualname__.split(".")[:-1]:
        owner = getattr(owner, part, None)
    return owner if inspect.isclass(owner) else None


def _body(fn):
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return tree.body[0].body


def closure(roots):
    """``roots`` plus every function they reach through ``self.*()`` or
    same-module calls, in discovery order."""
    seen, work = [], list(roots)
    while work:
        fn = work.pop()
        if fn in seen:
            continue
        seen.append(fn)
        owner, namespace = _owner(fn), vars(sys.modules[fn.__module__])
        for stmt in _body(fn):
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                call, target = node.func, None
                if (
                    isinstance(call, ast.Attribute)
                    and isinstance(call.value, ast.Name)
                    and call.value.id == "self"
                    and owner is not None
                ):
                    target = _unwrap(getattr(owner, call.attr, None))
                elif isinstance(call, ast.Name):
                    target = _unwrap(namespace.get(call.id))
                    if target is not None and target.__module__ != fn.__module__:
                        target = None
                if target is not None:
                    work.append(target)
    return seen


class _Hazards(ast.NodeVisitor):
    def __init__(self, mutables):
        self.mutables = mutables
        self.hits = []
        self._failure_depth = 0  # inside raise/assert: formatting is fine

    def _on_failure_path(self, node):
        self._failure_depth += 1
        self.generic_visit(node)
        self._failure_depth -= 1

    visit_Raise = visit_Assert = _on_failure_path

    def visit_JoinedStr(self, node):
        if not self._failure_depth:
            self.hits.append((node.lineno, "f-string"))
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if (
            not self._failure_depth
            and isinstance(node.op, ast.Mod)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.left.value, str)
        ):
            self.hits.append((node.lineno, "%-formatting"))
        self.generic_visit(node)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("print", "sorted"):
            self.hits.append((node.lineno, f"{func.id}()"))
        elif isinstance(func, ast.Attribute):
            if func.attr == "sort":
                self.hits.append((node.lineno, ".sort()"))
            if isinstance(func.value, ast.Name) and func.value.id in (
                "logging", "log", "logger"
            ):
                self.hits.append((node.lineno, f"{func.value.id}.{func.attr}()"))
        self.generic_visit(node)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load) and node.id in self.mutables:
            self.hits.append((node.lineno, f"module-level mutable '{node.id}'"))


def hazards(fn):
    """(line within ``fn``, what) for each hot-path hazard in its body."""
    module = sys.modules[fn.__module__]
    mutables = {
        name for name, value in vars(module).items()
        if isinstance(value, MUTABLE_TYPES) and not name.startswith("__")
    }
    visitor = _Hazards(mutables)
    for stmt in _body(fn):
        visitor.visit(stmt)
    return visitor.hits


def test_hot_paths_are_pure():
    functions = closure(hot_roots())
    found = [
        f"{fn.__module__}.{fn.__qualname__} (+{line}): {what}"
        for fn in functions
        for line, what in hazards(fn)
    ]
    assert found == []
    # The closure reaches past the roots: helpers reached only through
    # self.*() calls are checked too.
    assert len(functions) > len(hot_roots())


# -- the checker itself, on a sample with hazards on and off its path -----

_SAMPLE_STATE = {}


def _sample_helper(values):
    return sorted(values)


class _Sample:
    def root(self, values):
        if not values:
            raise ValueError(f"empty: {values!r}")
        return self._via_self(values) + _sample_helper(values)

    def _via_self(self, values):
        return [f"{v}" for v in values if v in _SAMPLE_STATE]

    def cold(self, values):
        print("%d values" % len(values))


def test_checker_follows_calls_and_sees_each_hazard():
    functions = closure([_Sample.root])
    assert set(functions) == {_Sample.root, _Sample._via_self, _sample_helper}
    found = sorted(what for fn in functions for _, what in hazards(fn))
    assert found == ["f-string", "module-level mutable '_SAMPLE_STATE'", "sorted()"]
