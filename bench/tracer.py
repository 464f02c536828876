"""In-memory spans around calls into a package, installed from outside it.

The package under test imports names with ``from .x import y``, so one
function can be bound in several modules. ``Tracer.install`` wraps a function
once and rebinds the wrapper at every module global (and every module-level
dict value, such as a command table) that holds the original, and
``unwrapped_bindings`` reports any binding it missed. ``restore`` puts every
original back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One function (or a method, when ``owner`` names a class) to trace.

    ``work(args, kwargs, result)`` returns the call's work count, such as
    frames or bytes; ``key(args, kwargs)`` returns a hashable identity of
    the input so that repeated work on the same input can be counted.
    """

    module: str
    attr: str
    name: str
    owner: str | None = None
    work: object = None
    key: object = None


class Tracer:
    """Records spans as ``[name, start, end, parent, command, work, error]``.

    ``parent`` is the index of the enclosing span (-1 at top level) and
    ``command`` the index of the enclosing span whose name starts with
    ``COMMAND_PREFIX``, so the spans of one CLI command share an identifier.
    """

    COMMAND_PREFIX = "cli."

    def __init__(self, package: str):
        self.package = package
        self.spans: list[list] = []
        self.input_keys: dict[str, set] = {}
        self._stack: list[int] = []
        self._originals: list[object] = []
        self._restore: list[tuple] = []

    def _wrap(self, target: Target, fn):
        spans, stack = self.spans, self._stack
        is_command = target.name.startswith(self.COMMAND_PREFIX)
        keys = self.input_keys.setdefault(target.name, set()) if target.key else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            command = index if is_command else (spans[parent][4] if parent >= 0 else -1)
            if keys is not None:
                keys.add(target.key(args, kwargs))
            span = [target.name, 0.0, 0.0, parent, command, 0, False]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if target.work is not None:
                span[5] = target.work(args, kwargs, result)
            return result

        return traced

    def _modules(self):
        return [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == self.package or name.startswith(self.package + "."))
        ]

    def _bindings(self, original):
        """Every (container, key, is_dict) in the package that holds original."""
        found = []
        for module in self._modules():
            for key, value in list(vars(module).items()):
                if value is original:
                    found.append((module, key, False))
                elif isinstance(value, dict):
                    found.extend((value, k, True) for k, v in value.items() if v is original)
        return found

    def install(self, targets) -> None:
        for target in targets:
            module = sys.modules[target.module]
            if target.owner is not None:
                cls = getattr(module, target.owner)
                original = cls.__dict__[target.attr]
                setattr(cls, target.attr, self._wrap(target, original))
                self._restore.append((cls, target.attr, original, False))
                self._originals.append(original)
                continue
            original = getattr(module, target.attr)
            wrapper = self._wrap(target, original)
            for container, key, is_dict in self._bindings(original):
                if is_dict:
                    container[key] = wrapper
                else:
                    setattr(container, key, wrapper)
                self._restore.append((container, key, original, is_dict))
            self._originals.append(original)

    def unwrapped_bindings(self) -> list[str]:
        """Module-level names in the package still bound to an original."""
        missed = []
        for original in self._originals:
            for container, key, is_dict in self._bindings(original):
                where = "dict" if is_dict else container.__name__
                missed.append(f"{where}.{key}")
        return missed

    def restore(self) -> None:
        for container, key, original, is_dict in reversed(self._restore):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._restore.clear()

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds (inclusive
        minus the time of direct child spans) and summed work."""
        stats: dict[str, dict] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _command, _work, _error in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _parent, _command, work, _error) in enumerate(self.spans):
            entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["work"] += work
        return stats

    def command_counts(self, name: str) -> tuple[int, int]:
        """(calls of span name, distinct commands those calls ran under)."""
        commands = {span[4] for span in self.spans if span[0] == name}
        calls = sum(1 for span in self.spans if span[0] == name)
        return calls, len(commands - {-1})

    def work_under(self, name: str, command_name: str) -> tuple[int, int]:
        """(summed work of span name inside commands named command_name,
        number of such commands)."""
        commands = {i for i, span in enumerate(self.spans) if span[0] == command_name}
        work = sum(span[5] for span in self.spans if span[0] == name and span[4] in commands)
        return work, len(commands)

    def write(self, path) -> None:
        fields = ("name", "start", "end", "parent", "command", "work", "error")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")
