"""Benchmark-side spans around calls into the program's layers.

The program is not instrumented for the benchmark.  In a traced run the
benchmark replaces a few public entry points at their call sites (for
example ``repro.harness.measure.compile_module``) with wrappers that open
a span on a private :class:`repro.obs.trace.Tracer`, and restores them
afterwards.  An untraced run installs nothing, and its tracer hands out
the shared no-op span.

Every span of one design point or one request carries the same
``group`` attribute: a span opened with ``new_group=True`` starts a
group (its own span id) and its descendants inherit it
(:func:`with_groups`).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.obs.trace import SpanRecord, Tracer


class SpanRecorder:
    def __init__(self, enabled: bool):
        self.tracer = Tracer(enabled=enabled)
        self._patches: List[tuple] = []

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled

    @property
    def spans(self) -> List[SpanRecord]:
        return self.tracer.spans

    def span(self, name: str, new_group: bool = False, **attrs: Any):
        """Context manager recording one span (a no-op when disabled)."""
        if new_group:
            attrs["group"] = True
        return self.tracer.span(name, **attrs)

    def wrap(
        self,
        fn: Callable,
        name: str,
        new_group: bool = False,
        after: Optional[Callable[[Any], Dict[str, Any]]] = None,
    ) -> Callable:
        """``fn`` inside a span; ``after(result)`` adds span attributes."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, new_group) as sp:
                result = fn(*args, **kwargs)
                if after is not None:
                    sp.set_attrs(**after(result))
                return result

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, **kwargs: Any) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper (traced runs
        only); :meth:`restore` puts the original back."""
        if self.enabled:
            self.install(owner, attr, self.wrap(getattr(owner, attr), name, **kwargs))

    def install(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` to ``replacement`` until :meth:`restore`."""
        had_own = attr in getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def with_groups(spans: Sequence[SpanRecord]) -> List[SpanRecord]:
    """Copies of ``spans`` with ``group`` set to the group's id: the
    id of the nearest span, itself included, opened with ``new_group``;
    a top-level span outside any group is a group of its own."""
    by_id = {s.span_id: s for s in spans}
    group: Dict[int, int] = {}

    def resolve(s: SpanRecord) -> int:
        if s.span_id not in group:
            parent = by_id.get(s.parent_id)
            if s.attrs.get("group") is True or parent is None:
                group[s.span_id] = s.span_id
            else:
                group[s.span_id] = resolve(parent)
        return group[s.span_id]

    return [replace(s, attrs={**s.attrs, "group": resolve(s)}) for s in spans]
