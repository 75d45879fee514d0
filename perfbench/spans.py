"""Spans recorded around calls into bellctx layers, and the arithmetic on them.

A span is a dict ``{name, start, end, parent, attrs}``: ``start``/``end``
are ``time.perf_counter()`` readings of the traced process, ``parent`` is
the index of the span that was open when this one started (``None`` for
the root), and ``attrs`` holds counts taken from the call's arguments or
result (trials, bytes, additivity checks, ...). Spans are kept in memory
and written out once, when the traced process ends.

Wrappers are installed by replacing attributes on modules or classes and
are removed again by :meth:`Tracer.restore`, which reports any attribute
that did not get its original object back.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import time
from collections import defaultdict

# Exit code of a traced process in which a wrapper did not restore its original.
EXIT_UNRESTORED = 70


def _run_experiment_attrs(args, kwargs, result) -> dict:
    return {"trials": result.n_trials, "chunks": len(result.chunks)}


def _write_event_log_attrs(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _verify_kolmogorov_attrs(args, kwargs, result) -> dict:
    space = args[0] if args else kwargs["space"]
    return {"additivity_checks": result.n_additivity_checks,
            "space": hashlib.sha256(space.probs.tobytes()).hexdigest()}


def _additivity_attrs(args, kwargs, result) -> dict:
    return {"contexts": result.n_contexts_tested}


def _read_event_log_attrs(args, kwargs, result) -> dict:
    return {"trials": len(result[1])}


# Counts taken at a layer boundary, keyed by the wrapped function's name.
ATTRS = {
    "run_experiment": _run_experiment_attrs,
    "write_event_log": _write_event_log_attrs,
    "verify_kolmogorov": _verify_kolmogorov_attrs,
    "check_orthogonal_additivity": _additivity_attrs,
    "read_event_log": _read_event_log_attrs,
}


class Tracer:
    """Records nested spans around wrapped callables of one thread."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        """``fn`` wrapped so that every call records one span called ``name``."""
        attrs_of = ATTRS.get(name.rsplit(".", 1)[-1])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "start": 0.0, "end": 0.0,
                    "parent": self._open[-1] if self._open else None, "attrs": {}}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if attrs_of is not None:
                span["attrs"] = attrs_of(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module or class attribute) by a traced wrapper."""
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            replacement = staticmethod(self.wrap(getattr(owner, attr), name))
        else:
            replacement = self.wrap(raw, name)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, raw))

    def restore(self) -> list[str]:
        """Put every patched attribute back; return those that did not come back."""
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        lost = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, raw in self._patches if vars(owner).get(attr) is not raw]
        self._patches.clear()
        return lost

    def dump(self, path, entered_wall: float, entered_perf: float, lost: list[str]) -> None:
        """Write the spans with the wall-clock time of the process's main entry."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"entered_wall": entered_wall, "entered_perf": entered_perf,
                       "unrestored": lost, "spans": self.spans}, fh)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span["start"]
        for start, end in sorted(children[index]):
            start, end = max(start, cursor), min(end, span["end"])
            if end > start:
                covered += end - start
                cursor = end
        out.append(span["end"] - span["start"] - covered)
    return out


def totals(spans: list[dict]) -> dict[str, dict]:
    """Per span name: summed self time, call count and summed numeric attrs."""
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for span, own in zip(spans, self_times(spans)):
        entry = out[span["name"]]
        entry["self_s"] += own
        entry["calls"] += 1
        for key, value in span["attrs"].items():
            if isinstance(value, (int, float)):
                entry[key] += value
    return {name: dict(entry) for name, entry in out.items()}


def unique_space_ratio(digests: list[str]) -> float:
    """Distinct probability vectors audited divided by audit calls (1.0 if none)."""
    return len(set(digests)) / len(digests) if digests else 1.0
