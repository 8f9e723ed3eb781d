"""The benchmark's own answer key: a single-node hash join.

Independent of ``tests/`` and of the program's UDF plumbing: the build
side is the ``key -> value`` snapshot taken when the inputs were
generated, the probe side is the generated key stream, and the UDF is
the plain function the benchmark handed to the program.

With mid-run updates (``sim_update``) exact equality is ill-posed — a
tuple in flight when its key is rewritten may see either value
(Section 4.2.3) — so a tuple is correct if its output is the UDF
applied to *any* version of its key's value.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

Udf = Callable[[Hashable, Any, Any], Any]


def hash_join(
    keys: Sequence[Hashable], stored: Mapping[Hashable, Any], udf: Udf
) -> dict[int, Any]:
    """``tuple_id -> udf(key, None, stored[key])`` for the whole stream."""
    return {tid: udf(key, None, stored[key]) for tid, key in enumerate(keys)}


def count_failed(
    outputs: Mapping[int, Any],
    keys: Sequence[Hashable],
    stored: Mapping[Hashable, Any],
    udf: Udf,
    updates: Iterable[tuple[Hashable, Any]] = (),
) -> int:
    """Tuples whose output is missing, extra or not an admissible value."""
    expected = hash_join(keys, stored, udf)
    later: dict[Hashable, set] = {}
    for key, value in updates:
        later.setdefault(key, set()).add(udf(key, None, value))
    failed = len(outputs.keys() - expected.keys())
    for tid, want in expected.items():
        try:
            got = outputs[tid]
        except KeyError:
            failed += 1
            continue
        if got != want and got not in later.get(keys[tid], ()):
            failed += 1
    return failed
