"""Compatibility re-export of the request/response protocol types.

The wire protocol between compute nodes and data nodes is defined in
:mod:`repro.store.messages` (the store owns its serving protocol, and
keeping it there avoids an import cycle); the engine re-exports the
names because user code naturally reaches for them alongside the
engine's runtime classes.
"""

from repro.store.messages import (
    BatchRequest,
    BatchResponse,
    RequestItem,
    RequestKind,
    ResponseItem,
    UDF,
)

__all__ = [
    "BatchRequest",
    "BatchResponse",
    "RequestItem",
    "RequestKind",
    "ResponseItem",
    "UDF",
]
