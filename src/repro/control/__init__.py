"""InterEdge control plane: edomain cores, global lookup, membership, naming."""

from .core_store import CoreStore
from .lookup import (
    AddressRecord,
    GlobalLookupService,
    LookupError_,
    OpenGroupStatement,
)
from .membership import (
    EdomainMembershipCore,
    GroupView,
    MembershipError,
    SNMembershipAgent,
    make_join_grant,
)
from .naming import NameService, NamingError, Resolution

__all__ = [
    "AddressRecord",
    "CoreStore",
    "EdomainMembershipCore",
    "GlobalLookupService",
    "GroupView",
    "LookupError_",
    "MembershipError",
    "NameService",
    "NamingError",
    "OpenGroupStatement",
    "Resolution",
    "SNMembershipAgent",
    "make_join_grant",
]
