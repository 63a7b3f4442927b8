"""Network fault plane: link/switch fault injection, path-fault
detection, and mapper-driven reroute recovery.

The paper scopes its fault model to NIC-processor hangs (§3) and defers
link/switch failures to Myrinet's remapping machinery.  This package
exercises that deferred half: :class:`NetworkFaultPlane` injects
link/switch faults into a fabric, :class:`PathDetector` classifies
stalled routes as NIC-hang vs. path-dead so the FTD only resets the card
when the card is actually at fault, and the campaign runner sweeps fault
scenarios over multi-switch topologies, tabulating recovery outcomes and
a recovery-latency breakdown analogous to the paper's Table 3.
"""

from .campaign import (
    NET_CATEGORY_ORDER,
    NET_SCENARIOS,
    NetCategory,
    NetFaultCampaignResult,
    NetFaultConfig,
    NetFaultOutcome,
)
from .detector import PathDetector, Verdict, arm_detectors
from .plane import FaultAction, NetworkFaultPlane

__all__ = [
    "FaultAction",
    "NET_CATEGORY_ORDER",
    "NET_SCENARIOS",
    "NetCategory",
    "NetFaultCampaignResult",
    "NetFaultConfig",
    "NetFaultOutcome",
    "NetworkFaultPlane",
    "PathDetector",
    "Verdict",
    "arm_detectors",
]
