"""Deterministic emulation stack for a smart-home wireless sensor mesh.

Pieces: an immutable network model (netmodel), radius-constrained optimal-path
routing with an exhaustive oracle (routing), a tick-driven mesh emulation with
discovery and seeded traffic (simnet), the framed uplink codec and Contact-ID
decoding (wire), the monitoring-center service (monitor), and the CLI (cli).
"""

from .errors import (
    AsymmetricTable,
    HomemeshError,
    InstanceTooLarge,
    InvalidInput,
    InvalidPath,
    MisroutedFrame,
    NoCoordinator,
    NoPath,
    UnknownNode,
)
from .netmodel import (
    DistanceTable,
    Position,
    SymmetryPolicy,
    Topology,
    load_topology,
    neighbors,
    parse_topology,
    reference_topology,
    table_from_positions,
    topology_from_positions,
    validate_table,
)
from .routing import (
    CountingMode,
    Route,
    RouteQuery,
    VisitStats,
    all_pairs_profile,
    brute_force_route,
    find_optimal_path,
    path_distance,
)
from .simnet import (
    Coordinator,
    FrameKind,
    NodeState,
    RadioFrame,
    SimConfig,
    SimNetwork,
    SplitMix64,
    SwitchState,
    node_on_receive,
    node_tick,
    run_discovery,
    run_traffic,
)
from .wire import (
    CidEvent,
    Datagram,
    MsgType,
    StreamDecoder,
    SwitchOpcode,
    cid_checksum,
    decode_cid,
    decode_datagram,
    encode_datagram,
)

__version__ = "0.1.0"
