"""``repro.traffic`` — real-trace ingestion and multi-tenant synthesis.

The workload layer above the simulator: streaming loaders for real
block-trace formats (MSR-Cambridge/SNIA CSV, the compact ``.rbt``
binary chunk format) and a :class:`TenantMixer` that multiplexes
thousands of independent tenants through one deterministic interleaver.
Both halves emit chunked ``(las, datas)`` streams that
:func:`repro.sim.engine.run_trace_fast` and :func:`~repro.sim.engine.
run_trace` both consume, so the two engines replay one identical write
stream.

See ``docs/workloads.md`` for formats, the tenant-profile spec schema
and windowing semantics.
"""

from repro.traffic.adapter import (
    convert_to_rbt,
    open_trace_chunks,
    trace_format,
)
from repro.traffic.csvtrace import (
    AddressWindow,
    CSVRecord,
    csv_info,
    csv_trace_chunks,
    iter_csv_records,
)
from repro.traffic.errors import (
    TraceFileCorruptError,
    TraceFileError,
    TraceFileMissingError,
    TraceFileTruncatedError,
    TraceFileVersionError,
)
from repro.traffic.profiles import (
    TenantGroup,
    TrafficSpec,
    TrafficSpecError,
    load_traffic_spec,
    mixed_spec,
)
from repro.traffic.rbt import (
    read_rbt_chunks,
    rbt_metadata,
    rbt_n_entries,
    write_rbt,
)
from repro.traffic.tenants import TenantMixer, TenantProfile

__all__ = [
    "AddressWindow",
    "CSVRecord",
    "TenantGroup",
    "TenantMixer",
    "TenantProfile",
    "TraceFileCorruptError",
    "TraceFileError",
    "TraceFileMissingError",
    "TraceFileTruncatedError",
    "TraceFileVersionError",
    "TrafficSpec",
    "TrafficSpecError",
    "convert_to_rbt",
    "csv_info",
    "csv_trace_chunks",
    "iter_csv_records",
    "load_traffic_spec",
    "mixed_spec",
    "open_trace_chunks",
    "rbt_metadata",
    "rbt_n_entries",
    "read_rbt_chunks",
    "trace_format",
    "write_rbt",
]
