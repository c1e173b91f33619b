"""Workload generators.

The paper drives its testbed with TPC-C, mail-server, and web-server
workloads containing burst phases (Section IV-A), plus the taxonomy of
Section III-B (random read / mixed read-write / write-intensive /
sequential read).  This package provides:

- :mod:`repro.workloads.base` — the phase-scripted, Poisson-arrival
  :class:`~repro.workloads.base.Workload` engine with application
  backpressure (bounded outstanding requests, like a real I/O-bound
  application).
- :mod:`repro.workloads.access_patterns` — address generators (uniform,
  Zipf, hot/cold, sequential, mixtures).
- :mod:`repro.workloads.tpcc` / :mod:`~repro.workloads.mail` /
  :mod:`~repro.workloads.web` — the three evaluation workloads with burst
  windows placed where the paper observed them (TPC-C: interval 3; mail:
  23 / 128 / 134; web: 1).
- :mod:`repro.workloads.synthetic` — single-pattern workloads for each of
  the paper's four characterization groups.
- :mod:`repro.workloads.replay` — replay of captured text traces.
- :mod:`repro.workloads.multi_tenant` — multi-VM composition: N
  workloads sharing one cache under per-VM ``tenant_id`` accounting.
"""

from typing import TYPE_CHECKING

from repro import _lazy_exports

if TYPE_CHECKING:
    from repro.workloads.access_patterns import (
        HotColdPattern,
        MixPattern,
        SequentialPattern,
        UniformPattern,
        ZipfPattern,
    )
    from repro.workloads.base import PhaseSpec, Workload, WorkloadStats
    from repro.workloads.bootstorm import boot_storm_workload
    from repro.workloads.mail import mail_server_workload
    from repro.workloads.multi_tenant import (
        MultiTenantWorkload,
        TenantSpec,
        bootstorm_neighbors_workload,
        consolidated3_workload,
    )
    from repro.workloads.replay import ReplayWorkload
    from repro.workloads.spec import load_workload_spec, workload_from_spec
    from repro.workloads.synthetic import (
        mixed_read_write_workload,
        random_read_workload,
        random_write_workload,
        sequential_read_workload,
        sequential_write_workload,
    )
    from repro.workloads.tpcc import tpcc_workload
    from repro.workloads.web import web_server_workload

__all__ = [
    "Workload",
    "PhaseSpec",
    "WorkloadStats",
    "UniformPattern",
    "ZipfPattern",
    "HotColdPattern",
    "SequentialPattern",
    "MixPattern",
    "tpcc_workload",
    "boot_storm_workload",
    "mail_server_workload",
    "web_server_workload",
    "random_read_workload",
    "random_write_workload",
    "sequential_read_workload",
    "sequential_write_workload",
    "mixed_read_write_workload",
    "ReplayWorkload",
    "MultiTenantWorkload",
    "TenantSpec",
    "consolidated3_workload",
    "bootstorm_neighbors_workload",
    "workload_from_spec",
    "load_workload_spec",
]

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.workloads.access_patterns": (
            "HotColdPattern",
            "MixPattern",
            "SequentialPattern",
            "UniformPattern",
            "ZipfPattern",
        ),
        "repro.workloads.base": ("PhaseSpec", "Workload", "WorkloadStats"),
        "repro.workloads.bootstorm": ("boot_storm_workload",),
        "repro.workloads.mail": ("mail_server_workload",),
        "repro.workloads.multi_tenant": (
            "MultiTenantWorkload",
            "TenantSpec",
            "bootstorm_neighbors_workload",
            "consolidated3_workload",
        ),
        "repro.workloads.replay": ("ReplayWorkload",),
        "repro.workloads.spec": ("load_workload_spec", "workload_from_spec"),
        "repro.workloads.synthetic": (
            "mixed_read_write_workload",
            "random_read_workload",
            "random_write_workload",
            "sequential_read_workload",
            "sequential_write_workload",
        ),
        "repro.workloads.tpcc": ("tpcc_workload",),
        "repro.workloads.web": ("web_server_workload",),
    },
)
