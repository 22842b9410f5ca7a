"""repro — reproduction of "Multi-level Memory-Centric Profiling on ARM
Processors with ARM SPE" (SC 2024).

The package implements the paper's NMO profiler **and** every substrate
it needs, as a simulation stack (see DESIGN.md):

``repro.machine``
    The Ampere Altra Max machine model: caches, memory, address spaces.
``repro.cpu``
    Op streams, clocks, pipeline timing, trace-driven cores.
``repro.kernel``
    The perf substrate: ``perf_event_open``, ring/aux buffers, counters.
``repro.spe``
    The ARM Statistical Profiling Extension: interval-counter sampling,
    collisions, byte-exact packets, the driver cost model.
``repro.runtime``
    Simulated processes, threads and OpenMP-style scheduling.
``repro.workloads``
    STREAM, Rodinia CFD/BFS, CloudSuite PageRank/In-memory Analytics.
``repro.nmo``
    The profiler itself: env configuration, annotations, capacity /
    bandwidth / region / cache-activity views, trace files.
``repro.analysis``
    Post-processing: accuracy (Eq. 1), temporal tools, bias, plotting.
``repro.scenarios``
    Declarative scenarios: ``ScenarioSpec`` (JSON round-trip) plus the
    ``Session`` front door for profile, sweep, and co-location runs;
    the sweep exhibits (figs. 7-11, colo) are its presets.
``repro.evalharness``
    Entry points for Tables I-II and Figs. 2-6, and the exhibit
    renderers.
``repro.orchestrate``
    The one trial-dispatch core, parallel trial execution and the
    on-disk result cache behind the ``--workers``/``--cache`` CLI
    flags.
``repro.colocation``
    Multi-tenant co-location: interleaved processes competing for a
    contention-aware shared DRAM channel.
``repro.substrate``
    Zero-copy result substrate: the columnar payload format, the
    pickle-parity codec, and the shared-memory result transport.

Quickstart::

    from repro.machine import ampere_altra_max
    from repro.workloads import StreamWorkload
    from repro.nmo import NmoProfiler, NmoSettings, NmoMode

    machine = ampere_altra_max()
    workload = StreamWorkload(machine, n_threads=32, scale=1/32)
    settings = NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=4096)
    result = NmoProfiler(workload, settings).run()
    print(f"accuracy {result.accuracy:.1%}, overhead {result.time_overhead:.2%}")
"""

__version__ = "1.0.0"

from repro import analysis, colocation, cpu, evalharness, kernel, machine
from repro import nmo, orchestrate, runtime, scenarios, spe, substrate
from repro import workloads
from repro.errors import ReproError

__all__ = [
    "ReproError",
    "__version__",
    "analysis",
    "colocation",
    "cpu",
    "evalharness",
    "kernel",
    "machine",
    "nmo",
    "orchestrate",
    "runtime",
    "scenarios",
    "spe",
    "substrate",
    "workloads",
]
