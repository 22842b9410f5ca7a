"""STREAM: the synthetic sustainable-bandwidth benchmark (Triad kernel).

The paper profiles STREAM's Triad (``a[i] = b[i] + SCALAR * c[i]``) with
OpenMP threads, tagging the kernel region "triad" and the three arrays
``a``, ``b``, ``c`` (Fig. 4).  Memory behaviour per element: two loads
(``b[i]``, ``c[i]``) and one store (``a[i]``), perfectly sequential per
thread chunk, with one FMA of compute — a fully bandwidth-bound kernel
that saturates the memory controllers and therefore runs with a heavily
*loaded* DRAM latency (the source of its SPE sample collisions at small
sampling periods, Fig. 8c).
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.machine.statcache import AccessClass
from repro.runtime.openmp import chunk_of
from repro.workloads.access_patterns import round_robin, sequential
from repro.workloads.base import Phase, Workload

#: Default array length at ``scale=1``: 2^27 doubles = 1 GiB per array
#: (the paper's "1G array size" configuration).
DEFAULT_ELEMS = 1 << 27


class StreamWorkload(Workload):
    """STREAM Triad with OpenMP static scheduling."""

    name = "stream"

    def __init__(
        self,
        machine,
        n_threads: int = 32,
        scale: float = 1.0,
        iterations: int = 5,
        n_elems: int | None = None,
        reference_locality: bool = True,
        **kwargs,
    ) -> None:
        """``reference_locality=True`` (default) evaluates the locality
        mixture at the paper-scale array size even when ``scale`` shrinks
        the op count, so cache behaviour — and everything downstream:
        levels, latencies, collisions — is scale-invariant.  Set False
        for small exact-simulation cross-checks."""
        if iterations <= 0:
            raise WorkloadError("iterations must be >= 1")
        self.iterations = iterations
        self.reference_locality = reference_locality
        self._n_elems_arg = n_elems
        super().__init__(machine, n_threads=n_threads, scale=scale, **kwargs)

    @property
    def n_elems(self) -> int:
        return self._n_elems

    def _build(self) -> None:
        n = (
            self._n_elems_arg
            if self._n_elems_arg is not None
            else max(1024, int(self.scale * DEFAULT_ELEMS))
        )
        self._n_elems = n
        nbytes = n * 8
        a = self.alloc_object("a", nbytes)
        b = self.alloc_object("b", nbytes)
        c = self.alloc_object("c", nbytes)

        t = self.n_threads
        loc_n = DEFAULT_ELEMS if self.reference_locality else n
        lo, hi = chunk_of(loc_n, t, 0)
        slice_bytes = 3 * (hi - lo) * 8
        seq_class = [AccessClass(footprint=max(slice_bytes, 64), stride=8)]

        # --- init: sequential stores populate all three arrays ------------
        init_addr = round_robin(
            [
                sequential(a, n, 8, n_threads=t),
                sequential(b, n, 8, n_threads=t),
                sequential(c, n, 8, n_threads=t),
            ]
        )
        self.add_phase(
            Phase(
                name="init",
                n_mem_ops=3 * ((n + t - 1) // t),
                cpi=0.5,
                addr_fn=init_addr,
                kind_fn=lambda mi, th: np.ones(np.asarray(mi).shape, dtype=bool),
                classes=seq_class,
                group=2,
                tag="init",
                touch={"a": nbytes, "b": nbytes, "c": nbytes},
                alloc={"a": nbytes, "b": nbytes, "c": nbytes},
                pc_base=0x401000,
            )
        )

        # --- triad iterations: load b, load c, store a --------------------
        triad_addr = round_robin(
            [
                sequential(b, n, 8, n_threads=t),
                sequential(c, n, 8, n_threads=t),
                sequential(a, n, 8, n_threads=t),
            ]
        )

        def triad_kinds(mem_idx: np.ndarray, thread) -> np.ndarray:
            # the third access of each element group is the store to a[i]
            return (np.asarray(mem_idx, dtype=np.int64) % 3) == 2

        for it in range(self.iterations):
            self.add_phase(
                Phase(
                    name=f"triad#{it}",
                    n_mem_ops=3 * ((n + t - 1) // t),
                    cpi=0.5,
                    addr_fn=triad_addr,
                    kind_fn=triad_kinds,
                    classes=seq_class,
                    group=2,
                    flops_per_group=1,
                    tag="triad",
                    pc_base=0x402000,
                )
            )
        self.finalise_dram_pressure()
