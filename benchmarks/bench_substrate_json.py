"""Machine-readable substrate benchmarks: ``BENCH_substrate.json``.

Times every hot path of the SPE record substrate — the vectorized
implementations against their retained scalar references where one
exists — and writes an op/s report::

    PYTHONPATH=src python benchmarks/bench_substrate_json.py \
        --out BENCH_substrate.json

Entries with a reference twin carry ``speedup_vs_reference`` plus the
floor (``min_speedup``) the PR guarantees; ``benchmarks/check_regression.py``
compares a fresh run against the checked-in baseline
(``benchmarks/baselines/BENCH_substrate.baseline.json``) and fails CI on
a >2x op/s regression or a broken speedup floor.  See
``docs/performance.md`` for how to read the numbers.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# sibling benchmark modules (this file usually runs as a script, but
# keep the import working when the caller's sys.path lacks our dir)
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_cluster import bench_cluster_entries  # noqa: E402
from bench_resilience import bench_resilience_entries  # noqa: E402
from bench_sampling import bench_sampling_entries  # noqa: E402
from bench_serve import bench_serve_entries  # noqa: E402

from repro.cpu.clock import GenericTimer
from repro.cpu.pipeline import PipelineModel
from repro.cpu.ops import OpKind
from repro.machine.hierarchy import MemLevel
from repro.machine.spec import ampere_altra_max, tiered_altra_max
from repro.machine.tiers import PagePlacement
from repro.nmo.backends import FixedAuxPagesBackend
from repro.nmo.env import NmoMode, NmoSettings
from repro.nmo.profiler import NmoProfiler
from repro.orchestrate import ResultCache
from repro.scenarios import Session
from repro.scenarios.presets import fig8_spec
from repro.spe.driver import SpeCostModel
from repro.spe.packets import (
    decode_buffer,
    decode_stream,
    encode_batch,
    encode_records,
)
from repro.spe.records import SampleBatch
from repro.spe.refpath import reference_path
from repro.spe.sampler import (
    _reference_collision_scan,
    collision_scan,
    sample_positions,
)
from repro.workloads.stream import StreamWorkload


def best_seconds(fn, repeats: int = 5) -> float:
    """Median wall time of ``repeats`` runs (first run warms caches)."""
    fn()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scan_inputs(kind: str, n: int = 100_000):
    """Select-time/latency streams for the collision benches.

    ``overlapping`` is the paper's Fig. 8c worst case: a small sampling
    period (gaps ~100 cycles) under saturated DRAM (loaded latencies of
    thousands of cycles), where nearly every sample collides.  ``dense``
    is the mild regime where most samples survive.
    """
    rng = np.random.default_rng(0)
    t = np.sort(rng.uniform(0, n * 100.0, n))
    if kind == "overlapping":
        lat = rng.uniform(2000.0, 8000.0, n)
    else:
        lat = rng.uniform(1.0, 500.0, n)
    return t, lat


def bench_collision_scan(kind: str, min_speedup: float | None) -> dict:
    t, lat = scan_inputs(kind)
    n = t.shape[0]
    keep_v, coll_v = collision_scan(t, lat)
    keep_r, coll_r = _reference_collision_scan(t, lat)
    assert coll_v == coll_r and (keep_v == keep_r).all(), "parity broken"
    sec_v = best_seconds(lambda: collision_scan(t, lat))
    sec_r = best_seconds(lambda: _reference_collision_scan(t, lat))
    entry = {
        "metric": "ops_per_s",
        "value": n / sec_v,
        "reference_value": n / sec_r,
        "speedup_vs_reference": sec_r / sec_v,
        "collisions": int(coll_v),
        "n": n,
    }
    if min_speedup is not None:
        entry["min_speedup"] = min_speedup
    return entry


def fig9_small_aux_profile():
    """A Fig. 9-style profile run in the interrupt-bound corner: the
    minimum working aux buffer (4 pages) with an aggressive watermark,
    zero-loss service so every record crosses the wakeup path."""
    machine = ampere_altra_max()
    w = StreamWorkload(machine, n_threads=2, n_elems=1 << 22, iterations=3)
    settings = NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=128)
    return NmoProfiler(
        w,
        settings,
        seed=0,
        cost=SpeCostModel(service_loss_records=0),
        backend=FixedAuxPagesBackend(4, aux_watermark=256),
    ).run()


def bench_feed_profile(min_speedup: float) -> dict:
    res = fig9_small_aux_profile()
    sec_v = best_seconds(fig9_small_aux_profile, repeats=3)
    with reference_path():
        ref = fig9_small_aux_profile()
        sec_r = best_seconds(fig9_small_aux_profile, repeats=3)
    assert res.accuracy == ref.accuracy and res.wakeups == ref.wakeups, "parity broken"
    assert (res.batch.addr == ref.batch.addr).all(), "parity broken"
    return {
        "metric": "seconds",
        "value": sec_v,
        "reference_value": sec_r,
        "speedup_vs_reference": sec_r / sec_v,
        "min_speedup": min_speedup,
        "samples": int(res.n_samples),
        "wakeups": int(res.wakeups),
    }


def random_batch(n: int, rng) -> SampleBatch:
    return SampleBatch(
        pc=rng.integers(1, 1 << 48, n, dtype=np.uint64),
        addr=rng.integers(1, 1 << 48, n, dtype=np.uint64),
        ts=np.arange(1, n + 1, dtype=np.uint64),
        level=rng.integers(1, 5, n, dtype=np.uint8),
        kind=rng.integers(1, 3, n, dtype=np.uint8),
        total_lat=rng.integers(1, 500, n, dtype=np.uint16),
        issue_lat=rng.integers(1, 100, n, dtype=np.uint16),
    )


def bench_stream_decode() -> dict:
    """Streaming aux decode: a multi-MB record span through fixed-size
    chunk views (:func:`decode_stream`, the multi-GB-trace path that
    never materialises the span) vs concatenating the chunks first and
    calling :func:`decode_buffer` on the joined copy."""
    rng = np.random.default_rng(0)
    n = 200_000  # 12.8 MB of records
    raw = np.frombuffer(encode_batch(random_batch(n, rng)), dtype=np.uint8)
    step = 1 << 20

    def chunks():
        return [raw[i : i + step] for i in range(0, raw.shape[0], step)]

    got, _ = decode_stream(chunks())
    want, _ = decode_buffer(raw)
    assert (got.addr == want.addr).all(), "parity broken"
    sec_v = best_seconds(lambda: decode_stream(chunks()))
    sec_r = best_seconds(lambda: decode_buffer(np.concatenate(chunks())))
    return {
        "metric": "ops_per_s",
        "value": n / sec_v,
        "reference_value": n / sec_r,
        "speedup_vs_reference": sec_r / sec_v,
        "n": n,
    }


def bench_cache_hit_row(n: int = 2000) -> dict:
    """Warm-hit cost on a real row: ``ResultCache.get`` of one cached
    period-sweep trial (Figs. 7-8), a dict of five summary numbers —
    the shape of every row the scenario recipes cache."""
    spec = fig8_spec(
        periods=(8000,), trials=1, workloads=("stream",), scale=1 / 256
    )
    session = Session()
    trial = session.plan(spec)[0]
    row = session.trial_fn(spec)(trial)
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as tmp:
        cache = ResultCache(tmp)
        key = cache.key(trial.experiment, trial.config, trial.seed)
        cache.put(key, row)
        assert cache.get(key) == row

        def gets():
            for _ in range(n):
                cache.get(key)

        sec = best_seconds(gets)
        row_bytes = len(cache.export_entry(key))
    return {
        "metric": "ops_per_s",
        "value": n / sec,
        "n": n,
        "row_bytes": row_bytes,
    }


def bench_simple_rates() -> dict[str, dict]:
    rng = np.random.default_rng(0)
    n = 100_000
    batch = random_batch(n, rng)
    raw = encode_batch(batch)
    machine = ampere_altra_max()
    pm = PipelineModel(machine)
    m = 1_000_000
    kinds = rng.integers(0, 5, m).astype(np.uint8)
    levels = np.where(
        (kinds == OpKind.LOAD) | (kinds == OpKind.STORE),
        rng.integers(1, int(MemLevel.DRAM) + 1, m),
        0,
    ).astype(np.uint8)
    pos_rng = np.random.default_rng(0)
    return {
        "packet_encode_100k": {
            "metric": "ops_per_s",
            "value": n / best_seconds(lambda: encode_records(batch)),
        },
        "packet_decode_100k": {
            "metric": "ops_per_s",
            "value": n / best_seconds(lambda: decode_buffer(raw)),
        },
        "sample_positions_10m_ops": {
            "metric": "ops_per_s",
            "value": 10_000_000
            / best_seconds(
                lambda: sample_positions(10_000_000, 4096, True, pos_rng)
            ),
        },
        "op_latencies_lut_1m": {
            "metric": "ops_per_s",
            "value": m
            / best_seconds(
                lambda: pm.op_latencies(kinds, levels, rng=None, dram_scale=1.5)
            ),
        },
    }


def bench_tiering_remap() -> dict:
    """The tier-attribution hot path: 1M sampled addresses through
    ``PagePlacement.tier_of`` (sorted-page ``searchsorted`` lookup) on a
    1M-page map — the per-record cost the tiered-memory model adds to
    every DRAM-class sample (docs/memory-tiers.md)."""
    machine = tiered_altra_max()
    rng = np.random.default_rng(0)
    n_pages, n_addrs = 1_000_000, 1_000_000
    shift = int(machine.page_size).bit_length() - 1
    pages = np.sort(
        rng.choice(np.uint64(8 * n_pages), size=n_pages, replace=False)
    ).astype(np.uint64)
    tiers = rng.integers(0, 3, n_pages, dtype=np.uint8)
    placement = PagePlacement(pages, tiers, shift, 3)
    addrs = (
        pages[rng.integers(0, n_pages, n_addrs)] << np.uint64(shift)
    ) + np.uint64(64)
    out = placement.tier_of(addrs)
    counts = np.bincount(out, minlength=3)
    return {
        "metric": "ops_per_s",
        "value": n_addrs / best_seconds(lambda: placement.tier_of(addrs)),
        "n": n_addrs,
        "n_pages": n_pages,
        "tier_counts": [int(c) for c in counts],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="BENCH_substrate.json", help="output path")
    args = ap.parse_args(argv)

    entries: dict[str, dict] = {}
    print("collision_scan (100k overlapping samples, Fig. 8c regime)...")
    entries["collision_scan_100k_overlapping"] = bench_collision_scan(
        "overlapping", min_speedup=5.0
    )
    print("collision_scan (100k dense-survivor samples)...")
    entries["collision_scan_100k_dense"] = bench_collision_scan("dense", None)
    print("Fig. 9-style small-aux profile run (feed hot path)...")
    entries["spe_feed_fig9_small_aux_profile"] = bench_feed_profile(min_speedup=10.0)
    print("streaming aux decode (12.8 MB span through 1 MiB chunks)...")
    entries["feed_stream_decode"] = bench_stream_decode()
    print("warm cache hit (one cached period-sweep row)...")
    entries["cache_hit_row"] = bench_cache_hit_row()
    print("simple substrate rates...")
    entries.update(bench_simple_rates())
    print("tiering placement remap (1m samples over a 1m-page map)...")
    entries["tiering_placement_remap_1m"] = bench_tiering_remap()
    print("serve latencies (submit->first row, cache replay)...")
    entries.update(bench_serve_entries())
    print("cluster latencies (2 agents over HTTP: submit->first row, replay)...")
    entries.update(bench_cluster_entries())
    print("resilience costs (journal replay, membership probe round)...")
    entries.update(bench_resilience_entries())
    print("sampling zoo (preset wall time, per-strategy position rates)...")
    entries.update(bench_sampling_entries())

    report = {
        "schema": "repro-bench-substrate/1",
        "generated_by": "benchmarks/bench_substrate_json.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "entries": entries,
    }
    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, e in sorted(entries.items()):
        rate = (
            f"{e['value']:,.0f} op/s"
            if e["metric"] == "ops_per_s"
            else f"{e['value']:.3f} s"
        )
        speed = (
            f"  ({e['speedup_vs_reference']:.1f}x vs reference)"
            if "speedup_vs_reference" in e
            else ""
        )
        print(f"  {name}: {rate}{speed}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
