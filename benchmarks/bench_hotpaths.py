"""Hot-path regression bench: compression build time and serve-path MVM.

This benchmark records the measurement trajectory for the repo's two
hottest paths (see ``BENCH_hotpaths.json``, committed at the repo
root):

- **compress** — separator-aware RePair, ``strategy="exact"`` (the
  pure-Python reference heap loop) vs ``strategy="batch"`` (the
  vectorised generation rounds), with the grammar sizes and the
  ``re_ans`` compression ratios of both, plus the exact grammar's
  fingerprint so seed drift is detectable;
- **cold_start** — server restart cost against a matrix store:
  catalog-driven registry open (O(rows)) vs directory scan
  (O(files) header reads) vs eager payload loading (O(bytes)),
  first-``/matrices`` latency, and one payload loaded mmap vs copy;
- **multiply** — per grammar variant, the served single-vector MVM
  latency in three configurations: *cold* (first request: storage
  decode + plan build + multiply, plan retention on), *warm* (every
  later request: retained plan, no decode, no rebuild), and
  *no-cache* (plan retention off — the pre-retention serving cost,
  paid on every request);
- **obs_overhead** — the tracing-off cost of the ``repro.obs``
  instrumentation on the warm MVM path: the same warm multiply bare
  vs wrapped in the serve layer's ``span("multiply.kernel", ...)``
  with no trace active (the no-op-span fast path every untraced
  request takes).  ``--check-baseline`` fails when the overhead
  reaches 5 %;
- **panel** — warm retained-plan multiplication, right and left, at
  ``k`` ∈ :data:`PANEL_KS` (the single-vector kernels at ``k = 1``,
  the panel kernels beyond), against scipy CSR (the ``csr`` format)
  on the same matrix.  ``--check-baseline`` fails when the grammar
  kernel is slower than :data:`PANEL_MAX_VS_CSR` times CSR in the same
  run;
- **rans** — microseconds per symbol of the ``re_ans`` entropy coder
  on fixed streams of three lengths (:data:`RANS_STREAMS`; the length
  of ``C`` sets the lane count and so the decode's step count): the
  array-LEB128 header parse, the interleaved-lane payload decode and
  the single-state payload decode of the same symbols in the unfolded
  64-lane layout (the layouts older files hold), ``ans_compress``, and
  the whole ``ans_decompress`` of the folded blob ``ans_compress``
  writes for the stream, with its bytes, lanes and steps.
  ``--check-baseline`` fails unless the laned decode beats the
  single-state one by :data:`RANS_MIN_SPEEDUP` on every stream, and
  unless the folded decode of the longest stream takes no longer per
  symbol than its laned payload decode.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py            # full
    PYTHONPATH=src python benchmarks/bench_hotpaths.py --quick    # CI smoke

``--check-baseline PATH`` compares the measured warm latencies against
a previously committed run and exits non-zero when any regresses by
more than ``--tolerance`` (default 2x) — the CI perf-smoke gate.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial
from pathlib import Path
from statistics import median

import numpy as np

from repro.core.csrv import CSRVMatrix
from repro.core.gcm import VARIANTS, GrammarCompressedMatrix, plan_cache
from repro.core.repair import repair_compress
from repro.datasets import get_dataset

#: Full-mode profiles: (dataset, synthetic rows).  ``mnist2m`` at 5000
#: rows is the largest (~1M CSRV symbols — the scale the exact RePair
#: caps out at, and where the batch strategy's speedup is measured).
FULL_PROFILES = (("census", 5000), ("airline78", 6000), ("mnist2m", 5000))

#: Quick-mode profile for the CI perf-smoke job.
QUICK_PROFILES = (("census", 400),)

SCHEMA = "bench_hotpaths/v1"

#: Cold-start store profiles: (n_matrices, rows, cols).  Full mode
#: builds a multi-hundred-MB store (24 dense payloads of ~12 MB plus a
#: sharded container) so the catalog-vs-scan registry-open gap is
#: measured at the scale the acceptance criterion names; quick mode
#: keeps the same shape at CI-smoke size.
COLD_START_FULL = (24, 1000, 1500)
COLD_START_QUICK = (6, 150, 200)

#: The rans section's stream lengths, the same in quick and full mode.
#: Each stream draws its symbols uniformly from as many sparse ids
#: (seed :data:`RANS_SEED`), so that, as in a RePair final string, most
#: symbols occur once or twice.  500 and 2000 symbols stand for short
#: final strings (small matrices, blocks, many-shard containers: 32 and
#: 64 lanes of 16 and 32 steps); 8192 for a long one (64 lanes of 128
#: steps, 13-bit quantisation).
RANS_STREAMS = (500, 2000, 8192)
RANS_SEED = 3

#: Operand widths of the panel section, and its interleaved rounds.
PANEL_KS = (1, 64)
PANEL_ROUNDS = 41


def _time_once(fn) -> tuple[float, object]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def bench_compress(seq: np.ndarray, dense_bytes: int, values, shape) -> dict:
    """Time both RePair strategies and report sizes/ratios."""
    exact_seconds, exact = _time_once(lambda: repair_compress(seq))
    batch_seconds, batch = _time_once(
        lambda: repair_compress(seq, strategy="batch")
    )
    out = {
        "seq_len": int(seq.size),
        "exact_seconds": exact_seconds,
        "batch_seconds": batch_seconds,
        "batch_speedup": exact_seconds / batch_seconds,
        "exact_grammar_size": int(exact.size),
        "batch_grammar_size": int(batch.size),
        "batch_size_overhead_pct": 100.0 * batch.size / exact.size - 100.0,
        "exact_fingerprint": exact.fingerprint(),
    }
    for label, grammar in (("exact", exact), ("batch", batch)):
        gm = GrammarCompressedMatrix.from_grammar(grammar, values, shape, "re_ans")
        out[f"{label}_re_ans_ratio_pct"] = 100.0 * gm.size_bytes() / dense_bytes
    return out, exact


def bench_multiply(grammar, values, shape, warm_iters: int, cold_reps: int) -> dict:
    """Cold/warm/no-cache single-vector MVM latency per grammar variant."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal(shape[1])
    results = {}
    for variant in VARIANTS:
        matrix = GrammarCompressedMatrix.from_grammar(grammar, values, shape, variant)
        # no-cache: per-call decode + schedule rebuild (retention off).
        matrix.enable_plan_retention(False)
        nocache = median(
            _time_once(lambda: matrix.right_multiply(x))[0]
            for _ in range(max(3, cold_reps))
        )
        # cold: first served request — fresh instance, retention on,
        # empty plan cache.  Instances share the storage arrays, so
        # re-instantiating is cheap; the cache is cleared so the cold
        # number includes a real decode + plan build.
        colds = []
        for _ in range(cold_reps):
            fresh = GrammarCompressedMatrix.from_grammar(
                grammar, values, shape, variant
            )
            fresh.enable_plan_retention(True)
            plan_cache().clear()
            colds.append(_time_once(lambda: fresh.right_multiply(x))[0])
        cold = median(colds)
        # warm: every later request on the retained plan.
        matrix.enable_plan_retention(True)
        matrix.right_multiply(x)  # warm it
        warm = median(
            _time_once(lambda: matrix.right_multiply(x))[0]
            for _ in range(warm_iters)
        )
        results[variant] = {
            "cold_seconds": cold,
            "warm_seconds": warm,
            "nocache_seconds": nocache,
            "warm_vs_cold": cold / warm,
            "warm_vs_nocache": nocache / warm,
        }
    return results


def bench_cold_start(n_matrices: int, rows: int, cols: int) -> dict:
    """Registry restart cost: catalog rows vs header scans vs payloads.

    Builds a temporary :class:`repro.store.MatrixStore` (dense payloads
    plus one sharded container) and times the three ways a server can
    come back up: ``catalog_open`` (``MatrixRegistry(store=...)`` —
    O(rows), the repro.store path), ``scan_open`` (directory scan with
    a header read per file — the pre-store path), and ``eager_load``
    (full payload deserialization — what restart would cost without
    lazy loading).  Also times the first ``/matrices`` listing after a
    catalog open, and one payload loaded mmap vs copy.
    """
    import shutil
    import tempfile

    from repro import formats
    from repro.io.serialize import load_matrix
    from repro.serve.registry import MatrixRegistry
    from repro.shard import build_sharded
    from repro.store import MatrixStore

    tmp = tempfile.mkdtemp(prefix="repro-coldstart-")
    try:
        rng = np.random.default_rng(7)
        store = MatrixStore(tmp)
        for i in range(max(2, n_matrices) - 1):
            dense = rng.random((rows, cols))
            store.add(f"m{i:03d}", formats.compress(dense, format="dense"))
        store.add(
            "sharded", build_sharded(rng.random((rows, cols)), n_shards=4)
        )

        scan_seconds, scan_reg = _time_once(lambda: MatrixRegistry(root=tmp))
        catalog_seconds, reg = _time_once(
            lambda: MatrixRegistry(store=tmp, mmap=True)
        )
        first_matrices_seconds, listing = _time_once(reg.entries)
        assert len(listing) == len(scan_reg.names())

        eager_seconds = 0.0
        for entry in store.entries():
            seconds, _ = _time_once(lambda: load_matrix(entry.path))
            eager_seconds += seconds

        path = store.path_of("m000")
        copy_seconds, _ = _time_once(lambda: load_matrix(path))
        mmap_seconds, _ = _time_once(lambda: load_matrix(path, mmap=True))
        return {
            "n_matrices": int(len(store)),
            "store_bytes": int(store.total_bytes()),
            "catalog_open_seconds": catalog_seconds,
            "scan_open_seconds": scan_seconds,
            "open_speedup": scan_seconds / catalog_seconds,
            "eager_load_seconds": eager_seconds,
            "eager_vs_catalog": eager_seconds / catalog_seconds,
            "first_matrices_seconds": first_matrices_seconds,
            "copy_load_seconds": copy_seconds,
            "mmap_load_seconds": mmap_seconds,
            "mmap_load_speedup": copy_seconds / mmap_seconds,
        }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def bench_obs_overhead(grammar, values, shape, iters: int) -> dict:
    """Tracing-off instrumentation cost on the warm serve MVM path.

    Measures the warm retained-plan multiply bare vs under the serve
    layer's ``span("multiply.kernel", ...)`` with **no trace active** —
    the no-op-span path every untraced request takes.  Samples are
    interleaved so clock drift hits both sides equally, and the
    per-side statistic is the **minimum** (the standard choice for a
    noise-dominated microbenchmark: upward noise never makes code
    faster, so min-vs-min isolates the instrumentation delta from CPU
    frequency drift that a median would fold in).
    """
    from repro.obs.trace import span

    rng = np.random.default_rng(1)
    x = rng.standard_normal(shape[1])
    matrix = GrammarCompressedMatrix.from_grammar(grammar, values, shape, "re_ans")
    matrix.enable_plan_retention(True)
    matrix.right_multiply(x)  # warm the retained plan

    def bare():
        return matrix.right_multiply(x)

    def instrumented():
        with span("multiply.kernel", matrix="bench", op="multiply", k=1):
            return matrix.right_multiply(x)

    bare_times, inst_times = [], []
    for _ in range(iters):
        bare_times.append(_time_once(bare)[0])
        inst_times.append(_time_once(instrumented)[0])
    bare_s = min(bare_times)
    inst_s = min(inst_times)
    return {
        "iters": iters,
        "bare_warm_seconds": bare_s,
        "instrumented_warm_seconds": inst_s,
        "overhead_pct": 100.0 * inst_s / bare_s - 100.0,
    }


def bench_panel(grammar, values, shape, dense, rounds: int) -> dict:
    """Warm grammar MVM against scipy CSR on the same matrix.

    Every case — grammar or CSR, right or left, at each ``k`` of
    :data:`PANEL_KS` — runs once per round, rounds interleaved, and
    keeps its fastest round (as in :func:`bench_obs_overhead`).  The
    grammar side is the served configuration: a retained plan, so no
    decode and no plan build.
    """
    from repro import formats

    matrices = {
        "grammar": GrammarCompressedMatrix.from_grammar(
            grammar, values, shape, "re_32"
        ),
        "csr": formats.compress(dense, format="csr"),
    }
    rng = np.random.default_rng(2)
    cases = {}
    for k in PANEL_KS:
        x = rng.standard_normal((shape[1], k))
        y = rng.standard_normal((shape[0], k))
        for label, matrix in matrices.items():
            if k == 1:
                right = partial(matrix.right_multiply, x[:, 0])
                left = partial(matrix.left_multiply, y[:, 0])
            else:
                right = partial(matrix.right_multiply_matrix, x)
                left = partial(matrix.left_multiply_matrix, y)
            cases[("right", k, label)] = right
            cases[("left", k, label)] = left
    for (direction, k, _label), fn in cases.items():
        expect = cases[(direction, k, "csr")]()
        assert np.allclose(fn(), expect), (direction, k)
    best = dict.fromkeys(cases, float("inf"))
    for _ in range(rounds):
        for key, fn in cases.items():
            best[key] = min(best[key], _time_once(fn)[0])
    out = {}
    for direction in ("right", "left"):
        for k in PANEL_KS:
            grammar_s = best[(direction, k, "grammar")]
            csr_s = best[(direction, k, "csr")]
            out[f"{direction}_k{k}"] = {
                "grammar_seconds": grammar_s,
                "csr_seconds": csr_s,
                "grammar_vs_csr": grammar_s / csr_s,
            }
    return out


def bench_rans(repeats: int) -> dict:
    """Per-symbol cost of each half of an ``re_ans`` decode, and of encode.

    For every stream of :data:`RANS_STREAMS`, every case runs once per
    round, rounds interleaved, and each keeps its fastest round (as in
    :func:`bench_obs_overhead`).  Shorter streams run proportionally
    more rounds, so that every stream's rounds span about the same
    time and one slow spell of the machine cannot cover all of them.
    Decoder construction (the slot tables) counts towards its decode,
    as it does inside ``ans_decompress``.
    """
    streams = [_bench_rans_stream(n, repeats) for n in RANS_STREAMS]
    return {"repeats": repeats, "streams": streams}


def _bench_rans_stream(n: int, repeats: int) -> dict:
    from repro.encoders.rans import (
        DEFAULT_SCALE_BITS,
        LANED_MARK,
        InterleavedRansDecoder,
        InterleavedRansEncoder,
        RansDecoder,
        RansEncoder,
        ans_compress,
        ans_decompress,
        lane_count,
        normalize_frequencies,
        read_ans_header,
    )
    from repro.encoders.varint import decode_uvarint, encode_uvarints

    rng = np.random.default_rng(RANS_SEED)
    ids = np.sort(rng.choice(1 << 20, size=n, replace=False))
    values = ids[rng.integers(0, n, size=n)]
    # ans_compress folds these streams; the header and both payload
    # decodes keep timing the unfolded layout, written here directly.
    alphabet, dense = np.unique(values, return_inverse=True)
    dense = dense.ravel()
    scale_bits = max(DEFAULT_SCALE_BITS, (alphabet.size - 1).bit_length())
    freqs = normalize_frequencies(np.bincount(dense), scale_bits)
    blob = encode_uvarints(
        np.concatenate([
            [n, scale_bits + LANED_MARK, alphabet.size],
            np.diff(alphabet, prepend=0),
            freqs,
        ])
    ) + InterleavedRansEncoder(freqs, scale_bits).encode(dense)
    header = read_ans_header(blob)
    payload = blob[header.offset :]
    single = RansEncoder(freqs, scale_bits).encode(dense)
    table = (freqs, scale_bits)
    folded = ans_compress(values)
    folded_lanes = decode_uvarint(folded, read_ans_header(folded).offset)[0]
    cases = {
        "header": lambda: read_ans_header(blob),
        "laned_decode": lambda: InterleavedRansDecoder(*table).decode(payload, n),
        "single_decode": lambda: RansDecoder(*table).decode(single, n),
        "encode": lambda: ans_compress(values),
        "folded_decode": lambda: ans_decompress(folded),
    }
    rounds = repeats * max(1, max(RANS_STREAMS) // n)
    best = dict.fromkeys(cases, float("inf"))
    for _ in range(rounds):
        for name, fn in cases.items():
            best[name] = min(best[name], _time_once(fn)[0])
    assert np.array_equal(header.alphabet[cases["laned_decode"]()], values)
    assert np.array_equal(cases["folded_decode"](), values)
    out = {
        "symbols": n,
        "rounds": rounds,
        "alphabet": int(header.alphabet.size),
        "scale_bits": header.scale_bits,
        "lanes": lane_count(n),
        "laned_bytes": len(blob),
        "single_state_bytes": header.offset + len(single),
        "folded_bytes": len(folded),
        "folded_lanes": folded_lanes,
        "folded_steps": -(-n // folded_lanes),
    }
    for name, seconds in best.items():
        out[f"{name}_us_per_symbol"] = 1e6 * seconds / n
    out["laned_speedup"] = best["single_decode"] / best["laned_decode"]
    return out


def run(profiles, warm_iters: int, cold_reps: int, cold_start=None,
        obs_iters: int = 0, rans_repeats: int = 0) -> dict:
    report = {
        "schema": SCHEMA,
        "command": " ".join(sys.argv),
        "profiles": {},
    }
    first_grammar = None
    for name, rows in profiles:
        dense = np.asarray(get_dataset(name, n_rows=rows).matrix)
        csrv = CSRVMatrix.from_dense(dense)
        compress, exact_grammar = bench_compress(
            csrv.s, dense.size * 8, csrv.values, csrv.shape
        )
        if first_grammar is None:
            first_grammar = (exact_grammar, csrv.values, csrv.shape)
        multiply = bench_multiply(
            exact_grammar, csrv.values, csrv.shape, warm_iters, cold_reps
        )
        report["profiles"][name] = {
            "rows": int(dense.shape[0]),
            "cols": int(dense.shape[1]),
            "compress": compress,
            "multiply": multiply,
        }
        panel = bench_panel(
            exact_grammar, csrv.values, csrv.shape, dense, PANEL_ROUNDS
        )
        report["profiles"][name]["panel"] = panel
        print(
            f"{name} ({dense.shape[0]}x{dense.shape[1]}, |S|="
            f"{compress['seq_len']:,}): compress exact "
            f"{compress['exact_seconds']:.3f}s vs batch "
            f"{compress['batch_seconds']:.3f}s "
            f"(x{compress['batch_speedup']:.1f}, "
            f"+{compress['batch_size_overhead_pct']:.2f}% size)"
        )
        for variant, m in multiply.items():
            print(
                f"  {variant}: cold {1e3 * m['cold_seconds']:.3f}ms, "
                f"warm {1e3 * m['warm_seconds']:.3f}ms "
                f"(x{m['warm_vs_cold']:.1f} vs cold, "
                f"x{m['warm_vs_nocache']:.1f} vs no-cache)"
            )
        for case, p in panel.items():
            print(
                f"  panel {case}: grammar "
                f"{1e3 * p['grammar_seconds']:.3f}ms vs csr "
                f"{1e3 * p['csr_seconds']:.3f}ms "
                f"({p['grammar_vs_csr']:.2f}x csr)"
            )
    if cold_start is not None:
        cs = bench_cold_start(*cold_start)
        report["cold_start"] = cs
        print(
            f"cold_start ({cs['n_matrices']} matrices, "
            f"{cs['store_bytes'] / 1e6:.0f}MB): catalog open "
            f"{1e3 * cs['catalog_open_seconds']:.1f}ms vs scan "
            f"{1e3 * cs['scan_open_seconds']:.1f}ms "
            f"(x{cs['open_speedup']:.1f}) vs eager load "
            f"{cs['eager_load_seconds']:.2f}s "
            f"(x{cs['eager_vs_catalog']:.0f}); first /matrices "
            f"{1e3 * cs['first_matrices_seconds']:.1f}ms; mmap load "
            f"{1e3 * cs['mmap_load_seconds']:.2f}ms vs copy "
            f"{1e3 * cs['copy_load_seconds']:.2f}ms "
            f"(x{cs['mmap_load_speedup']:.0f})"
        )
    if obs_iters and first_grammar is not None:
        obs = bench_obs_overhead(*first_grammar, obs_iters)
        report["obs_overhead"] = obs
        print(
            f"obs_overhead ({obs['iters']} interleaved iters): warm "
            f"{1e6 * obs['bare_warm_seconds']:.1f}us bare vs "
            f"{1e6 * obs['instrumented_warm_seconds']:.1f}us under a "
            f"no-op span ({obs['overhead_pct']:+.2f}%)"
        )
    if rans_repeats:
        report["rans"] = bench_rans(rans_repeats)
        for rans in report["rans"]["streams"]:
            print(
                f"rans ({rans['symbols']} symbols, {rans['alphabet']} distinct, "
                f"{rans['lanes']} lanes), us/symbol: header "
                f"{rans['header_us_per_symbol']:.3f}, laned decode "
                f"{rans['laned_decode_us_per_symbol']:.3f} vs single-state "
                f"{rans['single_decode_us_per_symbol']:.3f} "
                f"(x{rans['laned_speedup']:.1f}), encode "
                f"{rans['encode_us_per_symbol']:.3f}; "
                f"{rans['laned_bytes']} vs {rans['single_state_bytes']} bytes; "
                f"folded {rans['folded_bytes']} bytes, {rans['folded_lanes']} "
                f"lanes of {rans['folded_steps']} steps, decode "
                f"{rans['folded_decode_us_per_symbol']:.3f}"
            )
    return report


#: cold_start keys gated by ``--check-baseline``.  Sub-50ms timings on
#: shared CI runners are noise-dominated, so the regression limit gets
#: an absolute floor alongside the relative tolerance.
COLD_START_GATED_KEYS = (
    "catalog_open_seconds",
    "first_matrices_seconds",
    "mmap_load_seconds",
)

COLD_START_FLOOR_SECONDS = 0.05

#: The obs_overhead gate is self-relative (instrumented vs bare in the
#: *same* run), so it needs no baseline entry.  The absolute floor on
#: the delta keeps sub-microsecond timer noise from failing a 40us
#: kernel; a real regression (a span doing work while tracing is off)
#: costs far more than 5us.
OBS_OVERHEAD_LIMIT_PCT = 5.0
OBS_OVERHEAD_FLOOR_SECONDS = 5e-6

#: The rans gate is self-relative too: on each stream length the
#: interleaved-lane decode must beat the single-state decode of the same
#: stream by this factor (x1.4, x3.1 and x3.8 in BENCH_hotpaths.json).
#: A 500-symbol stream is 16 steps of 32 lanes, so it need only not lose.
RANS_MIN_SPEEDUP = {500: 1.0, 2000: 2.0, 8192: 2.0}

#: The folded gate runs on the longest stream only: there the whole
#: folded decode (header, 16 steps over 512 lanes, the unfold) must take
#: no longer per symbol than the payload decode of the unfolded stream
#: (64 lanes of 128 steps).  A stream of up to 1024 symbols has one lane
#: per 16 symbols folded or not, so folding buys its decode no steps and
#: adds the unfold: the 500-symbol stream's whole folded decode is
#: slower than its unfolded header and payload decode, and the
#: 2000-symbol one (125 lanes against 64) is faster than those two
#: together but not than the payload decode alone.
RANS_FOLDED_GATED_SYMBOLS = 8192


#: The panel gate is self-relative: in each profile, the warm grammar
#: kernel may take at most this multiple of scipy CSR on the same
#: matrix, in the same run.  The operator plan reads 0.5-1.7x CSR on
#: census 400 rows (the quick profile; right k=1 is call overhead) and
#: 0.3-1.0x on the full profiles; the level-loop kernels it replaced
#: read 2.0-4.7x at k=1 and 5.5-11x at k=64 on census 400 rows.
PANEL_MAX_VS_CSR = {1: 3.0, 64: 2.0}


def check_baseline(report: dict, baseline_path: Path, tolerance: float) -> int:
    """Fail (return 1) if any warm latency regressed beyond tolerance."""
    baseline = json.loads(baseline_path.read_text())
    failures = []
    for name, base_profile in baseline.get("profiles", {}).items():
        current = report["profiles"].get(name)
        if current is None:
            continue
        for variant, base_m in base_profile.get("multiply", {}).items():
            cur = current["multiply"].get(variant)
            if cur is None:
                failures.append(f"{name}/{variant}: missing from current run")
                continue
            limit = tolerance * base_m["warm_seconds"]
            if cur["warm_seconds"] > limit:
                failures.append(
                    f"{name}/{variant}: warm {1e3 * cur['warm_seconds']:.3f}ms "
                    f"> {tolerance:g}x baseline "
                    f"{1e3 * base_m['warm_seconds']:.3f}ms"
                )
    base_cold = baseline.get("cold_start")
    cur_cold = report.get("cold_start")
    if base_cold and cur_cold:
        for key in COLD_START_GATED_KEYS:
            if key not in base_cold or key not in cur_cold:
                continue
            limit = max(tolerance * base_cold[key], COLD_START_FLOOR_SECONDS)
            if cur_cold[key] > limit:
                failures.append(
                    f"cold_start/{key}: {1e3 * cur_cold[key]:.1f}ms > "
                    f"max({tolerance:g}x baseline "
                    f"{1e3 * base_cold[key]:.1f}ms, "
                    f"{1e3 * COLD_START_FLOOR_SECONDS:.0f}ms floor)"
                )
    obs = report.get("obs_overhead")
    if obs is not None:
        delta = obs["instrumented_warm_seconds"] - obs["bare_warm_seconds"]
        if (
            obs["overhead_pct"] >= OBS_OVERHEAD_LIMIT_PCT
            and delta > OBS_OVERHEAD_FLOOR_SECONDS
        ):
            failures.append(
                f"obs_overhead: no-op span costs {obs['overhead_pct']:.2f}% "
                f"({1e6 * delta:.1f}us) on the warm multiply — limit "
                f"{OBS_OVERHEAD_LIMIT_PCT:g}%"
            )
    for name, profile in report["profiles"].items():
        for case, p in profile.get("panel", {}).items():
            limit = PANEL_MAX_VS_CSR[int(case.rsplit("_k", 1)[1])]
            if p["grammar_vs_csr"] > limit:
                failures.append(
                    f"{name}/panel {case}: grammar "
                    f"{1e3 * p['grammar_seconds']:.3f}ms is "
                    f"{p['grammar_vs_csr']:.2f}x csr "
                    f"{1e3 * p['csr_seconds']:.3f}ms — limit {limit:g}x"
                )
    for rans in report.get("rans", {}).get("streams", []):
        need = RANS_MIN_SPEEDUP[rans["symbols"]]
        if rans["laned_speedup"] < need:
            failures.append(
                f"rans ({rans['symbols']} symbols): laned decode "
                f"{rans['laned_decode_us_per_symbol']:.3f}us/symbol is only "
                f"x{rans['laned_speedup']:.2f} faster than single-state "
                f"{rans['single_decode_us_per_symbol']:.3f}us/symbol — "
                f"limit x{need:g}"
            )
        folded = rans["folded_decode_us_per_symbol"]
        laned = rans["laned_decode_us_per_symbol"]
        if rans["symbols"] == RANS_FOLDED_GATED_SYMBOLS and folded > laned:
            failures.append(
                f"rans ({rans['symbols']} symbols): folded decode "
                f"{folded:.3f}us/symbol is slower than the laned decode "
                f"{laned:.3f}us/symbol"
            )
    if failures:
        print("PERF REGRESSION against", baseline_path, file=sys.stderr)
        for f in failures:
            print(" -", f, file=sys.stderr)
        return 1
    print(f"baseline check OK ({baseline_path}, tolerance {tolerance:g}x)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny profile + few iterations (the CI smoke configuration)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write the JSON report here (default: BENCH_hotpaths.json at "
        "the repo root in full mode, stdout-only in quick mode)",
    )
    parser.add_argument(
        "--check-baseline", default=None, metavar="PATH",
        help="compare warm-multiply latencies against a committed report "
        "and exit 1 on regression",
    )
    parser.add_argument(
        "--tolerance", type=float, default=2.0,
        help="allowed warm-latency regression factor (default 2x)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        profiles, warm_iters, cold_reps = QUICK_PROFILES, 9, 3
        cold_start, obs_iters, rans_repeats = COLD_START_QUICK, 200, 21
    else:
        profiles, warm_iters, cold_reps = FULL_PROFILES, 21, 3
        cold_start, obs_iters, rans_repeats = COLD_START_FULL, 600, 41
    report = run(
        profiles, warm_iters, cold_reps,
        cold_start=cold_start, obs_iters=obs_iters, rans_repeats=rans_repeats,
    )

    output = args.output
    if output is None and not args.quick:
        output = str(Path(__file__).resolve().parent.parent / "BENCH_hotpaths.json")
    if output:
        Path(output).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print("report written to", output)

    if args.check_baseline:
        return check_baseline(report, Path(args.check_baseline), args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
