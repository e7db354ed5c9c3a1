#!/usr/bin/env bash
# Records the perf trajectory of the `em_reconstruction` and
# `sustained_ingest` criterion benches into BENCH_em.json at the repo root
# (a schema-2 file holding a list of snapshots), and gates regressions
# between the two most recent snapshots. The sustained_ingest sections are
# informational only (loopback TCP timing is too noisy to gate).
#
# Usage:
#   scripts/bench_record.sh          # full run, APPENDS a snapshot to
#                                    # BENCH_em.json (migrating the old
#                                    # single-snapshot schema 1 in place)
#   scripts/bench_record.sh smoke    # seconds-long CI smoke run; writes
#                                    # BENCH_em.smoke.json instead
#   scripts/bench_record.sh compare  # diffs the last two snapshots in
#                                    # BENCH_em.json and exits non-zero on
#                                    # a >25% per-iteration regression, or
#                                    # when the two were recorded on
#                                    # different hosts (re-baseline then)
#
# Noise model: a full run takes EM_SAMPLES (5) samples of every
# em_reconstruction key and stores each key's median as its value, with
# the samples' [min, max] under `spread` and the count under `samples`.
# `compare` gates the medians. Smoke runs take one sample;
# sustained_ingest runs once.
#
# Each snapshot records a `host` identity: nproc, the CPU model from
# /proc/cpuinfo, and the SIMD dispatch (`avx2` when the CPU has AVX2 and
# LDP_NO_SIMD is unset or `0`, else `scalar`). Snapshots recorded before
# that field existed are identified by `host_threads` alone. The top-level
# `simd_kernels` field is the widest kernel arm the bench binary reports
# it dispatched to (`avx512`, `avx2` or `scalar`; absent when the binary
# does not report one); `compare` prints both sides' arms. It sits outside
# `host`, so adding it changed no host identity.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-full}"

if [ "$MODE" = "compare" ]; then
  exec python3 - <<'PY'
import json, sys

LIMIT = 1.25  # fail on >25% per-unit-of-work regression

with open("BENCH_em.json") as f:
    doc = json.load(f)
snapshots = doc.get("snapshots") if isinstance(doc, dict) else None
if not snapshots or len(snapshots) < 2:
    print("bench compare: need at least 2 snapshots in BENCH_em.json "
          f"(found {len(snapshots or [])}); nothing to gate", file=sys.stderr)
    sys.exit(1)
prev, last = snapshots[-2], snapshots[-1]
print(f"bench compare: simd_kernels: {prev.get('simd_kernels', 'not recorded')} -> "
      f"{last.get('simd_kernels', 'not recorded')}")

# Timings from different hosts are not comparable: a changed host is a
# re-baseline, not a regression. Older snapshots carry no `host` object,
# so a pair involving one compares on `host_threads` alone.
if "host" in prev and "host" in last:
    prev_id, last_id = prev["host"], last["host"]
else:
    prev_id = {"host_threads": prev.get("host_threads")}
    last_id = {"host_threads": last.get("host_threads")}
changed = sorted(k for k in set(prev_id) | set(last_id)
                 if prev_id.get(k) != last_id.get(k))
if changed:
    for key in changed:
        print(f"bench compare: host {key}: {prev_id.get(key)!r} -> "
              f"{last_id.get(key)!r}", file=sys.stderr)
    print(f"bench compare: host changed: re-baseline (differing: "
          f"{', '.join(changed)})", file=sys.stderr)
    sys.exit(1)

GATED = [
    ("em_iteration_ns", "ns/EM-iteration"),
    ("grid_ns_per_trial", "ns/grid-trial"),
    ("bootstrap_ns_per_replicate", "ns/bootstrap-replicate"),
    ("streaming_agg_ns_per_report", "ns/report"),
    ("absorb_ns_per_report", "ns/report"),
]
# Keys of a gated section that are recorded for information only: a
# converging EMS run's iteration count and log-likelihood share depend on
# the stopping test, so its per-iteration time is not a like-for-like
# kernel figure.
INFORMATIONAL = {("em_iteration_ns", "ems_converging_d1024"),
                 ("em_iteration_ns", "ems_converging_d256")}


def spread(section, key):
    """Each side's recorded [min, max] over its samples, where it has one
    (snapshots before the noise model hold a single sample per key)."""
    sides = []
    for snap in (prev, last):
        lo_hi = snap.get("spread", {}).get(section, {}).get(key)
        n = snap.get("samples", 1)
        sides.append(f"{lo_hi[0]:.1f}..{lo_hi[1]:.1f} (n={n})" if lo_hi else "n=1")
    if sides == ["n=1", "n=1"]:
        return ""
    return f"  [spread {sides[0]} -> {sides[1]}]"


failed = False
for section, unit in GATED:
    a, b = prev.get(section, {}), last.get(section, {})
    # A gated series the latest snapshot dropped is retired, not passed:
    # name it so its disappearance is visible in the gate's log.
    for key in sorted(set(a) - set(b)):
        print(f"bench compare: retired: {section}/{key} (in the previous "
              "snapshot, absent from the latest; not gated)")
    for key in sorted(set(a) & set(b)):
        if a[key] <= 0:
            continue
        ratio = b[key] / a[key]
        if (section, key) in INFORMATIONAL:
            print(f"bench compare: {section}/{key}: {a[key]:.1f} -> {b[key]:.1f} "
                  f"{unit}  ({ratio:.1%} of baseline, informational)"
                  f"{spread(section, key)}")
            continue
        verdict = "REGRESSION" if ratio > LIMIT else "ok"
        print(f"bench compare: {section}/{key}: {a[key]:.1f} -> {b[key]:.1f} "
              f"{unit}  ({ratio:.1%} of baseline, {verdict}){spread(section, key)}")
        if ratio > LIMIT:
            failed = True
if failed:
    print(f"bench compare: FAILED (>{LIMIT - 1:.0%} regression between the "
          f"last two snapshots)", file=sys.stderr)
    sys.exit(1)
print("bench compare: ok (all gated metrics within "
      f"{LIMIT - 1:.0%} of the previous snapshot)")
PY
fi

OUT="BENCH_em.json"
EM_SAMPLES=5
if [ "$MODE" = "smoke" ]; then
  export BENCH_SMOKE=1
  OUT="BENCH_em.smoke.json"
  EM_SAMPLES=1
fi

# One `sample:` marker line ahead of each em_reconstruction run's lines.
RAW_EM=""
for i in $(seq 1 "$EM_SAMPLES"); do
  echo "bench_record: em_reconstruction sample $i/$EM_SAMPLES" >&2
  LINES="$(cargo bench --bench em_reconstruction 2>&1 | tee -a /dev/stderr | grep -E '^(bench|simd_kernels): ' || true)"
  RAW_EM="${RAW_EM}sample: $i"$'\n'"${LINES}"$'\n'
done
RAW_SERVE="$(cargo bench --bench sustained_ingest 2>&1 | tee -a /dev/stderr | grep '^bench: ' || true)"
if ! grep -q '^bench: ' <<<"${RAW_EM}${RAW_SERVE}"; then
  echo "bench_record: no 'bench:' lines captured" >&2
  exit 1
fi

# The bench lines travel via the environment: the script body arrives on
# stdin (the heredoc), so piping them in as well would clobber it.
RAW_EM="$RAW_EM" RAW_SERVE="$RAW_SERVE" MODE="$MODE" OUT="$OUT" python3 - <<'PY'
import datetime, json, os, re, statistics, sys

mode, out = os.environ["MODE"], os.environ["OUT"]

def parse(lines):
    ns = {}
    for line in lines:
        parts = line.split()
        if len(parts) >= 3 and parts[0] == "bench:":
            ns[parts[1]] = float(parts[2])
    return ns

em_samples = []
arms = set()
for line in os.environ["RAW_EM"].splitlines():
    if line.startswith("simd_kernels: "):
        arms.add(line.split()[1])
    elif line.startswith("sample: "):
        em_samples.append([])
    elif em_samples:
        em_samples[-1].append(line)
em_samples = [parse(lines) for lines in em_samples]
em_samples = [ns for ns in em_samples if ns]
serve_ns = parse(os.environ["RAW_SERVE"].splitlines())

def cpu_model_and_flags():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key == "model name" and model == "unknown":
                    model = value.strip()
                elif key == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return model, flags

MODEL, FLAGS = cpu_model_and_flags()
# Mirrors the kernels' dispatch rule: LDP_NO_SIMD set to anything but
# "" or "0" forces the scalar path.
FORCED_OFF = os.environ.get("LDP_NO_SIMD", "") not in ("", "0")

def host_identity():
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": MODEL,
        "simd": "avx2" if "avx2" in FLAGS and not FORCED_OFF else "scalar",
    }

def env_threads():
    override = os.environ.get("LDP_POOL_THREADS", "").strip()
    if override.isdigit() and int(override) >= 1:
        return int(override)
    return os.cpu_count() or 1

DERIVED = [
    "em_iteration_ns",
    "grid_ns_per_trial",
    "bootstrap_ns_per_replicate",
    "streaming_agg_ns_per_report",
    "absorb_ns_per_report",
    "absorb_push_ns_per_report",
    "absorb_pooled_ns_per_report",
    "sustained_ingest_ns_per_report",
    "sustained_ingest_reports_per_sec",
]

def derive(ns):
    """Per-unit-of-work keys from one sample's raw ns-per-call figures."""
    out = {section: {} for section in DERIVED}
    for name, v in sorted(ns.items()):
        m = re.fullmatch(r"em_fixed/(\w+)_d(\d+)_iters(\d+)", name)
        if m:
            kind, d, iters = m.group(1), m.group(2), int(m.group(3))
            out["em_iteration_ns"][f"{kind}_d{d}"] = round(v / iters, 1)
        m = re.fullmatch(r"grid/(\w+?)_jobs(\d+)_d(\d+)", name)
        if m:
            label, jobs, d = m.group(1), int(m.group(2)), m.group(3)
            out["grid_ns_per_trial"][f"{label}_d{d}"] = round(v / jobs, 1)
        m = re.fullmatch(r"bootstrap/replicates(\d+)_d(\d+)", name)
        if m:
            reps, d = int(m.group(1)), m.group(2)
            out["bootstrap_ns_per_replicate"][f"d{d}"] = round(v / reps, 1)
        m = re.fullmatch(r"streaming/(\w+?)_n(\d+)_d(\d+)", name)
        if m:
            path, n, d = m.group(1), int(m.group(2)), m.group(3)
            out["streaming_agg_ns_per_report"][f"{path}_d{d}"] = round(v / n, 2)
        m = re.fullmatch(r"absorb/(\w+?)_n(\d+)", name)
        if m:
            fam, n = m.group(1), int(m.group(2))
            out["absorb_ns_per_report"][fam] = round(v / n, 2)
        m = re.fullmatch(r"absorb_push/(\w+?)_n(\d+)", name)
        if m:
            fam, n = m.group(1), int(m.group(2))
            out["absorb_push_ns_per_report"][fam] = round(v / n, 2)
        m = re.fullmatch(r"absorb_pooled/(\w+?)_n(\d+)_w(\d+)", name)
        if m:
            fam, n, w = m.group(1), int(m.group(2)), m.group(3)
            out["absorb_pooled_ns_per_report"][f"{fam}_w{w}"] = round(v / n, 2)
        m = re.fullmatch(r"sustained/ingest_c(\d+)_n(\d+)", name)
        if m:
            conns, n = m.group(1), int(m.group(2))
            out["sustained_ingest_ns_per_report"][f"c{conns}"] = round(v / n, 1)
            out["sustained_ingest_reports_per_sec"][f"c{conns}"] = round(n / (v * 1e-9))
    return out

def median_and_spread(samples):
    """Per key: the median over the samples that measured it, and their
    [min, max]."""
    keys = sorted(set().union(*samples)) if samples else []
    medians, spreads = {}, {}
    for key in keys:
        values = [s[key] for s in samples if key in s]
        medians[key] = round(statistics.median(values), 2)
        spreads[key] = [min(values), max(values)]
    return medians, spreads

raw_medians, _ = median_and_spread(em_samples)
per_sample = [derive(ns) for ns in em_samples]
serve = derive(serve_ns)

snapshot = {
    "mode": mode,
    "recorded_at": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "host_threads": os.cpu_count() or 1,
    "host": host_identity(),
    "pool_threads": env_threads(),
    "samples": len(em_samples),
    "em_iters_per_call": 32,
    "median_ns_per_call": {k: round(v, 1)
                           for k, v in sorted({**raw_medians, **serve_ns}.items())},
    "em_iteration_ns": {},
    "em_speedup_structured_vs_dense": {},
    "grid_ns_per_trial": {},
    "bootstrap_ns_per_replicate": {},
    "streaming_agg_ns_per_report": {},
    "absorb_ns_per_report": {},
    "absorb_push_ns_per_report": {},
    "absorb_pooled_ns_per_report": {},
    "absorb_speedup_slice_vs_push": {},
    "sustained_ingest_ns_per_report": {},
    "sustained_ingest_reports_per_sec": {},
    "spread": {},
}
if len(arms) > 1:
    sys.exit(f"bench_record: the samples dispatched to different kernel arms: {sorted(arms)}")
if arms:
    snapshot["simd_kernels"] = arms.pop()
for section in DERIVED:
    medians, spreads = median_and_spread([s[section] for s in per_sample])
    # sustained_ingest runs once, outside the em_reconstruction samples.
    snapshot[section] = {**medians, **serve[section]}
    if spreads:
        snapshot["spread"][section] = spreads

# Kernel-path speedup per family: the per-report push baseline over the
# bulk absorb_slice path (the bit-count families are the headline).
for fam, push_v in snapshot["absorb_push_ns_per_report"].items():
    slice_v = snapshot["absorb_ns_per_report"].get(fam, 0)
    if slice_v > 0:
        snapshot["absorb_speedup_slice_vs_push"][fam] = round(push_v / slice_v, 2)

per_iter = snapshot["em_iteration_ns"]
for key, value in per_iter.items():
    if key.startswith("dense_d"):
        other = "structured_d" + key[len("dense_d"):]
        if other in per_iter and per_iter[other] > 0:
            snapshot["em_speedup_structured_vs_dense"]["d" + key[len("dense_d"):]] = \
                round(value / per_iter[other], 2)

doc = {"schema": 2, "snapshots": []}
if mode == "full" and os.path.exists(out):
    with open(out) as f:
        existing = json.load(f)
    if isinstance(existing, dict) and "snapshots" in existing:
        doc["snapshots"] = existing["snapshots"]
    elif isinstance(existing, dict):
        # Migrate a schema-1 single-snapshot file: it becomes snapshot 0.
        existing.pop("schema", None)
        doc["snapshots"] = [existing]

doc["snapshots"].append(snapshot)
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"bench_record: wrote snapshot {len(doc['snapshots'])} to {out}",
      file=sys.stderr)
PY

cat "$OUT"
