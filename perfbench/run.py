#!/usr/bin/env python3
"""Host-cost benchmark of the unikernel simulator: what the OCaml code
costs on the host per booted domain (storm), per simulated MSS (bulk)
and per simulated client request (fleet).

    python3 perfbench/run.py --workload storm|bulk|fleet --seed N \
        --seconds S --trace 0|1 [--size K] [--reference FILE]

Run from the root of a source checkout. It builds perfbench/hostbench.exe
with dune, then spawns it once per iteration (one iteration = one fresh
process running the whole workload once) until --seconds have passed,
checks every iteration's virtual-time outputs against the pinned
reference, and prints one JSON line per iteration ({"record": ...},
with provenance) followed by the summary line
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, timing a
fixed calibration after every iteration to cancel host speed drift;
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXE_TARGET = "./perfbench/hostbench.exe"
EXE_PATH = os.path.join("_build", "default", "perfbench", "hostbench.exe")
RT_DIR = os.path.join("_build", "perfbench-rt")
CHILD_TIMEOUT_S = 170
# Typical time of `hostbench.exe calibrate` on the 2-core host the bounds
# were set on. host_us_per_op is scaled to a host this fast.
CAL_REF_S = 0.6

# Virtual-time invariants that hold for every seed; pinned seeds are
# checked for exact equality on top of these.
INVARIANTS = {
    "storm": lambda ref, size: ref["ok"] == size and ref["domains_left"] == 2,
    "bulk": lambda ref, size: ref["flows_connected"] == 10 and ref["bytes_delivered"] > 0,
    "fleet": lambda ref, size: ref["requests_ok"] > 0,
}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a source checkout (missing %s)" % needed)
    dune = shutil.which("dune") or fail("dune not found on PATH")
    # --cache=disabled: the shared dune cache lives outside the checkout
    proc = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled", EXE_TARGET],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0 or not os.path.exists(EXE_PATH):
        sys.stderr.write(proc.stdout)
        fail("build failed")


def provenance():
    commit = "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except OSError:
        pass
    # The checkout a benchmark runs in need not be a git repository, so
    # also fingerprint the sources that make up the measured program.
    digest = hashlib.sha256()
    for top in ("lib", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".ml", ".mli")) or name == "dune":
                    path = os.path.join(root, name)
                    digest.update(path.encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "OCAMLRUNPARAM": os.environ.get("OCAMLRUNPARAM", ""),
    }


def calibrate():
    proc = subprocess.run([EXE_PATH, "calibrate"], stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)["cal_s"]


def run_once(workload, seed, size, traced, gc_events):
    """Spawn one iteration; returns (record, setup_s), or (None, None) if it crashed."""
    cmd = [
        EXE_PATH, workload, "--seed", str(seed), "--size", str(size),
        "--trace", "1" if traced else "0", "--gc-events", "1" if gc_events else "0",
    ]
    env = dict(os.environ, OCAML_RUNTIME_EVENTS_DIR=RT_DIR)
    t_spawn = time.time()
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None, None
    record = json.loads(lines[-1])
    return record, record["t_first_op"] - t_spawn


def per_op(n, ops):
    return n / ops if ops else 0.0


def end_to_end(untraced, setups, attempted, failed):
    host_us = [r["host_s"] * 1e6 / r["ops"] * CAL_REF_S / r["cal_s"] for r in untraced]
    alloc = [
        (r["minor_words"] + r["major_words"] - r["promoted_words"]) / r["ops"] for r in untraced
    ]
    heap_mb = [r["top_heap_words"] * r["word_bytes"] / 1e6 for r in untraced]
    return {
        "host_us_per_op": (statistics.median(host_us), "us"),
        "alloc_words_per_op": (statistics.median(alloc), "words"),
        "top_heap_mb": (statistics.median(heap_mb), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
        "setup_s": (statistics.median(setups), "s"),
    }


def per_layer(untraced, traced):
    """Traced records give the counts (deterministic, so any one will do);
    untraced records, run with the GC probe, give host time and GC."""
    t = traced[0]
    ops = t["ops"]
    c = t["counters"]
    m = {}
    host_s = statistics.median(r["host_s"] for r in untraced)
    dispatch = c["sim.dispatch"]
    m["engine.events_per_op"] = (per_op(dispatch, ops), "count/op")
    m["engine.host_ns_per_event"] = (per_op(host_s * 1e9, dispatch), "ns")
    m["engine.pending_max"] = (t["sim_pending_max"], "count")

    def med(f):
        return statistics.median(f(r) for r in untraced)

    m["gc.minor_words_per_op"] = (med(lambda r: r["minor_words"] / r["ops"]), "words/op")
    m["gc.promoted_words_per_op"] = (med(lambda r: r["promoted_words"] / r["ops"]), "words/op")
    m["gc.major_words_per_op"] = (med(lambda r: r["major_words"] / r["ops"]), "words/op")
    m["gc.minor_collections"] = (med(lambda r: r["minor_collections"]), "count")
    m["gc.major_collections"] = (med(lambda r: r["major_collections"]), "count")
    m["gc.pause_ms_total"] = (med(lambda r: r["gc_events"]["pause_ns_total"] / 1e6), "ms")
    m["gc.pause_ms_p99"] = (med(lambda r: r["gc_events"]["pause_ns_p99"] / 1e6), "ms")
    m["gc.share"] = (
        med(lambda r: r["gc_events"]["pause_ns_total"] / 1e9 / r["host_s"]),
        "fraction",
    )
    m["gc.events_lost"] = (max(r["gc_events"]["events_lost"] for r in untraced), "count")

    for name, counter in [
        ("hypercalls", "xen.hypercalls"),
        ("evtchn_notify", "evtchn.notify"),
        ("gnttab_map", "gnttab.map"),
        ("gnttab_copy", "gnttab.copy"),
        ("ring_req", "ring.req_pushed"),
        ("ring_rsp", "ring.rsp_pushed"),
    ]:
        m["xensim.%s_per_op" % name] = (per_op(c[counter], ops), "count/op")
    m["xensim.domains_left"] = (t["domains_left"], "domains")

    alloc, recycle = c["pktbuf.alloc"], c["pktbuf.recycle"]
    m["pktbuf.alloc_per_op"] = (per_op(alloc, ops), "count/op")
    m["pktbuf.grow_per_op"] = (per_op(c["pktbuf.grow"], ops), "count/op")
    m["pktbuf.recycle_per_alloc"] = (per_op(recycle, alloc), "fraction")
    m["pktbuf.unreturned_per_op"] = (per_op(alloc - recycle, ops), "count/op")
    m["devices.tx_doorbells_per_op"] = (per_op(c["netif.tx_doorbells"], ops), "count/op")

    for hop, d in t["dpath"].items():
        m["dpath.%s.pkts_per_op" % hop] = (per_op(d["pkts"], ops), "pkts/op")
        m["dpath.%s.alloc_b_per_pkt" % hop] = (per_op(d["alloc_b"], d["pkts"]), "B/pkt")

    m["tcp.segs_sent_per_op"] = (per_op(c["tcp.segs_sent"], ops), "count/op")
    m["tcp.rtt_samples_per_op"] = (per_op(c["tcp.rtt_samples"], ops), "count/op")
    m["tcp.retransmits_per_op"] = (per_op(c["tcp.retransmits"], ops), "count/op")

    traced_us = statistics.median(r["host_s"] * 1e6 / r["ops"] for r in traced)
    untraced_us = statistics.median(r["host_s"] * 1e6 / r["ops"] for r in untraced)
    m["trace.overhead_pct"] = ((traced_us / untraced_us - 1.0) * 100.0, "%")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(INVARIANTS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", type=int, help="workload size (default: the pinned size)")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args()

    build()
    with open(args.reference) as f:
        table = json.load(f)
    size = args.size or table["sizes"][args.workload]
    pinned = table["pinned"].get("%s/%d" % (args.workload, size), {}).get(str(args.seed))
    prov = provenance()
    os.makedirs(RT_DIR, exist_ok=True)

    # One round = one untraced iteration and, with --trace 0, one
    # calibration right after it; with --trace 1, one traced iteration
    # instead. Start another round only while it is expected to end
    # inside the budget; always run at least one.
    untraced, traced, setups = [], [], []
    attempted = failed = 0
    mismatch = []
    t_start = time.time()
    round_s = 0.0
    while not untraced or time.time() - t_start + round_s <= args.seconds:
        t_round = time.time()
        kinds = [False, True] if args.trace else [False]
        for is_traced in kinds:
            rec, setup = run_once(
                args.workload, args.seed, size, traced=is_traced,
                gc_events=bool(args.trace) and not is_traced,
            )
            if rec is None:
                mismatch.append("iteration crashed (trace=%d)" % is_traced)
                continue
            ref = rec["reference"]
            if not INVARIANTS[args.workload](ref, size):
                mismatch.append("invariant violated: %s" % json.dumps(ref))
            if pinned is not None and ref != pinned:
                mismatch.append(
                    "differs from pinned %s: %s" % (json.dumps(pinned), json.dumps(ref))
                )
            first = (untraced + traced)[:1]
            if first and ref != first[0]["reference"]:
                mismatch.append("differs between iterations: %s" % json.dumps(ref))
            if not args.trace:
                rec["cal_s"] = calibrate()
            rec.update(prov, seed=args.seed, size=size, pinned=pinned is not None, setup_s=setup)
            print(json.dumps({"record": rec}), flush=True)
            (traced if is_traced else untraced).append(rec)
            if not is_traced:
                setups.append(setup)
                attempted += rec["ops"]
                failed += rec["failed"]
        round_s = time.time() - t_round
        if mismatch or (args.trace and not traced):
            break
    shutil.rmtree(RT_DIR, ignore_errors=True)

    for m in mismatch:
        print("perfbench: reference check failed: " + m, file=sys.stderr)
    correct = not mismatch and bool(untraced)
    if not untraced:
        attempted = 1
    if not correct:
        # a run whose virtual-time outputs are wrong counts every op as failed
        failed = attempted
    metrics = {}
    if untraced and (not args.trace or traced):
        values = (
            per_layer(untraced, traced)
            if args.trace
            else end_to_end(untraced, setups, attempted, failed)
        )
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
