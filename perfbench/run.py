#!/usr/bin/env python3
"""bdrmapIT benchmark: corpus-to-audited-map time and served-query rate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One run:

  1. builds bdrmapit_cli, bdrmapit_serve and the benchmark's own tools
     (perfbench/src) in Release under .bench_build/ (first run only);
  2. generates the workload's inputs from the repository's simulator
     with the seed (pb_gen), under .bench_work/;
  3. --trace 0: runs `bdrmapit_cli --audit` once untimed and checks
     its outputs, cold-starts `bdrmapit_serve --listen` on the map it
     wrote, then in eight rounds times a few CLI invocations and
     drives the server over loopback with pb_load (closed-loop text,
     open-loop text with hot RELOADs beside it, BULK frames), so
     every figure samples the whole run; each timing reported is the
     best decile of the run's samples (see best());
     --trace 1: runs the traced harness (pb_trace) for per-layer
     times, then the same served rounds for the network figures;
  4. checks every output against computations made apart from the
     program (checks.py, pb_load) and counts failed operations;
  5. prints one JSON object as the last line of stdout.

The per-layer table of a traced run is also written to
.bench_results/<workload>-seed<N>-layers.tsv with its spans. See
perfbench/README.md for the workloads, metrics and figures.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

T_START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import checks  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_work")
RESULTS = os.path.join(ROOT, ".bench_results")
APPS = os.path.join(BUILD, "bdrmapit", "apps")

LARGE = ["--tier1", "10", "--transit", "80", "--regional", "200",
         "--stub", "1000", "--ixps", "16"]

# Each workload: simulator settings, corpus file and the router_as
# accuracy floor (the lowest accuracy measured over a dozen seeds, 0.990
# and 0.982, less 0.02).
WORKLOADS = {
    "map-large": {
        "gen": LARGE + ["--vps", "100", "--aliases", "1", "--traces", "380000"],
        "corpus": "traces.txt", "aliases": True, "floor": 0.97,
    },
    "map-json-v6": {
        "gen": ["--vps", "60", "--dual-stack", "1", "--json", "1",
                "--traces", "240000"],
        "corpus": "traces.json", "aliases": False, "floor": 0.96,
    },
}

END_TO_END = [("map_s", "s"), ("map_cpu_s", "s"), ("map_peak_rss_mb", "MB"),
              ("setup_s", "s"), ("text_qps", "1/s"), ("text_p50_us", "us"),
              ("bulk_addrs_per_s", "1/s"),
              ("reload_s", "s"), ("serve_rss_mb", "MB")]


def log(msg):
    print("[perfbench %6.1fs] %s" % (time.perf_counter() - T_START, msg),
          file=sys.stderr, flush=True)


class Tally:
    """Operations attempted and failed; each failure is logged."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, ok, what="", n=1, bad=None):
        self.attempted += n
        nbad = (0 if ok else n) if bad is None else bad
        self.failed += nbad
        if nbad:
            log("FAILED: %s" % what)


# ---- build -------------------------------------------------------------

def build():
    if not os.path.isdir(os.path.join(ROOT, "src")) or \
            not os.path.isdir(os.path.join(ROOT, "apps")):
        sys.exit("perfbench: run from a checkout of the repository root "
                 "(src/ and apps/ are missing)")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "bdrmapit_cli", "bdrmapit_serve", "pb_gen", "pb_load",
                    "pb_trace"], check=True, stdout=sys.stderr)


# ---- helpers -------------------------------------------------------------

def cpus():
    """Own CPUs, split for the server's loops and the load client."""
    mine = sorted(os.sched_getaffinity(0))
    if len(mine) < 2:
        return mine, mine, mine
    half = len(mine) // 2
    return mine, mine[:half], mine[half:]


def pinned(cpu_list):
    return lambda: os.sched_setaffinity(0, cpu_list)


def timed_run(argv, cpu_list):
    """Runs argv; returns (exit code, wall s, user+sys CPU s, peak RSS MB,
    stderr text)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, preexec_fn=pinned(cpu_list))
    err = p.stderr.read()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return (p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0,
            err.decode(errors="replace"))


# The one audit finding this benchmark does not count as a failure: on
# about one seed in six the §6 refinement stops on a repeated state that
# one more sweep still moves, and `--audit` exits 2 with 2 to 5 of these
# lines (CHANGES.md, FOUND). It depends on the seed, so it cannot be
# counted the same way in every run. It is let through only in that
# shape: nothing but these lines, and at most KNOWN_FINDING_MAX of them
# (twice the most seen over 48 seeds), so a refinement that stops short
# of convergence, which moves hundreds of annotations, still fails.
KNOWN_FINDING = "audit violation [refined] refine.fixed-point:"
KNOWN_FINDING_MAX = 10


def cli_ok(rc, err):
    if rc == 0:
        return True
    found = [ln for ln in err.splitlines() if ln.startswith("audit violation")]
    ok = (rc == 2 and 0 < len(found) <= KNOWN_FINDING_MAX
          and all(ln.startswith(KNOWN_FINDING) for ln in found))
    log("bdrmapit_cli exited %d%s: %s"
        % (rc, " (known finding, %d moves, not counted)" % len(found) if ok else "",
           err[-400:]))
    return ok


def read(path, mode="r"):
    with open(path, mode) as f:
        return f.read()


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def median(xs):
    return statistics.median(xs) if xs else 0.0


# ---- inputs and the map -------------------------------------------------

def generate(name, seed, work):
    w = WORKLOADS[name]
    subprocess.run([os.path.join(BUILD, "pb_gen"), "--out", work, "--seed",
                    str(seed)] + w["gen"], check=True, stderr=subprocess.DEVNULL)
    # Written back before timing starts, so write-back of the fresh
    # corpus does not land inside a timed invocation.
    for f in os.listdir(work):
        fd = os.open(os.path.join(work, f), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def input_args(name, work, corpus):
    argv = ["--traces", os.path.join(work, corpus)]
    for flag, f in (("--rib", "rib.txt"), ("--rels", "rels.txt"),
                    ("--delegations", "delegations.txt"), ("--ixp", "ixp.txt")):
        argv += [flag, os.path.join(work, f)]
    if WORKLOADS[name]["aliases"]:
        argv += ["--aliases", os.path.join(work, "aliases.nodes")]
    return argv


def cli_argv(name, work, corpus, out, threads):
    return ([os.path.join(APPS, "bdrmapit_cli")] + input_args(name, work, corpus)
            + ["--output", out + ".tsv", "--as-links", out + ".links",
               "--snapshot-out", out + ".snap", "--audit",
               "--threads", str(threads)])


def check_map(name, work, out, tally):
    """Independent checks of one CLI output set (out.tsv/.links/.snap)."""
    rows = checks.parse_tsv(read(out + ".tsv"))
    hops = checks.corpus_hop_addresses(read(os.path.join(work, "traces.txt")))
    problems = checks.check_tsv_addresses(rows, hops)
    tally.op(not problems, "TSV address set: %s" % problems)
    acc = checks.router_as_accuracy(
        rows, checks.parse_truth(read(os.path.join(work, "ground_truth.tsv"))))
    floor = WORKLOADS[name]["floor"]
    tally.op(acc >= floor, "router_as accuracy %.4f below %.2f" % (acc, floor))
    problems = checks.check_as_links(rows, read(out + ".links"))
    tally.op(not problems, "AS links: %s" % problems)
    log("map: %d addresses, router_as accuracy %.4f" % (len(rows), acc))
    return rows


def first_map(name, work, all_cpus, tally):
    """The untimed CLI invocation whose outputs are checked in full.
    Returns (TSV rows, reference output bytes), or None."""
    corpus = WORKLOADS[name]["corpus"]
    out = os.path.join(work, "map")
    rc, _, _, _, err = timed_run(cli_argv(name, work, corpus, out, len(all_cpus)),
                                 all_cpus)
    ok = cli_ok(rc, err)
    tally.op(ok, "bdrmapit_cli --audit exit %d" % rc)
    if not ok:
        return None
    rows = check_map(name, work, out, tally)
    ref = {ext: read(out + ext, "rb") for ext in (".tsv", ".links", ".snap")}
    if corpus != "traces.txt":
        # Two parsers read the same traceroutes: same map, same bytes.
        native = os.path.join(work, "native")
        rc, _, _, _, err = timed_run(cli_argv(name, work, "traces.txt", native,
                                              len(all_cpus)), all_cpus)
        same = cli_ok(rc, err) and all(read(native + ext, "rb") == ref[ext]
                                       for ext in (".tsv", ".snap"))
        tally.op(same, "JSON and native corpora give different maps")
    return rows, ref


def timed_maps(name, work, all_cpus, n, ref, tally, acc):
    """`n` timed CLI invocations, each output equal to the checked one;
    wall, CPU and peak RSS appended to acc."""
    out = os.path.join(work, "timed")
    for _ in range(n):
        rc, wall, cpu, rss, err = timed_run(
            cli_argv(name, work, WORKLOADS[name]["corpus"], out, len(all_cpus)),
            all_cpus)
        same = cli_ok(rc, err) and all(read(out + ext, "rb") == ref[ext]
                                       for ext in ref)
        tally.op(same, "CLI invocation differs from the checked one")
        acc["map_s"].append(wall)
        acc["map_cpu_s"].append(cpu)
        acc["map_peak_rss_mb"].append(rss)


# ---- serving -----------------------------------------------------------------

def write_mixes(name, work, rows, seed):
    links = checks.parse_as_links(read(os.path.join(work, "map.links")))
    alias_sets = checks.parse_alias_sets(
        read(os.path.join(work, "aliases.nodes"))) if WORKLOADS[name]["aliases"] else []
    text = checks.text_mix(rows, links, alias_sets, seed)
    checks.write_text_mix(os.path.join(work, "text.q"), text)
    checks.write_bulk_mix(os.path.join(work, "bulk.q"),
                          checks.bulk_mix(rows, alias_sets, seed))
    return text


def start_server(snap, server_cpus, probe, tally):
    """Launches bdrmapit_serve --listen; returns (process, port, seconds
    from launch to the first correct reply)."""
    for _ in range(3):
        p, port, setup, reply = launch(snap, server_cpus, probe)
        if p.returncode != 3:  # 3: the free port was taken meanwhile
            break
    tally.op(reply == probe[1], "server start: probe reply %r" % reply[:80])
    return p, port, setup


def launch(snap, server_cpus, probe):
    port = free_port()
    t0 = time.perf_counter()
    p = subprocess.Popen(
        [os.path.join(APPS, "bdrmapit_serve"), "--snapshot", snap, "--listen",
         "127.0.0.1:%d" % port, "--threads", str(len(server_cpus)), "--quiet"],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        preexec_fn=pinned(server_cpus))
    req, want = probe
    reply = b""
    while time.perf_counter() - t0 < 60 and p.poll() is None:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
                s.sendall(req)
                while len(reply) < len(want):
                    chunk = s.recv(65536)
                    if not chunk:
                        break
                    reply += chunk
            break
        except ConnectionRefusedError:
            time.sleep(0.0002)
    return p, port, time.perf_counter() - t0, reply


def stop_server(p):
    if p.poll() is None:
        p.send_signal(signal.SIGTERM)
        try:
            p.wait(timeout=20)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
    return p.returncode


def rss_mb(pid):
    for line in read("/proc/%d/status" % pid).splitlines():
        if line.startswith("VmRSS:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


class Server:
    """One bdrmapit_serve --listen process over the run's map, driven by
    pb_load in rounds. Every round's replies and NETSTATS are checked."""

    def __init__(self, work, rows, server_cpus, client_cpus, tally):
        self.work, self.client_cpus, self.tally = work, client_cpus, tally
        snap = os.path.join(work, "map.snap")
        shutil.copyfile(snap, os.path.join(work, "reload.snap"))
        first = rows[0]
        probe = (("IFACE %s\n" % first[0]).encode(),
                 ("%s\t%d\t%d\t%s\n" % first).encode())
        self.p, self.port, self.setup_s = start_server(snap, server_cpus, probe,
                                                       tally)
        self.rss_mb = rss_mb(self.p.pid) if self.p.poll() is None else 0.0
        # The server's counts so far: the start-up probe.
        self.lines, self.bulk_addrs, self.generation = 1, 0, 1
        self.first = self.last = None  # NETSTATS before the first round, after the last

    def round(self, seconds, reloads):
        """One pb_load run: text closed loop, open loop + reloads, BULK,
        `seconds` each. Returns the round's samples, or None if it could
        not run."""
        if self.p.poll() is not None:
            self.tally.op(False, "bdrmapit_serve exited %s" % self.p.returncode)
            return None
        work = self.work
        argv = [os.path.join(BUILD, "pb_load"), "--port", str(self.port),
                "--text", os.path.join(work, "text.q"),
                "--bulk", os.path.join(work, "bulk.q"),
                "--reload-path", os.path.join(work, "reload.snap"),
                "--conns", str(max(1, len(self.client_cpus))),
                "--text-seconds", str(seconds),
                "--open-seconds", str(seconds), "--open-rate", "20000",
                "--bulk-seconds", str(seconds), "--batch", "4096",
                "--reloads", str(reloads),
                "--cpus", ",".join(map(str, self.client_cpus))]
        r = subprocess.run(argv, stdout=subprocess.PIPE, timeout=150)
        self.tally.op(r.returncode == 0, "pb_load exited %d" % r.returncode)
        if r.returncode != 0:
            return None
        rep = json.loads(r.stdout.decode().strip().splitlines()[-1])
        text, opn, bulk, rel = rep["text"], rep["open"], rep["bulk"], rep["reload"]
        tally = self.tally
        tally.op(True, n=text["ok"] + text["bad"], bad=text["bad"],
                 what="%d closed-loop text replies wrong" % text["bad"])
        tally.op(True, n=opn["n"] + opn["bad"], bad=opn["bad"],
                 what="%d open-loop text replies wrong" % opn["bad"])
        tally.op(True, n=bulk["addrs"], bad=bulk["bad"],
                 what="%d BULK records wrong" % bulk["bad"])
        tally.op(bulk["partition_bad"] == 0, "BULK router_id partition differs "
                 "from the alias sets")
        tally.op(True, n=rel["ok"] + rel["bad"], bad=rel["bad"],
                 what="%d reloads failed" % rel["bad"])
        self.lines += rep["sent"]["lines"]
        self.bulk_addrs += rep["sent"]["bulk_addrs"]
        self.generation += rel["ok"]
        after = rep["after"]
        tally.op(rep["netstats_ok"]
                 and after["requests"] == self.lines
                 and after["bulk_addrs"] == self.bulk_addrs
                 and after["reload_failed"] == 0
                 and after["generation"] == self.generation,
                 "NETSTATS %s disagrees with the client's totals (%d lines, %d "
                 "BULK addresses, generation %d)"
                 % (after, self.lines, self.bulk_addrs, self.generation))
        self.first = self.first or rep["before"]
        self.last = after
        log("serve: text q/s %s, open-loop p50 %.1f us, BULK addrs/s %s, "
            "reload %.4f s" % (" ".join("%.0f" % x for x in text["rates"]),
                               opn["p50_us"],
                               " ".join("%.0f" % x for x in bulk["rates"]),
                               median(rel["seconds"])))
        return {"text_rates": text["rates"], "bulk_rates": bulk["rates"],
                "reloads": rel["seconds"], "p50": [opn["p50_us"]],
                "lateness": [opn["lateness_p50_us"]]}

    def stop(self):
        rc = stop_server(self.p)
        self.tally.op(rc == 0, "bdrmapit_serve exited %s after SIGTERM" % rc)


# ---- the runs -----------------------------------------------------------------

# Rounds per run, and timed CLI invocations before each round's served
# phases. Every round is checked in full.
ROUNDS = 8
CLI_PER_ROUND = 2


def best(xs, higher=False):
    """The best decile of a run's samples: the 10th percentile of
    times, the 90th of rates. On a shared host other guests only ever
    slow a sample down (single rounds lost up to a third of their CPU
    time, and whole minutes ran 20% slow without steal), so the fast end
    of the samples measures the program and the slow end its
    neighbours."""
    deciles = statistics.quantiles(xs, n=10, method="inclusive")
    return deciles[-1] if higher else deciles[0]


def serve_rounds(server, seconds, between=None):
    """The served phases in ROUNDS rounds, `between(samples)` (the timed
    CLI invocations) before each, so every figure samples the whole run.
    Returns every round's samples pooled, or None."""
    phase = max(0.25, seconds / 6.0 / ROUNDS)
    pooled = {"map_s": [], "map_cpu_s": [], "map_peak_rss_mb": []}
    for _ in range(ROUNDS):
        if between:
            between(pooled)
        got = server.round(phase, 16)
        if got is None:
            return None
        for k, v in got.items():
            pooled.setdefault(k, []).extend(v)
    return pooled


def run_plain(name, seed, seconds, work, tally):
    all_cpus, server_cpus, client_cpus = cpus()
    first = first_map(name, work, all_cpus, tally)
    if first is None:
        return None
    rows, ref = first
    write_mixes(name, work, rows, seed)
    # The first invocations after the checks run slow; one more untimed.
    timed_maps(name, work, all_cpus, 1, ref, tally,
               {"map_s": [], "map_cpu_s": [], "map_peak_rss_mb": []})
    server = Server(work, rows, server_cpus, client_cpus, tally)
    try:
        s = serve_rounds(server, seconds, lambda acc: timed_maps(
            name, work, all_cpus, CLI_PER_ROUND, ref, tally, acc))
    finally:
        server.stop()
    if s is None:
        return None
    log("map: wall %s" % " ".join("%.3f" % w for w in s["map_s"]))
    m = {"map_s": best(s["map_s"]), "map_cpu_s": best(s["map_cpu_s"]),
         "map_peak_rss_mb": median(s["map_peak_rss_mb"]),
         "setup_s": server.setup_s, "serve_rss_mb": server.rss_mb,
         "text_qps": best(s["text_rates"], higher=True),
         "text_p50_us": best(s["p50"]),
         "bulk_addrs_per_s": best(s["bulk_rates"], higher=True),
         "reload_s": best(s["reloads"])}
    return {k: {"value": m[k], "unit": u} for k, u in END_TO_END}


PER_LAYER = [
    ("tracedata.read_ms", "ms"), ("tracedata.read_serial_ms", "ms"),
    ("tracedata.traces", "count"), ("tracedata.hops", "count"),
    ("tracedata.alias_read_ms", "ms"),
    ("bgp.rib_read_ms", "ms"), ("bgp.ip2as_build_ms", "ms"), ("asrel.load_ms", "ms"),
    ("graph.build_ms", "ms"), ("graph.build_serial_ms", "ms"),
    ("graph.interfaces", "count"), ("graph.irs", "count"), ("graph.links", "count"),
    ("core.annotate_ms", "ms"), ("core.annotate_serial_ms", "ms"),
    ("core.iterations", "count"),
    ("audit.all_ms", "ms"), ("audit.all_serial_ms", "ms"),
    ("serve.snapshot_build_ms", "ms"), ("serve.snapshot_write_ms", "ms"),
    ("serve.snapshot_bytes", "bytes"),
    ("serve.snapshot_load_ms", "ms"), ("serve.validate_ms", "ms"),
    ("serve.index_ms", "ms"), ("serve.publish_us", "us"),
    ("serve.acquire_ns", "ns"),
    ("serve.line_ns.IFACE", "ns"), ("serve.line_ns.IFACE-miss", "ns"),
    ("serve.line_ns.PREFIX", "ns"), ("serve.line_ns.ROUTER", "ns"),
    ("serve.line_ns.LINKS", "ns"), ("serve.line_ns.COUNT", "ns"),
    ("serve.bulk_ns_per_addr", "ns"),
    ("net.text_overhead_us", "us"), ("net.requests", "count"),
    ("net.bulk_addrs", "count"), ("net.bytes_out", "bytes"),
    ("client.lateness_us", "us"),
]


def run_traced(name, seed, seconds, work, tally):
    all_cpus, server_cpus, client_cpus = cpus()
    map_out = os.path.join(work, "map")
    first = first_map(name, work, all_cpus, tally)
    if first is None:
        return None
    rows, ref = first
    # Warm CLI invocations, to set their wall time beside the traced
    # pipeline's.
    acc = {"map_s": [], "map_cpu_s": [], "map_peak_rss_mb": []}
    timed_maps(name, work, all_cpus, 3, ref, tally, acc)
    cli_wall = median(acc["map_s"])
    write_mixes(name, work, rows, seed)
    argv = [os.path.join(BUILD, "pb_trace"), "--work", work,
            "--threads", str(len(all_cpus)),
            "--serve-threads", str(len(server_cpus)),
            "--text", os.path.join(work, "text.q"),
            "--bulk", os.path.join(work, "bulk.q")]
    argv += input_args(name, work, WORKLOADS[name]["corpus"])
    r = subprocess.run(argv, stdout=subprocess.PIPE, timeout=150,
                       preexec_fn=pinned(all_cpus))
    tally.op(r.returncode == 0, "pb_trace exited %d" % r.returncode)
    if r.returncode != 0:
        return None
    tr = json.loads(r.stdout.decode().strip().splitlines()[-1])
    tally.op(True, n=tr["attempted"], bad=tr["failed"],
             what="%d traced operations failed" % tr["failed"])
    # Both runs must measure the same program.
    tally.op(read(os.path.join(work, "trace.tsv"), "rb")
             == read(map_out + ".tsv", "rb"),
             "traced harness TSV differs from bdrmapit_cli's")
    server = Server(work, rows, server_cpus, client_cpus, tally)
    try:
        s = serve_rounds(server, seconds)
    finally:
        server.stop()
    if s is None:
        return None
    f = tr["figures"]
    f["net.text_overhead_us"] = best(s["p50"]) - f["serve.line_ns.mix"] / 1e3
    for key in ("requests", "bulk_addrs", "bytes_out"):
        f["net." + key] = server.last[key] - server.first[key]
    f["client.lateness_us"] = median(s["lateness"])
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s-seed%d" % (name, seed))
    with open(stem + "-layers.tsv", "w") as out:
        out.write("# metric\tvalue\tunit\n")
        for k, u in PER_LAYER:
            out.write("%s\t%.6g\t%s\n" % (k, f[k], u))
        # What tracing costs: one span's open and close, and the traced
        # N-thread pipeline beside the untraced CLI's wall.
        out.write("# trace.span_cost_ns\t%.6g\n" % f["trace.span_cost_ns"])
        out.write("# trace.pipeline_ms\t%.6g\tcli_ms\t%.6g\n"
                  % (f["trace.pipeline_ms"], 1e3 * cli_wall))
    shutil.copyfile(os.path.join(work, "spans.tsv"), stem + "-spans.tsv")
    return {k: {"value": f[k], "unit": u} for k, u in PER_LAYER}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A stopped run still stops its server and removes its inputs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    os.chdir(ROOT)
    build()
    work = os.path.join(WORK, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                      args.trace))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    generate(args.workload, args.seed, work)
    log("inputs ready in %s" % work)
    tally = Tally()
    try:
        run = run_traced if args.trace else run_plain
        metrics = run(args.workload, args.seed, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if metrics is None:
        sys.exit("perfbench: the run did not complete")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
