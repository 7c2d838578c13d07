#!/usr/bin/env python3
"""The benchmark's own tests: properties checked once, not on every run.

    python3 perfbench/test_perfbench.py      (from the repository root)

  * the map is byte-identical at 1 thread and at N threads;
  * duplicating every traceroute leaves the TSV unchanged;
  * each output checker fails when handed a deliberately wrong output:
    one border row's router_as changed (map checks), one reply byte
    flipped (text) and one BULK flag bit cleared (BULK), the last two by
    a proxy between pb_load and a live bdrmapit_serve;
  * one non-border row's router_as changed passes the map checks, and
    costs exactly one scored address of accuracy (a documented gap);
  * the audit finding run.py lets through does not hide a refinement
    stopped after one sweep.

Builds with run.py's build step and uses a small simulated Internet,
so it takes well under a minute once built.
"""

import ipaddress
import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks  # noqa: E402
import run  # noqa: E402

SMALL = ["--tier1", "4", "--transit", "10", "--regional", "16", "--stub", "60",
         "--ixps", "3", "--vps", "20", "--dual-stack", "1", "--aliases", "1"]


def cli(work, traces, out, threads):
    argv = [os.path.join(run.APPS, "bdrmapit_cli"), "--traces",
            os.path.join(work, traces)]
    for flag, f in (("--rib", "rib.txt"), ("--rels", "rels.txt"),
                    ("--delegations", "delegations.txt"), ("--ixp", "ixp.txt"),
                    ("--aliases", "aliases.nodes")):
        argv += [flag, os.path.join(work, f)]
    argv += ["--output", out + ".tsv", "--as-links", out + ".links",
             "--snapshot-out", out + ".snap", "--audit", "--threads", str(threads)]
    r = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    assert run.cli_ok(r.returncode, r.stderr.decode()), r.stderr.decode()[-500:]
    return {ext: run.read(out + ext, "rb") for ext in (".tsv", ".links", ".snap")}


class Proxy:
    """TCP forwarder that damages one byte of the server's replies on
    the n-th accepted connection: at `offset` it applies `damage`."""

    def __init__(self, upstream, conn_index, offset, damage):
        self.upstream = upstream
        self.conn_index, self.offset, self.damage = conn_index, offset, damage
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(64)
        self.port = self.sock.getsockname()[1]
        self.threads = []
        threading.Thread(target=self.accept, daemon=True).start()

    def accept(self):
        n = 0
        while True:
            try:
                client, _ = self.sock.accept()
            except OSError:
                return
            server = socket.create_connection(("127.0.0.1", self.upstream))
            for s in (client, server):
                s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            damaged = n == self.conn_index
            n += 1
            for src, dst, hurt in ((client, server, False), (server, client, damaged)):
                t = threading.Thread(target=self.pump, args=(src, dst, hurt),
                                     daemon=True)
                t.start()
                self.threads.append(t)

    def pump(self, src, dst, hurt):
        seen = 0
        try:
            while True:
                data = src.recv(65536)
                if not data:
                    break
                if hurt and seen <= self.offset < seen + len(data):
                    i = self.offset - seen
                    data = data[:i] + bytes([self.damage(data[i])]) + data[i + 1:]
                seen += len(data)
                dst.sendall(data)
        except OSError:
            pass
        for s in (src, dst):
            try:
                s.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        src.close()  # each socket is the source of exactly one pump

    def close(self):
        self.sock.close()


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()
        cls.work = tempfile.mkdtemp(prefix="perfbench-test-", dir=run.ROOT)
        subprocess.run([os.path.join(run.BUILD, "pb_gen"), "--out", cls.work,
                        "--seed", "3"] + SMALL, check=True, stderr=subprocess.DEVNULL)
        cls.ref = cli(cls.work, "traces.txt", os.path.join(cls.work, "ref"), 4)
        cls.rows = checks.parse_tsv(cls.ref[".tsv"].decode())
        cls.alias_sets = checks.parse_alias_sets(
            run.read(os.path.join(cls.work, "aliases.nodes")))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    # ---- properties of the program ---------------------------------------

    def test_one_thread_and_many_give_identical_maps(self):
        one = cli(self.work, "traces.txt", os.path.join(self.work, "t1"), 1)
        self.assertEqual(one, self.ref)

    def test_duplicated_traceroutes_leave_the_tsv_unchanged(self):
        lines = run.read(os.path.join(self.work, "traces.txt")).splitlines(True)
        with open(os.path.join(self.work, "dup.txt"), "w") as f:
            for ln in lines:
                f.write(ln * 2 if ln.startswith("T|") else ln)
        dup = cli(self.work, "dup.txt", os.path.join(self.work, "dup"), 4)
        self.assertEqual(dup[".tsv"], self.ref[".tsv"])

    # ---- the map checks --------------------------------------------------------

    def test_map_checks_pass_on_the_real_output(self):
        hops = checks.corpus_hop_addresses(run.read(os.path.join(self.work,
                                                                 "traces.txt")))
        self.assertEqual(checks.check_tsv_addresses(self.rows, hops), [])
        self.assertEqual(checks.check_as_links(self.rows,
                                               self.ref[".links"].decode()), [])
        truth = checks.parse_truth(run.read(os.path.join(self.work,
                                                         "ground_truth.tsv")))
        self.assertGreater(checks.router_as_accuracy(self.rows, truth), 0.85)

    def test_map_checks_catch_one_border_router_as_changed(self):
        border = next(i for i, r in enumerate(self.rows) if "B" in r[3])
        addr, router_as, conn_as, flags = self.rows[border]
        wrong = list(self.rows)
        wrong[border] = (addr, router_as + 100000, conn_as, flags)
        self.assertNotEqual(checks.check_as_links(wrong, self.ref[".links"].decode()),
                            [])

    def test_one_non_border_router_as_changed_passes_within_the_floor(self):
        # No check made apart from the program knows a non-border row's
        # owner except the ground truth, and that only through the
        # accuracy floor: one wrong owner costs one scored address, far
        # less than the floor's margin (README, "What the checks miss").
        truth = checks.parse_truth(run.read(os.path.join(self.work,
                                                         "ground_truth.tsv")))
        i = next(i for i, r in enumerate(self.rows) if "B" not in r[3]
                 and truth.get(ipaddress.ip_address(r[0])) == r[1])
        addr, router_as, conn_as, flags = self.rows[i]
        wrong = list(self.rows)
        wrong[i] = (addr, router_as + 100000, conn_as, flags)
        self.assertEqual(checks.check_as_links(wrong, self.ref[".links"].decode()),
                         [])
        scored = sum(ipaddress.ip_address(r[0]) in truth for r in self.rows)
        self.assertAlmostEqual(checks.router_as_accuracy(self.rows, truth)
                               - checks.router_as_accuracy(wrong, truth), 1 / scored)

    def test_audit_exemption_does_not_hide_an_unconverged_refinement(self):
        # One refinement sweep leaves far more than KNOWN_FINDING_MAX
        # annotations that one more sweep moves: the exit is not let through.
        argv = [os.path.join(run.APPS, "bdrmapit_cli")]
        argv += run.input_args("map-large", self.work, "traces.txt")
        argv += ["--output", os.path.join(self.work, "short.tsv"),
                 "--audit", "--threads", "4", "--max-iterations", "1"]
        r = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        err = r.stderr.decode()
        self.assertEqual(r.returncode, 2)
        self.assertGreater(err.count(run.KNOWN_FINDING), run.KNOWN_FINDING_MAX)
        self.assertFalse(run.cli_ok(r.returncode, err))

    def test_map_checks_catch_a_missing_and_a_private_address(self):
        hops = checks.corpus_hop_addresses(run.read(os.path.join(self.work,
                                                                 "traces.txt")))
        self.assertNotEqual(checks.check_tsv_addresses(self.rows[1:], hops), [])
        private = self.rows + [("10.1.2.3", 1, 1, "-")]
        self.assertNotEqual(checks.check_tsv_addresses(private, hops | {"10.1.2.3"}),
                            [])

    def test_accuracy_check_catches_wrong_owners(self):
        truth = checks.parse_truth(run.read(os.path.join(self.work,
                                                         "ground_truth.tsv")))
        wrong = [(a, r + 1, c, f) for a, r, c, f in self.rows]
        self.assertLess(checks.router_as_accuracy(wrong, truth), 0.05)

    # ---- the serve checks, through a damaging proxy -------------------------

    def serve_and_load(self, conn_index=None, offset=0, damage=None):
        work = self.work
        checks.write_text_mix(os.path.join(work, "text.q"), checks.text_mix(
            self.rows, checks.parse_as_links(self.ref[".links"].decode()),
            self.alias_sets, 5, n=2000))
        # Every BULK address is in the map, so any record's found bit is set.
        bulk = [b for b in checks.bulk_mix(self.rows, self.alias_sets, 5, n=8192)
                if b[4] is not None]
        checks.write_bulk_mix(os.path.join(work, "bulk.q"), bulk)
        shutil.copyfile(os.path.join(work, "ref.snap"),
                        os.path.join(work, "reload.snap"))
        first = self.rows[0]
        probe = (("IFACE %s\n" % first[0]).encode(),
                 ("%s\t%d\t%d\t%s\n" % first).encode())
        tally = run.Tally()
        p, port, _ = run.start_server(os.path.join(work, "ref.snap"), [0], probe,
                                      tally)
        proxy = Proxy(port, conn_index, offset, damage) if damage else None
        try:
            r = subprocess.run(
                [os.path.join(run.BUILD, "pb_load"), "--port",
                 str(proxy.port if proxy else port),
                 "--text", os.path.join(work, "text.q"),
                 "--bulk", os.path.join(work, "bulk.q"),
                 "--reload-path", os.path.join(work, "reload.snap"),
                 "--conns", "1", "--text-seconds", "0.3", "--open-seconds", "0.3",
                 "--open-rate", "2000", "--bulk-seconds", "0.5", "--batch", "512",
                 "--reloads", "2"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                timeout=120)
        finally:
            run.stop_server(p)
            if proxy:
                proxy.close()
        self.assertEqual(tally.failed, 0)
        self.assertEqual(r.returncode, 0, r.stderr.decode())
        return json.loads(r.stdout.decode().strip().splitlines()[-1])

    def test_serve_checks_pass_on_the_real_server(self):
        rep = self.serve_and_load()
        self.assertEqual((rep["text"]["bad"], rep["open"]["bad"], rep["bulk"]["bad"],
                          rep["bulk"]["partition_bad"], rep["reload"]["bad"]),
                         (0, 0, 0, 0, 0))
        self.assertGreater(rep["text"]["ok"], 0)
        self.assertEqual(rep["after"]["requests"], rep["sent"]["lines"] + 1)
        self.assertEqual(rep["after"]["bulk_addrs"], rep["sent"]["bulk_addrs"])

    def test_text_check_catches_one_reply_byte_flipped(self):
        # Connection 1 is the first closed-loop text connection (0 is
        # the control connection); flip one byte of its replies.
        rep = self.serve_and_load(1, 300, lambda b: b ^ 0x01)
        self.assertGreater(rep["text"]["bad"], 0)
        self.assertEqual(rep["bulk"]["bad"], 0)

    def test_bulk_check_catches_one_flag_bit_cleared(self):
        # Connections: control, warm-up text, text, open loop, then BULK.
        # Byte 8 + 12 is the flags byte of the first record.
        rep = self.serve_and_load(4, 20, lambda b: b & ~0x01)
        self.assertEqual(rep["text"]["bad"], 0)
        self.assertGreater(rep["bulk"]["bad"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
