// Tests for the serving layer: snapshot serialization round-trips,
// corrupt/truncated files are rejected with a diagnostic, and the
// AnnotationStore answers every query consistently with the Result it
// was built from.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "eval/experiment.hpp"
#include "serve/store.hpp"

namespace {

struct Run {
  eval::Scenario scenario;
  core::Result result;
};

Run run_small(std::uint64_t seed, std::size_t vps = 12) {
  eval::Scenario s = eval::make_scenario(topo::small_params(), vps, true, seed);
  core::Result r =
      core::Bdrmapit::run(s.corpus, eval::midar_aliases(s), s.ip2as, s.rels);
  return Run{std::move(s), std::move(r)};
}

std::string serialize(const serve::Snapshot& snap) {
  std::ostringstream out;
  serve::write_snapshot(out, snap);
  return out.str();
}

serve::Snapshot must_load(const std::string& bytes) {
  std::istringstream in(bytes);
  serve::Snapshot snap;
  std::string error;
  EXPECT_TRUE(serve::load_snapshot(in, &snap, &error)) << error;
  return snap;
}

bool load_fails(const std::string& bytes, std::string* error = nullptr) {
  std::istringstream in(bytes);
  serve::Snapshot snap;
  std::string err;
  const bool ok = serve::load_snapshot(in, &snap, &err);
  if (error) *error = err;
  return !ok;
}

}  // namespace

TEST(Crc32, KnownVector) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(serve::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(serve::crc32("", 0), 0u);
}

TEST(Snapshot, RoundTripIsLossless) {
  auto run = run_small(5);
  const serve::Snapshot snap = serve::snapshot_from_result(run.result);
  ASSERT_EQ(snap.interfaces.size(), run.result.interfaces.size());

  const serve::Snapshot back = must_load(serialize(snap));
  EXPECT_EQ(back.iterations, snap.iterations);
  EXPECT_EQ(back.router_count, snap.router_count);
  ASSERT_EQ(back.iteration_stats.size(), snap.iteration_stats.size());
  for (std::size_t i = 0; i < snap.iteration_stats.size(); ++i) {
    EXPECT_EQ(back.iteration_stats[i].changed_irs,
              snap.iteration_stats[i].changed_irs);
    EXPECT_EQ(back.iteration_stats[i].changed_ifaces,
              snap.iteration_stats[i].changed_ifaces);
  }
  ASSERT_EQ(back.interfaces.size(), snap.interfaces.size());
  for (std::size_t i = 0; i < snap.interfaces.size(); ++i) {
    EXPECT_EQ(back.interfaces[i].addr, snap.interfaces[i].addr);
    EXPECT_EQ(back.interfaces[i].router_id, snap.interfaces[i].router_id);
    EXPECT_EQ(back.interfaces[i].inf.router_as, snap.interfaces[i].inf.router_as);
    EXPECT_EQ(back.interfaces[i].inf.conn_as, snap.interfaces[i].inf.conn_as);
    EXPECT_EQ(back.interfaces[i].inf.ixp, snap.interfaces[i].inf.ixp);
    EXPECT_EQ(back.interfaces[i].inf.seen_non_echo,
              snap.interfaces[i].inf.seen_non_echo);
    EXPECT_EQ(back.interfaces[i].inf.seen_mid_path,
              snap.interfaces[i].inf.seen_mid_path);
  }
  EXPECT_EQ(back.as_links, snap.as_links);
}

TEST(Snapshot, SerializationIsDeterministic) {
  auto a = run_small(9);
  auto b = run_small(9);
  EXPECT_EQ(serialize(serve::snapshot_from_result(a.result)),
            serialize(serve::snapshot_from_result(b.result)));
}

TEST(Snapshot, AsLinksOrderingStableAcrossRuns) {
  // Result::as_links() feeds the snapshot; its ordering (and therefore
  // the snapshot bytes and every LINKS reply) must not depend on
  // unordered_map iteration order.
  auto a = run_small(13);
  auto b = run_small(13);
  const auto la = a.result.as_links();
  const auto lb = b.result.as_links();
  ASSERT_EQ(la, lb);
  EXPECT_TRUE(std::is_sorted(la.begin(), la.end()));
  for (const auto& [x, y] : la) EXPECT_LT(x, y);
}

TEST(Snapshot, RejectsGarbageAndShortFiles) {
  std::string error;
  EXPECT_TRUE(load_fails("", &error));
  EXPECT_NE(error.find("too small"), std::string::npos) << error;
  EXPECT_TRUE(load_fails("BMIS", &error));  // header cut off
  EXPECT_TRUE(load_fails("this is not a snapshot at all", &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(Snapshot, RejectsTruncation) {
  auto run = run_small(5);
  const std::string bytes = serialize(serve::snapshot_from_result(run.result));
  // Every strict prefix must fail — header checks catch most, payload
  // bounds checks the rest. Sample a spread of cut points.
  for (std::size_t keep : {std::size_t{1}, std::size_t{10}, std::size_t{19},
                           std::size_t{20}, bytes.size() / 2, bytes.size() - 1}) {
    ASSERT_LT(keep, bytes.size());
    EXPECT_TRUE(load_fails(bytes.substr(0, keep))) << "kept " << keep;
  }
}

TEST(Snapshot, RejectsTrailingGarbage) {
  auto run = run_small(5);
  std::string bytes = serialize(serve::snapshot_from_result(run.result));
  bytes += "extra";
  std::string error;
  EXPECT_TRUE(load_fails(bytes, &error));
  EXPECT_NE(error.find("size mismatch"), std::string::npos) << error;
}

TEST(Snapshot, RejectsBitFlips) {
  auto run = run_small(5);
  const std::string good = serialize(serve::snapshot_from_result(run.result));
  // Flip one byte at a spread of offsets across the payload; the CRC
  // must catch every one.
  for (std::size_t off = 20; off < good.size(); off += good.size() / 37 + 1) {
    std::string bad = good;
    bad[off] = static_cast<char>(bad[off] ^ 0x40);
    EXPECT_TRUE(load_fails(bad)) << "flip at " << off;
  }
}

TEST(Snapshot, RejectsUnsupportedVersion) {
  auto run = run_small(5);
  std::string bytes = serialize(serve::snapshot_from_result(run.result));
  bytes[4] = 'c';  // version lives at offset 4, little-endian
  std::string error;
  EXPECT_TRUE(load_fails(bytes, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(Store, AnswersMatchResult) {
  auto run = run_small(7);
  const serve::AnnotationStore store(
      must_load(serialize(serve::snapshot_from_result(run.result))));
  ASSERT_EQ(store.stats().interfaces, run.result.interfaces.size());
  for (const auto& [addr, inf] : run.result.interfaces) {
    const auto* rec = store.find(addr);
    ASSERT_NE(rec, nullptr) << addr.to_string();
    EXPECT_EQ(rec->inf.router_as, inf.router_as);
    EXPECT_EQ(rec->inf.conn_as, inf.conn_as);
    EXPECT_EQ(rec->inf.ixp, inf.ixp);
    EXPECT_EQ(rec->inf.flags(), inf.flags());
  }
  EXPECT_EQ(store.find(netbase::IPAddr::must_parse("255.255.255.254")), nullptr);
}

TEST(Store, BatchedEqualsSingles) {
  auto run = run_small(7);
  const serve::AnnotationStore store(
      must_load(serialize(serve::snapshot_from_result(run.result))));
  std::vector<netbase::IPAddr> addrs;
  for (const auto& rec : store.snapshot().interfaces) addrs.push_back(rec.addr);
  addrs.push_back(netbase::IPAddr::must_parse("203.0.113.250"));  // likely miss
  const auto batch = store.find_batch(addrs);
  ASSERT_EQ(batch.size(), addrs.size());
  for (std::size_t i = 0; i < addrs.size(); ++i)
    EXPECT_EQ(batch[i], store.find(addrs[i]));
}

TEST(Store, PrefixEnumerationMatchesFilter) {
  auto run = run_small(7);
  const serve::AnnotationStore store(
      must_load(serialize(serve::snapshot_from_result(run.result))));
  const auto& all = store.snapshot().interfaces;

  // The whole v4 space enumerates every interface, in address order.
  const auto everything = store.find_under(netbase::Prefix::must_parse("0.0.0.0/0"));
  std::size_t v4_count = 0;
  for (const auto& rec : all) v4_count += rec.addr.is_v4();
  EXPECT_EQ(everything.size(), v4_count);
  for (std::size_t i = 1; i < everything.size(); ++i)
    EXPECT_LT(everything[i - 1]->addr, everything[i]->addr);

  // Every /20 around an observed address returns exactly the brute-force
  // filtered set.
  for (std::size_t i = 0; i < all.size(); i += all.size() / 16 + 1) {
    const netbase::Prefix p(all[i].addr, 20);
    const auto got = store.find_under(p);
    std::size_t expect = 0;
    for (const auto& rec : all) expect += p.contains(rec.addr);
    EXPECT_EQ(got.size(), expect) << p.to_string();
    for (const auto* rec : got) EXPECT_TRUE(p.contains(rec->addr));
  }
}

TEST(Store, SecondaryIndexesAreConsistent) {
  auto run = run_small(7);
  const serve::AnnotationStore store(
      must_load(serialize(serve::snapshot_from_result(run.result))));
  const auto links = run.result.as_links();
  ASSERT_FALSE(links.empty());
  EXPECT_EQ(store.stats().as_links, links.size());

  // Each AS's link list is exactly the global list filtered to it.
  std::unordered_set<netbase::Asn> ases;
  for (const auto& [a, b] : links) {
    ases.insert(a);
    ases.insert(b);
  }
  for (netbase::Asn asn : ases) {
    const auto& got = store.links_of(asn);
    std::vector<std::pair<netbase::Asn, netbase::Asn>> expect;
    for (const auto& l : links)
      if (l.first == asn || l.second == asn) expect.push_back(l);
    EXPECT_EQ(got, expect) << "AS" << asn;
  }
  EXPECT_TRUE(store.links_of(4200000001u).empty());

  // Interface counts per AS sum to the table size.
  std::unordered_map<netbase::Asn, std::uint64_t> counts;
  for (const auto& rec : store.snapshot().interfaces)
    ++counts[rec.inf.router_as];
  std::uint64_t total = 0;
  for (const auto& [asn, n] : counts) {
    EXPECT_EQ(store.iface_count_of(asn), n);
    total += n;
  }
  EXPECT_EQ(total, store.stats().interfaces);
  EXPECT_EQ(store.iface_count_of(4200000001u), 0u);

  // Router ids stay within the router count and group aliases together.
  for (const auto& rec : store.snapshot().interfaces)
    EXPECT_LT(rec.router_id, store.stats().routers);
}

TEST(Store, RouterMembershipMatchesGraph) {
  auto run = run_small(7);
  const serve::AnnotationStore store(
      must_load(serialize(serve::snapshot_from_result(run.result))));
  // Two addresses on the same IR in the graph share a router_id in the
  // store, and vice versa.
  const auto& g = run.result.graph;
  for (const auto& f : g.interfaces()) {
    const auto* rec = store.find(f.addr);
    ASSERT_NE(rec, nullptr);
    EXPECT_EQ(rec->router_id, static_cast<std::uint32_t>(f.ir));
  }
}

// ---- serve-time audit gate ---------------------------------------------

TEST(StoreAudit, HealthySnapshotValidatesCleanAndOpens) {
  auto run = run_small(5);
  serve::Snapshot snap = serve::snapshot_from_result(run.result);
  EXPECT_TRUE(serve::validate_snapshot(snap).empty());
  std::vector<serve::SnapshotIssue> issues;
  const auto store = serve::AnnotationStore::open(snap, {}, &issues);
  ASSERT_NE(store, nullptr);
  EXPECT_TRUE(issues.empty());
  EXPECT_EQ(store->stats().interfaces, snap.interfaces.size());
}

TEST(StoreAudit, CrcValidButViolatingSnapshotIsRejected) {
  auto run = run_small(5);
  serve::Snapshot snap = serve::snapshot_from_result(run.result);
  ASSERT_GE(snap.interfaces.size(), 2u);
  std::swap(snap.interfaces.front(), snap.interfaces.back());
  // The corruption survives a serialize/load round-trip: the rewritten
  // CRC is valid, so only the audit can catch it.
  serve::Snapshot reloaded = must_load(serialize(snap));
  const auto found = serve::validate_snapshot(reloaded);
  ASSERT_FALSE(found.empty());
  EXPECT_EQ(found.front().check, "snapshot.iface-sorted");

  std::vector<serve::SnapshotIssue> issues;
  EXPECT_EQ(serve::AnnotationStore::open(std::move(reloaded), {}, &issues),
            nullptr);
  EXPECT_FALSE(issues.empty());
}

TEST(StoreAudit, NoAuditOptOutStillOpens) {
  auto run = run_small(5);
  serve::Snapshot snap = serve::snapshot_from_result(run.result);
  std::swap(snap.interfaces.front(), snap.interfaces.back());
  serve::StoreOptions opt;
  opt.audit = false;
  EXPECT_NE(serve::AnnotationStore::open(std::move(snap), opt), nullptr);
}

TEST(StoreAudit, DanglingAsLinkAndRouterCountAreFlagged) {
  auto run = run_small(5);
  {
    serve::Snapshot snap = serve::snapshot_from_result(run.result);
    snap.as_links.push_back({4200000000u, 4200000001u});
    const auto found = serve::validate_snapshot(snap);
    ASSERT_FALSE(found.empty());
    bool member = false;
    for (const auto& i : found) member |= i.check == "snapshot.as-link-member";
    EXPECT_TRUE(member);
  }
  {
    serve::Snapshot snap = serve::snapshot_from_result(run.result);
    snap.router_count = snap.interfaces.size() + 3;
    const auto found = serve::validate_snapshot(snap);
    ASSERT_FALSE(found.empty());
    EXPECT_EQ(found.front().check, "snapshot.router-count");
  }
}

TEST(StoreAudit, ValidationIsThreadCountInvariant) {
  auto run = run_small(5);
  serve::Snapshot snap = serve::snapshot_from_result(run.result);
  std::swap(snap.interfaces.front(), snap.interfaces.back());
  snap.as_links.push_back({4200000000u, 4200000001u});
  const auto base = serve::validate_snapshot(snap, 1);
  for (const int threads : {2, 8, 0}) {
    const auto got = serve::validate_snapshot(snap, threads);
    ASSERT_EQ(got.size(), base.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(got[i].check, base[i].check);
      EXPECT_EQ(got[i].detail, base[i].detail);
    }
  }
}

// Delta-based (the tallies are process-wide and other tests in this
// binary also call open()): each kind of open must move exactly its
// own counters.
TEST(StoreAudit, LoadGateStatsTallyOpens) {
  auto run = run_small(5);

  // Audited open of a healthy snapshot.
  serve::LoadGateStats before = serve::AnnotationStore::load_gate_stats();
  {
    serve::Snapshot snap = serve::snapshot_from_result(run.result);
    ASSERT_NE(serve::AnnotationStore::open(std::move(snap)), nullptr);
  }
  serve::LoadGateStats after = serve::AnnotationStore::load_gate_stats();
  EXPECT_EQ(after.opens, before.opens + 1);
  EXPECT_EQ(after.audits_run, before.audits_run + 1);
  EXPECT_EQ(after.audits_skipped, before.audits_skipped);
  EXPECT_EQ(after.snapshots_rejected, before.snapshots_rejected);
  EXPECT_EQ(after.violations, before.violations);

  // Opt-out open: audit skipped, nothing rejected.
  before = after;
  {
    serve::Snapshot snap = serve::snapshot_from_result(run.result);
    serve::StoreOptions opt;
    opt.audit = false;
    ASSERT_NE(serve::AnnotationStore::open(std::move(snap), opt), nullptr);
  }
  after = serve::AnnotationStore::load_gate_stats();
  EXPECT_EQ(after.opens, before.opens + 1);
  EXPECT_EQ(after.audits_run, before.audits_run);
  EXPECT_EQ(after.audits_skipped, before.audits_skipped + 1);
  EXPECT_EQ(after.snapshots_rejected, before.snapshots_rejected);

  // Audited open of a violating snapshot: rejected, violations tallied.
  before = after;
  {
    serve::Snapshot snap = serve::snapshot_from_result(run.result);
    ASSERT_GE(snap.interfaces.size(), 2u);
    std::swap(snap.interfaces.front(), snap.interfaces.back());
    std::vector<serve::SnapshotIssue> issues;
    EXPECT_EQ(serve::AnnotationStore::open(std::move(snap), {}, &issues),
              nullptr);
    EXPECT_FALSE(issues.empty());
  }
  after = serve::AnnotationStore::load_gate_stats();
  EXPECT_EQ(after.opens, before.opens + 1);
  EXPECT_EQ(after.audits_run, before.audits_run + 1);
  EXPECT_EQ(after.snapshots_rejected, before.snapshots_rejected + 1);
  EXPECT_GT(after.violations, before.violations);
}

// A hot-reload cycle is just a sequence of gated opens feeding a
// StoreHandle: every attempt — success, opt-out, or audit rejection —
// must move the gate tallies exactly as a cold open would, and only
// the successes may advance the published generation.
TEST(StoreAudit, LoadGateStatsTallyAcrossReloads) {
  auto run = run_small(5);
  auto healthy = [&] { return serve::snapshot_from_result(run.result); };

  serve::LoadGateStats before = serve::AnnotationStore::load_gate_stats();
  serve::StoreHandle handle(serve::AnnotationStore::open(healthy()));
  EXPECT_EQ(handle.generation(), 1u);

  // Reload #1: healthy candidate, audited, published.
  {
    auto next = serve::AnnotationStore::open(healthy());
    ASSERT_NE(next, nullptr);
    EXPECT_EQ(handle.publish(std::move(next)), 2u);
  }

  // Reload #2: CRC-valid but audit-violating candidate. The gate
  // rejects it before publication, so the old generation keeps serving.
  {
    serve::Snapshot bad = healthy();
    ASSERT_GE(bad.interfaces.size(), 2u);
    std::swap(bad.interfaces.front(), bad.interfaces.back());
    std::vector<serve::SnapshotIssue> issues;
    EXPECT_EQ(serve::AnnotationStore::open(
                  must_load(serialize(bad)), {}, &issues),
              nullptr);
    EXPECT_FALSE(issues.empty());
  }
  EXPECT_EQ(handle.generation(), 2u);

  // Reload #3: audit opted out (the operator's emergency hatch).
  {
    serve::StoreOptions opt;
    opt.audit = false;
    auto next = serve::AnnotationStore::open(healthy(), opt);
    ASSERT_NE(next, nullptr);
    EXPECT_EQ(handle.publish(std::move(next)), 3u);
  }

  const serve::LoadGateStats after = serve::AnnotationStore::load_gate_stats();
  EXPECT_EQ(after.opens, before.opens + 4);  // initial + three reloads
  EXPECT_EQ(after.audits_run, before.audits_run + 3);
  EXPECT_EQ(after.audits_skipped, before.audits_skipped + 1);
  EXPECT_EQ(after.snapshots_rejected, before.snapshots_rejected + 1);
  EXPECT_GT(after.violations, before.violations);

  // The surviving generation still answers: the rejected candidate
  // never reached the handle.
  const auto pinned = handle.acquire();
  EXPECT_EQ(pinned->stats().interfaces, healthy().interfaces.size());
}

TEST(StoreAudit, EmptySnapshotValidatesCleanAndServesZeroState) {
  const serve::Snapshot empty;
  EXPECT_TRUE(serve::validate_snapshot(empty).empty());
  const auto store = serve::AnnotationStore::open(empty);
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->stats().interfaces, 0u);
  EXPECT_EQ(store->stats().routers, 0u);
}
