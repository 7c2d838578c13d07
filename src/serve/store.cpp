#include "serve/store.hpp"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <utility>

#include "core/failpoint.hpp"
#include "core/thread_annotations.hpp"

namespace serve {

namespace {
const std::vector<std::pair<netbase::Asn, netbase::Asn>> kNoLinks;

// The load/audit gate's process-wide tallies: open() may run on any
// thread (each serving process loads one snapshot, tests load many),
// so the counters sit behind an annotated mutex.
core::Mutex g_gate_mu;
LoadGateStats g_gate_stats BDRMAPIT_GUARDED_BY(g_gate_mu);

netbase::Prefix host_prefix(const netbase::IPAddr& a) noexcept {
  return netbase::Prefix(a, a.bits());
}
}  // namespace

AnnotationStore::AnnotationStore(Snapshot snap) : snap_(std::move(snap)) {
  for (std::uint32_t i = 0; i < snap_.interfaces.size(); ++i) {
    const SnapshotIface& rec = snap_.interfaces[i];
    trie_.insert(host_prefix(rec.addr), i);
    ++iface_count_by_as_[rec.inf.router_as];
    if (rec.inf.interdomain()) ++stats_.border_interfaces;
  }
  for (const auto& link : snap_.as_links) {
    links_by_as_[link.first].push_back(link);
    links_by_as_[link.second].push_back(link);
  }
  // snap_.as_links is sorted, so each per-AS list built by a forward
  // scan is sorted too; nothing to re-sort here.

  stats_.interfaces = snap_.interfaces.size();
  stats_.routers = snap_.router_count;
  stats_.as_links = snap_.as_links.size();
  stats_.iterations = snap_.iterations;
  std::uint64_t ases = 0;
  for (const auto& [asn, count] : iface_count_by_as_)
    if (asn != netbase::kNoAs) ++ases;
  stats_.ases = ases;
}

std::unique_ptr<AnnotationStore> AnnotationStore::open(
    Snapshot snap, const StoreOptions& opt, std::vector<SnapshotIssue>* issues) {
  std::vector<SnapshotIssue> found;
  if (opt.audit) found = validate_snapshot(snap, opt.threads);
  // "serve.store.open" simulates an audit rejection: the injected issue
  // flows through the same gate-stats accounting and nullptr return as
  // a genuinely corrupt snapshot, so reload drivers see the real path.
  if (BDRMAPIT_FAILPOINT("serve.store.open"))
    found.push_back({"failpoint.store-open",
                     "injected audit violation (failpoint serve.store.open)"});
  {
    const core::MutexLock lock(g_gate_mu);
    ++g_gate_stats.opens;
    if (opt.audit) {
      ++g_gate_stats.audits_run;
      g_gate_stats.violations += found.size();
      if (!found.empty()) ++g_gate_stats.snapshots_rejected;
    } else {
      ++g_gate_stats.audits_skipped;
    }
  }
  if (!found.empty()) {
    if (issues)
      issues->insert(issues->end(), std::make_move_iterator(found.begin()),
                     std::make_move_iterator(found.end()));
    return nullptr;
  }
  return std::unique_ptr<AnnotationStore>(new AnnotationStore(std::move(snap)));
}

LoadGateStats AnnotationStore::load_gate_stats() {
  const core::MutexLock lock(g_gate_mu);
  return g_gate_stats;
}

const SnapshotIface* AnnotationStore::find(
    const netbase::IPAddr& addr) const noexcept {
  const std::uint32_t* idx = trie_.find(host_prefix(addr));
  return idx ? &snap_.interfaces[*idx] : nullptr;
}

std::vector<const SnapshotIface*> AnnotationStore::find_batch(
    const std::vector<netbase::IPAddr>& addrs) const {
  std::vector<const SnapshotIface*> out(addrs.size());
  find_batch(addrs.data(), addrs.size(), out.data());
  return out;
}

void AnnotationStore::find_batch(const netbase::IPAddr* addrs, std::size_t n,
                                 const SnapshotIface** out) const noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = find(addrs[i]);
}

std::vector<const SnapshotIface*> AnnotationStore::find_under(
    const netbase::Prefix& cidr) const {
  std::vector<const SnapshotIface*> out;
  trie_.visit_under(cidr, [&](const netbase::Prefix&, std::uint32_t idx) {
    out.push_back(&snap_.interfaces[idx]);
  });
  std::sort(out.begin(), out.end(),
            [](const SnapshotIface* a, const SnapshotIface* b) {
              return a->addr < b->addr;
            });
  return out;
}

const std::vector<std::pair<netbase::Asn, netbase::Asn>>& AnnotationStore::links_of(
    netbase::Asn asn) const noexcept {
  const auto it = links_by_as_.find(asn);
  return it == links_by_as_.end() ? kNoLinks : it->second;
}

std::uint64_t AnnotationStore::iface_count_of(netbase::Asn asn) const noexcept {
  const auto it = iface_count_by_as_.find(asn);
  return it == iface_count_by_as_.end() ? 0 : it->second;
}

StoreHandle::StoreHandle(StoreRef initial) : current_(std::move(initial)) {
  if (!current_) std::abort();  // a handle always has a servable store
}

StoreHandle::StoreRef StoreHandle::acquire() const {
  const core::MutexLock lock(mu_);
  return current_;  // refcount bump only; no allocation
}

std::uint64_t StoreHandle::publish(StoreRef next) {
  if (!next) std::abort();  // publishing "nothing" would strand readers
  StoreRef retired;  // destroy the old generation outside the lock
  std::uint64_t gen = 0;
  {
    const core::MutexLock lock(mu_);
    retired = std::move(current_);
    current_ = std::move(next);
    gen = generation_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  return gen;
}

}  // namespace serve
