// serve/store.hpp — in-memory query engine over a loaded snapshot.
//
// AnnotationStore indexes a serve::Snapshot three ways:
//
//   * a radix::RadixTrie keyed by host prefix for exact-interface and
//     longest-prefix lookup, plus subtree enumeration for CIDR queries
//     (`visit_under`);
//   * AS → interdomain links involving that AS;
//   * AS → number of interfaces whose router the AS operates.
//
// Lookups return pointers into the store's own interface table; they
// stay valid for the store's lifetime. The batched API answers many
// exact lookups in one call — the shape `bdrmapit_serve` uses for
// multi-address IFACE lines and the bench drives for throughput.
//
// A store is immutable once built. Live serving wraps it in a
// StoreHandle (bottom of this header): an RCU-style publication point
// that lets a reload driver atomically swap in a freshly loaded and
// audited snapshot while in-flight queries finish on the generation
// they started with.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/thread_annotations.hpp"
#include "netbase/asn.hpp"
#include "netbase/ip_addr.hpp"
#include "netbase/prefix.hpp"
#include "radix/radix_trie.hpp"
#include "serve/snapshot.hpp"

namespace serve {

/// Aggregate numbers for the STATS reply.
struct StoreStats {
  std::uint64_t interfaces = 0;
  std::uint64_t routers = 0;
  std::uint64_t border_interfaces = 0;  ///< interdomain() true
  std::uint64_t as_links = 0;
  std::uint64_t ases = 0;  ///< distinct operating ASes
  std::uint32_t iterations = 0;
};

/// Construction-time audit knobs for AnnotationStore::open.
struct StoreOptions {
  bool audit = true;  ///< validate the snapshot image before indexing
  int threads = 1;    ///< executors for the validation scans (<= 0: auto)
};

/// Process-wide tallies for the audited open() gate, across every
/// store this process has opened. Guarded by an internal core::Mutex
/// in store.cpp (the one lock-protected piece of serve state — the
/// stores themselves are immutable once built).
struct LoadGateStats {
  std::uint64_t opens = 0;              ///< open() calls
  std::uint64_t audits_run = 0;         ///< opens that ran the validator
  std::uint64_t audits_skipped = 0;     ///< opens with opt.audit false
  std::uint64_t snapshots_rejected = 0; ///< opens refused by the gate
  std::uint64_t violations = 0;         ///< violations across all audits
};

class AnnotationStore {
 public:
  /// Takes ownership of the snapshot and builds all indexes. Performs
  /// no validation — callers that ingest untrusted snapshots should go
  /// through open().
  explicit AnnotationStore(Snapshot snap);

  /// Audited construction: runs serve::validate_snapshot over the image
  /// first and refuses to build a store over a violating snapshot —
  /// returns nullptr with every violation appended to `*issues` (when
  /// non-null). A CRC check only proves the file is the one that was
  /// written; this gate proves it is one the pipeline could have
  /// written. With opt.audit false it always constructs.
  static std::unique_ptr<AnnotationStore> open(Snapshot snap,
                                               const StoreOptions& opt = {},
                                               std::vector<SnapshotIssue>* issues = nullptr);

  /// Consistent snapshot of the process-wide load/audit gate tallies.
  static LoadGateStats load_gate_stats();

  AnnotationStore(const AnnotationStore&) = delete;
  AnnotationStore& operator=(const AnnotationStore&) = delete;

  /// Exact-interface lookup; nullptr if the address was never observed.
  const SnapshotIface* find(const netbase::IPAddr& addr) const noexcept;

  /// Batched exact lookup: out[i] answers addrs[i] (nullptr on miss).
  std::vector<const SnapshotIface*> find_batch(
      const std::vector<netbase::IPAddr>& addrs) const;

  /// Batched exact lookup into a caller-provided array of `n` slots —
  /// one trie pass, no allocation. The BULK reply path and the text
  /// IFACE hot path answer through this with per-thread scratch.
  void find_batch(const netbase::IPAddr* addrs, std::size_t n,
                  const SnapshotIface** out) const noexcept;

  /// All interfaces inside `cidr`, in ascending address order.
  std::vector<const SnapshotIface*> find_under(const netbase::Prefix& cidr) const;

  /// Interdomain links involving `asn` (smaller ASN first in each pair),
  /// ascending. Empty vector if the AS appears in none.
  const std::vector<std::pair<netbase::Asn, netbase::Asn>>& links_of(
      netbase::Asn asn) const noexcept;

  /// Number of observed interfaces operated by `asn` (router_as == asn).
  std::uint64_t iface_count_of(netbase::Asn asn) const noexcept;

  StoreStats stats() const noexcept { return stats_; }
  const Snapshot& snapshot() const noexcept { return snap_; }

 private:
  Snapshot snap_;
  radix::RadixTrie<std::uint32_t> trie_;  ///< host prefix -> interface index
  std::unordered_map<netbase::Asn, std::vector<std::pair<netbase::Asn, netbase::Asn>>>
      links_by_as_;
  std::unordered_map<netbase::Asn, std::uint64_t> iface_count_by_as_;
  StoreStats stats_;
};

/// RCU-style publication point for hot snapshot reload.
///
/// A StoreHandle owns the *current generation* of the annotation map:
/// an immutable AnnotationStore behind a shared_ptr. Query paths call
/// acquire() once per request, pinning the generation they started on
/// — a shared_ptr copy is one atomic refcount increment, no heap
/// allocation, so the indirection preserves the zero-allocation reply
/// contract. publish() atomically swaps in a freshly built store and
/// bumps the generation counter; readers that acquired the old
/// generation keep it alive until their request finishes, after which
/// the last refcount drop frees it. Nothing ever blocks a reader on a
/// writer beyond the brief pointer-swap critical section.
///
/// The swap point is an annotated core::Mutex (not a lock-free
/// atomic<shared_ptr>) so the contract is enforced by the compile-time
/// capability analysis like every other piece of shared serve state.
class StoreHandle {
 public:
  using StoreRef = std::shared_ptr<const AnnotationStore>;

  /// Takes the initial generation (generation 1). `initial` must be
  /// non-null: a handle always has a servable store.
  explicit StoreHandle(StoreRef initial);

  StoreHandle(const StoreHandle&) = delete;
  StoreHandle& operator=(const StoreHandle&) = delete;

  /// Pins the current generation for one request. The returned ref
  /// stays valid (and its answers self-consistent) for as long as the
  /// caller holds it, regardless of concurrent publishes.
  StoreRef acquire() const BDRMAPIT_EXCLUDES(mu_);

  /// Atomically publishes `next` (non-null) as the new current
  /// generation; in-flight requests finish on the generation they
  /// acquired. Returns the new generation number.
  std::uint64_t publish(StoreRef next) BDRMAPIT_EXCLUDES(mu_);

  /// The current generation number (1-based, bumped by each publish).
  std::uint64_t generation() const noexcept {
    return generation_.load(std::memory_order_acquire);
  }

 private:
  mutable core::Mutex mu_;
  StoreRef current_ BDRMAPIT_GUARDED_BY(mu_);
  std::atomic<std::uint64_t> generation_{1};
};

}  // namespace serve
