// graph/graph.hpp — Phase 1: the annotated IR graph (paper §4).
//
// From a traceroute corpus, alias sets, and an IP→AS map, Graph::build
// constructs exactly the structure bdrmapIT's phases 2 and 3 operate on:
//
//   * interfaces — one per distinct, non-private reply address, labeled
//     with its origin AS (longest-prefix match; IXP prefixes special);
//   * IRs (inferred routers) — alias groups of observed interfaces,
//     singletons for unresolved addresses;
//   * links — IR → subsequent interface edges with N/E/M confidence
//     labels (Table 3), keeping only the highest-confidence label seen;
//   * link origin AS sets L(IRi, j) (§4.3) and link destination AS sets
//     (used by the third-party test, §6.1.1);
//   * interface and IR destination AS sets with the reallocated-prefix
//     correction (§4.4).
//
// Private hops are treated as gaps: a link across them is Multihop
// unless the flanking origin ASes agree. Hop distance comes from probe
// TTL differences, so unresponsive hops widen distance the same way.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "asrel/relstore.hpp"
#include "bgp/ip2as.hpp"
#include "netbase/asn.hpp"
#include "netbase/ip_addr.hpp"
#include "tracedata/alias.hpp"
#include "tracedata/traceroute.hpp"

namespace graph {

/// Link confidence labels, Table 3. Lower value = higher confidence.
enum class LinkLabel : std::uint8_t { nexthop = 1, echo = 2, multihop = 3 };

struct Interface {
  int id = -1;
  netbase::IPAddr addr;
  bgp::Origin origin;
  int ir = -1;
  /// Dynamic annotation: the AS on the *other side* of this interface's
  /// link (Fig. 3). Initialized to the origin AS before refinement.
  netbase::Asn annotation = netbase::kNoAs;
  bool seen_non_echo = false;  ///< ever replied Time Exceeded / Unreachable
  bool seen_mid_path = false;  ///< ever observed before the final hop
  std::vector<netbase::Asn> dest_asns;  ///< §4.4, deduped, order of first sight
  std::vector<int> in_links;   ///< link ids with this interface subsequent
};

struct Link {
  int id = -1;
  int ir = -1;     ///< source IR
  int iface = -1;  ///< subsequent interface
  LinkLabel label = LinkLabel::multihop;
  std::vector<netbase::Asn> origin_set;  ///< L(IRi, j), §4.3
  std::vector<netbase::Asn> dest_asns;   ///< destinations crossing this link
  /// §6.2 votes: the source IR's interfaces seen immediately prior to
  /// `iface` on this link, as ascending interface ids without repeats.
  std::vector<int> prev_ifaces;
};

struct IR {
  int id = -1;
  std::vector<int> ifaces;
  std::vector<int> out_links;
  std::vector<netbase::Asn> origin_set;  ///< distinct announced iface origins
  std::unordered_map<netbase::Asn, int> origin_votes;  ///< iface count per origin
  std::vector<netbase::Asn> dest_asns;   ///< §4.4 (post reallocation fix)
  netbase::Asn annotation = netbase::kNoAs;  ///< inferred operator
  bool last_hop = false;  ///< no outgoing links → phase-2 annotated, frozen
};

/// Aggregate statistics for the Table 3 population numbers.
struct GraphStats {
  std::size_t links_nexthop = 0;
  std::size_t links_echo = 0;
  std::size_t links_multihop = 0;
  std::size_t irs_with_links = 0;
  std::size_t irs_echo_only_links = 0;  ///< E links but no N links
  std::size_t interfaces = 0;
  std::size_t interfaces_mapped = 0;  ///< origin found in BGP/RIR/IXP
  std::size_t irs = 0;
  std::size_t last_hop_irs = 0;
  std::size_t last_hop_irs_empty_dest = 0;
};

class Graph {
 public:
  /// Builds the annotated IR graph. `rels` feeds the §4.4 reallocated-
  /// prefix correction (customer-cone sizes); pass a finalized store.
  ///
  /// Ids and AS-set orders follow first sight in corpus order. The
  /// build runs on the calling thread in time linear in the corpus (plus
  /// a sort of each node's destinations); `threads` is accepted so
  /// callers can pass one thread count to every stage, and does not
  /// change the result.
  static Graph build(const std::vector<tracedata::Traceroute>& corpus,
                     const tracedata::AliasSets& aliases, const bgp::Ip2AS& ip2as,
                     const asrel::RelStore& rels, int threads = 1);

  std::vector<Interface>& interfaces() noexcept { return ifaces_; }
  const std::vector<Interface>& interfaces() const noexcept { return ifaces_; }
  std::vector<IR>& irs() noexcept { return irs_; }
  const std::vector<IR>& irs() const noexcept { return irs_; }
  std::vector<Link>& links() noexcept { return links_; }
  const std::vector<Link>& links() const noexcept { return links_; }

  int iface_by_addr(const netbase::IPAddr& a) const noexcept {
    auto it = addr_index_.find(a);
    return it == addr_index_.end() ? -1 : it->second;
  }

  GraphStats stats() const;

 private:
  std::vector<Interface> ifaces_;
  std::vector<IR> irs_;
  std::vector<Link> links_;
  std::unordered_map<netbase::IPAddr, int> addr_index_;
};

/// Inserts `v` if absent (small ordered-by-first-sight set semantics).
inline void set_insert(std::vector<netbase::Asn>& set, netbase::Asn v) {
  for (netbase::Asn x : set)
    if (x == v) return;
  set.push_back(v);
}

inline bool set_contains(const std::vector<netbase::Asn>& set, netbase::Asn v) noexcept {
  for (netbase::Asn x : set)
    if (x == v) return true;
  return false;
}

}  // namespace graph
