#include "graph/graph.hpp"

#include <algorithm>
#include <cstdint>

namespace graph {
namespace {

/// Table 3 label for the edge i -> j.
LinkLabel classify(const Interface& i, const Interface& j, int hop_distance,
                   tracedata::ReplyType j_reply) {
  if (j_reply == tracedata::ReplyType::echo_reply)
    return hop_distance == 1 ? LinkLabel::echo : LinkLabel::multihop;
  const bool same_origin = i.origin.announced() && j.origin.announced() &&
                           i.origin.asn == j.origin.asn;
  if (same_origin || hop_distance == 1) return LinkLabel::nexthop;
  return LinkLabel::multihop;
}

inline std::uint64_t link_key(int ir, int iface) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(ir)) << 32) |
         static_cast<std::uint32_t>(iface);
}

}  // namespace

Graph Graph::build(const std::vector<tracedata::Traceroute>& corpus,
                   const tracedata::AliasSets& aliases, const bgp::Ip2AS& ip2as,
                   const asrel::RelStore& rels, int /*threads*/) {
  Graph g;
  const std::size_t n_traces = corpus.size();

  // Destinations are interned as dense groups, one per announced
  // destination AS; unannounced destinations feed no AS set.
  std::vector<netbase::Asn> group_asn;       // group -> destination AS
  std::vector<int> trace_group(n_traces);    // trace -> group, or -1
  // The interfaces (ids >= 0) and links (~id) whose destination sets
  // each trace feeds, as one flat array with per-trace offsets.
  std::vector<int> touched;
  std::vector<std::size_t> touched_off(n_traces + 1);

  // ---- One corpus-order pass: interfaces, IRs, links ---------------------
  // Each non-private hop is hashed at most once. Interfaces, IRs and
  // links are numbered in order of first sight; an interface joins its
  // alias group's IR (or a singleton) when it is first seen, which is the
  // same numbering as assigning IRs over the finished interface list.
  {
    std::unordered_map<std::size_t, int> alias_ir;        // alias set -> IR
    std::unordered_map<std::uint64_t, int> link_index;    // (ir, iface) -> link
    std::unordered_map<netbase::IPAddr, int> dst_group;   // destination -> group
    std::unordered_map<netbase::Asn, int> asn_group;
    // Per interface, the hop that last followed it: its address,
    // interface and link (-1 when alias-internal). Traces from one VP
    // share path prefixes, so about half the hops repeat their
    // predecessor's last successor and skip both hash lookups.
    struct Successor {
      netbase::IPAddr addr;
      int iface = -1;
      int link = -1;
    };
    std::vector<Successor> successor;
    auto new_ir = [&g] {
      const int id = static_cast<int>(g.irs_.size());
      g.irs_.emplace_back().id = id;
      return id;
    };
    auto intern = [&](const netbase::IPAddr& addr) {
      auto [it, inserted] =
          g.addr_index_.try_emplace(addr, static_cast<int>(g.ifaces_.size()));
      if (inserted) {
        Interface& f = g.ifaces_.emplace_back();
        f.id = it->second;
        f.addr = addr;
        f.origin = ip2as.lookup(addr);
        const std::size_t set = aliases.find(addr);
        if (set == tracedata::AliasSets::npos) {
          f.ir = new_ir();
        } else {
          auto [ait, fresh] = alias_ir.try_emplace(set, -1);
          if (fresh) ait->second = new_ir();
          f.ir = ait->second;
        }
        g.irs_[static_cast<std::size_t>(f.ir)].ifaces.push_back(f.id);
        successor.emplace_back();
      }
      return it->second;
    };

    // The link for the transition from -> to, or -1 for an alias-internal
    // transition (not a link); adds `from` to the link's previous
    // interfaces, kept in first-seen order until the pass ends.
    auto link_of = [&](int from, int to) {
      const int ir = g.ifaces_[static_cast<std::size_t>(from)].ir;
      if (ir == g.ifaces_[static_cast<std::size_t>(to)].ir) return -1;
      auto [it, fresh] =
          link_index.try_emplace(link_key(ir, to), static_cast<int>(g.links_.size()));
      if (fresh) {
        Link& nl = g.links_.emplace_back();
        nl.id = it->second;
        nl.ir = ir;
        nl.iface = to;
        g.irs_[static_cast<std::size_t>(ir)].out_links.push_back(nl.id);
        g.ifaces_[static_cast<std::size_t>(to)].in_links.push_back(nl.id);
      }
      std::vector<int>& prevs =
          g.links_[static_cast<std::size_t>(it->second)].prev_ifaces;
      if (std::find(prevs.begin(), prevs.end(), from) == prevs.end())
        prevs.push_back(from);
      return it->second;
    };

    for (std::size_t ti = 0; ti < n_traces; ++ti) {
      const auto& t = corpus[ti];
      auto [dit, fresh_dst] = dst_group.try_emplace(t.dst, -1);
      if (fresh_dst) {
        const bgp::Origin o = ip2as.lookup(t.dst);
        if (o.announced()) {
          auto [ait, fresh_asn] =
              asn_group.try_emplace(o.asn, static_cast<int>(group_asn.size()));
          if (fresh_asn) group_asn.push_back(o.asn);
          dit->second = ait->second;
        }
      }
      const int group = dit->second;
      trace_group[ti] = group;
      touched_off[ti] = touched.size();

      int prev = -1;  // previous non-private hop's interface
      int prev_ttl = 0;
      bool last_echo = false;
      for (std::size_t k = 0; k < t.hops.size(); ++k) {
        const tracedata::Hop& h = t.hops[k];
        if (h.addr.is_private()) continue;
        int cur = -1, lid = -1;
        if (prev >= 0 && successor[static_cast<std::size_t>(prev)].iface >= 0 &&
            successor[static_cast<std::size_t>(prev)].addr == h.addr) {
          cur = successor[static_cast<std::size_t>(prev)].iface;
          lid = successor[static_cast<std::size_t>(prev)].link;
        } else {
          cur = intern(h.addr);
          if (prev >= 0) {
            lid = link_of(prev, cur);
            successor[static_cast<std::size_t>(prev)] = Successor{h.addr, cur, lid};
          }
        }
        Interface& fj = g.ifaces_[static_cast<std::size_t>(cur)];
        last_echo = h.reply == tracedata::ReplyType::echo_reply;
        if (!last_echo) fj.seen_non_echo = true;
        if (k + 1 < t.hops.size()) fj.seen_mid_path = true;
        if (lid >= 0) {
          Link& l = g.links_[static_cast<std::size_t>(lid)];
          const LinkLabel label =
              classify(g.ifaces_[static_cast<std::size_t>(prev)], fj,
                       h.probe_ttl - prev_ttl, h.reply);
          if (static_cast<std::uint8_t>(label) < static_cast<std::uint8_t>(l.label))
            l.label = label;
          if (group >= 0) touched.push_back(~lid);
        }
        if (group >= 0) touched.push_back(cur);
        prev = cur;
        prev_ttl = h.probe_ttl;
      }
      // A trace ending in an Echo Reply gives its final interface no
      // destination (§4.4): that address is the probed destination. Its
      // interface was the last node pushed.
      if (group >= 0 && last_echo) touched.pop_back();
    }
    touched_off[n_traces] = touched.size();
  }

  // L(IRi, j) (§4.3): the announced origins of the link's previous
  // interfaces, in first-seen order, which is the order per-traversal
  // insertion gives.
  for (Link& l : g.links_) {
    for (const int fid : l.prev_ifaces) {
      const bgp::Origin& o = g.ifaces_[static_cast<std::size_t>(fid)].origin;
      if (o.announced()) set_insert(l.origin_set, o.asn);
    }
    std::sort(l.prev_ifaces.begin(), l.prev_ifaces.end());
  }

  // ---- Destination AS sets (§4.4) in first-seen order ------------------
  // Walking the traces grouped by destination, in corpus order within a
  // group, the first visit of a node in a group is that (node, AS)
  // pair's first sight; a per-node stamp of the last group catches it.
  // Each node's first-sight trace indices, sorted, list its set in the
  // order per-trace insertion would have produced.
  const std::size_t n_groups = group_asn.size();
  const std::size_t n_ifaces = g.ifaces_.size();
  {
    // Stable counting sort of trace indices by group.
    std::vector<std::size_t> group_off(n_groups + 1, 0);
    for (const int grp : trace_group)
      if (grp >= 0) ++group_off[static_cast<std::size_t>(grp) + 1];
    for (std::size_t i = 0; i < n_groups; ++i) group_off[i + 1] += group_off[i];
    std::vector<std::uint32_t> by_group(group_off[n_groups]);
    std::vector<std::size_t> next(group_off.begin(), group_off.end() - 1);
    for (std::size_t ti = 0; ti < n_traces; ++ti)
      if (trace_group[ti] >= 0)
        by_group[next[static_cast<std::size_t>(trace_group[ti])]++] =
            static_cast<std::uint32_t>(ti);

    // Each node's first-sight traces, as one flat array of per-node
    // slices: one walk counts them, a second fills them in.
    const std::size_t n_nodes = n_ifaces + g.links_.size();
    std::vector<int> stamp(n_nodes);
    auto walk = [&](auto&& visit) {
      std::fill(stamp.begin(), stamp.end(), -1);
      for (const std::uint32_t ti : by_group) {
        const int grp = trace_group[ti];
        for (std::size_t p = touched_off[ti]; p < touched_off[ti + 1]; ++p) {
          const int x = touched[p];
          const std::size_t node = x >= 0 ? static_cast<std::size_t>(x)
                                          : n_ifaces + static_cast<std::size_t>(~x);
          if (stamp[node] == grp) continue;
          stamp[node] = grp;
          visit(node, ti);
        }
      }
    };
    std::vector<std::size_t> node_off(n_nodes + 1, 0);
    walk([&](std::size_t node, std::uint32_t) { ++node_off[node + 1]; });
    for (std::size_t n = 0; n < n_nodes; ++n) node_off[n + 1] += node_off[n];
    std::vector<std::uint32_t> first(node_off[n_nodes]);
    std::vector<std::size_t> fill(node_off.begin(), node_off.end() - 1);
    walk([&](std::size_t node, std::uint32_t ti) { first[fill[node]++] = ti; });
    touched = {};  // the largest temporary: not kept while the sets grow
    for (std::size_t n = 0; n < n_nodes; ++n) {
      const auto lo = first.begin() + static_cast<std::ptrdiff_t>(node_off[n]);
      const auto hi = first.begin() + static_cast<std::ptrdiff_t>(node_off[n + 1]);
      std::sort(lo, hi);
      auto& dests = n < n_ifaces ? g.ifaces_[n].dest_asns
                                 : g.links_[n - n_ifaces].dest_asns;
      dests.reserve(static_cast<std::size_t>(hi - lo));
      for (auto it = lo; it != hi; ++it)
        dests.push_back(group_asn[static_cast<std::size_t>(trace_group[*it])]);
    }
  }

  // ---- §4.4: reallocated-prefix correction on interface dest sets ------
  for (auto& f : g.ifaces_) {
    if (f.dest_asns.size() != 2 || !f.origin.announced()) continue;
    netbase::Asn matching = netbase::kNoAs, other = netbase::kNoAs;
    if (f.dest_asns[0] == f.origin.asn) {
      matching = f.dest_asns[0];
      other = f.dest_asns[1];
    } else if (f.dest_asns[1] == f.origin.asn) {
      matching = f.dest_asns[1];
      other = f.dest_asns[0];
    } else {
      continue;
    }
    if (rels.cone_size(other) > 5) continue;
    if (rels.has_relationship(matching, other)) continue;
    // Aggregation hid the relationship: drop the reallocating provider
    // (the AS with the larger customer cone).
    const netbase::Asn drop =
        rels.cone_size(matching) >= rels.cone_size(other) ? matching : other;
    f.dest_asns.erase(std::find(f.dest_asns.begin(), f.dest_asns.end(), drop));
  }

  // ---- IR aggregates ----------------------------------------------------
  // An IR's destination set folds its members' sets in member order,
  // deduplicated by a per-AS stamp of the last IR that took it.
  std::unordered_map<netbase::Asn, int> ir_took;
  for (auto& ir : g.irs_) {
    for (int fid : ir.ifaces) {
      const Interface& f = g.ifaces_[static_cast<std::size_t>(fid)];
      if (f.origin.announced()) {
        set_insert(ir.origin_set, f.origin.asn);
        ++ir.origin_votes[f.origin.asn];
      }
      for (const netbase::Asn d : f.dest_asns) {
        auto [it, fresh] = ir_took.try_emplace(d, ir.id);
        if (!fresh && it->second == ir.id) continue;
        it->second = ir.id;
        ir.dest_asns.push_back(d);
      }
    }
    ir.last_hop = ir.out_links.empty();
  }
  return g;
}

GraphStats Graph::stats() const {
  GraphStats s;
  s.interfaces = ifaces_.size();
  for (const auto& f : ifaces_)
    if (f.origin.kind != bgp::OriginKind::none &&
        f.origin.kind != bgp::OriginKind::private_addr)
      ++s.interfaces_mapped;
  s.irs = irs_.size();
  for (const auto& l : links_) {
    switch (l.label) {
      case LinkLabel::nexthop: ++s.links_nexthop; break;
      case LinkLabel::echo: ++s.links_echo; break;
      case LinkLabel::multihop: ++s.links_multihop; break;
    }
  }
  for (const auto& ir : irs_) {
    if (ir.last_hop) {
      ++s.last_hop_irs;
      if (ir.dest_asns.empty()) ++s.last_hop_irs_empty_dest;
      continue;
    }
    ++s.irs_with_links;
    bool has_n = false, has_e = false;
    for (int lid : ir.out_links) {
      const LinkLabel lab = links_[static_cast<std::size_t>(lid)].label;
      has_n |= lab == LinkLabel::nexthop;
      has_e |= lab == LinkLabel::echo;
    }
    if (has_e && !has_n) ++s.irs_echo_only_links;
  }
  return s;
}

}  // namespace graph
