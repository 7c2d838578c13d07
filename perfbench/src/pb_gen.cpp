// pb_gen — seeded benchmark inputs from the simulator's public API.
//
//   pb_gen --out DIR --seed S [--tier1 N --transit N --regional N
//          --stub N --ixps N] [--vps N] [--dual-stack 0|1]
//          [--aliases 0|1] [--json 0|1] [--traces N]
//
// Writes the files bdrmapit_cli reads, in their published formats:
//   traces.txt        native corpus (always; with --json 1 it is the
//                     native copy of the same traceroutes)
//   traces.json       scamper-JSON corpus (--json 1)
//   rib.txt, delegations.txt, ixp.txt, rels.txt
//   aliases.nodes     MIDAR-like alias sets (--aliases 1)
//   ground_truth.tsv  addr <tab> owner_as, every simulated interface
//
// --traces N keeps a seeded sample of exactly N traceroutes (in corpus
// order), so the corpus size does not move with the seed.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "asrel/serial1.hpp"
#include "eval/experiment.hpp"
#include "netbase/rng.hpp"
#include "tracedata/scamper_json.hpp"

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i] + 2] = argv[i + 1];
  if (!args.contains("out") || !args.contains("seed")) {
    std::fprintf(stderr, "usage: pb_gen --out DIR --seed S [options]\n");
    return 1;
  }
  auto num = [&](const char* key, std::size_t def) {
    return args.contains(key) ? static_cast<std::size_t>(std::stoull(args[key]))
                              : def;
  };
  const std::uint64_t seed = std::stoull(args["seed"]);
  topo::SimParams params;
  params.tier1 = num("tier1", params.tier1);
  params.transit = num("transit", params.transit);
  params.regional = num("regional", params.regional);
  params.stub = num("stub", params.stub);
  params.ixps = num("ixps", params.ixps);
  params.dual_stack = num("dual-stack", 0) != 0;
  params.seed = seed;
  const std::size_t vps = num("vps", 60);

  const std::filesystem::path dir(args["out"]);
  std::filesystem::create_directories(dir);
  eval::Scenario s = eval::make_scenario(params, vps, true, seed);

  if (const std::size_t want = num("traces", 0); want && want < s.corpus.size()) {
    // Seeded sample without replacement, kept in corpus order.
    std::vector<std::size_t> idx(s.corpus.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    netbase::SplitMix64 rng(seed ^ 0x5eedULL);
    for (std::size_t i = 0; i < want; ++i)
      std::swap(idx[i], idx[i + rng.below(idx.size() - i)]);
    idx.resize(want);
    std::sort(idx.begin(), idx.end());
    std::vector<tracedata::Traceroute> kept;
    kept.reserve(want);
    for (std::size_t i : idx) kept.push_back(std::move(s.corpus[i]));
    s.corpus = std::move(kept);
  }

  {
    std::ofstream out(dir / "traces.txt");
    tracedata::write_traceroutes(out, s.corpus);
  }
  if (num("json", 0)) {
    std::ofstream out(dir / "traces.json");
    tracedata::write_json_traceroutes(out, s.corpus);
  }
  {
    std::ofstream out(dir / "rib.txt");
    s.net.rib().write(out);
  }
  {
    std::ofstream out(dir / "delegations.txt");
    bgp::write_delegations(out, s.net.delegations());
  }
  {
    std::ofstream out(dir / "ixp.txt");
    for (const auto& p : s.net.ixp_prefixes()) out << p.to_string() << '\n';
  }
  {
    std::ofstream out(dir / "rels.txt");
    asrel::write_serial1(out, s.net.relationships());
  }
  if (num("aliases", 0)) {
    std::ofstream out(dir / "aliases.nodes");
    eval::midar_aliases(s, seed).write(out);
  }
  {
    std::vector<std::pair<netbase::IPAddr, netbase::Asn>> truth;
    truth.reserve(s.gt.all().size());
    for (const auto& [addr, t] : s.gt.all()) truth.emplace_back(addr, t.owner);
    std::sort(truth.begin(), truth.end());
    std::ofstream out(dir / "ground_truth.tsv");
    for (const auto& [addr, owner] : truth)
      out << addr.to_string() << '\t' << owner << '\n';
  }
  std::fprintf(stderr, "pb_gen: %zu traceroutes, %zu truth addresses -> %s\n",
               s.corpus.size(), s.gt.all().size(), dir.string().c_str());
  return 0;
}
