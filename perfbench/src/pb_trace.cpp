// pb_trace — the traced benchmark harness.
//
//   pb_trace --traces FILE --rib FILE --rels FILE --delegations FILE
//            --ixp FILE [--aliases FILE] --threads N --serve-threads N
//            --text FILE --bulk FILE --work DIR
//
// Runs what `bdrmapit_cli --audit --snapshot-out` runs, then what
// `bdrmapit_serve` does to load and answer, by calling each module's
// public functions directly with a span (spans.hpp) around every call:
//
//   * the map pipeline at N threads, then again at 1 thread (the
//     *_serial_ms figures), writing DIR/trace.tsv in the CLI's format
//     so the benchmark can check it equals the CLI's output;
//   * snapshot load, validation, index build and publish;
//   * StoreHandle::acquire, Protocol::handle_line on every request of
//     the text mix (one span per call, checked against the expected
//     reply) and Protocol::handle_bulk on frames of the BULK mix.
//
// The files --text and --bulk are the ones pb_load replays (format in
// pb_load.cpp). Spans go to DIR/spans.tsv; the last stdout line is one
// JSON object of per-layer figures derived from them.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "asrel/serial1.hpp"
#include "audit/invariants.hpp"
#include "core/bdrmapit.hpp"
#include "serve/protocol.hpp"
#include "serve/snapshot.hpp"
#include "serve/store.hpp"
#include "spans.hpp"
#include "tracedata/scamper_json.hpp"

namespace {

std::map<std::string, std::string> g_args;

// The most refine.fixed-point findings the audit may report alone and
// still pass (perfbench/run.py, KNOWN_FINDING_MAX).
constexpr std::size_t kKnownFindingMax = 10;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint32_t le32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

bool is_json(const std::string& path) {
  std::ifstream in(path);
  char c = 0;
  while (in.get(c))
    if (c != ' ' && c != '\t' && c != '\n') break;
  return c == '{';
}

struct Figures {
  std::map<std::string, double> m;
  void ms(const std::string& key, const char* span) {
    m[key] = static_cast<double>(spans::total_ns(span)) / 1e6;
  }
};

// One pass of the map pipeline, as bdrmapit_cli --audit runs it. The
// span names carry the pass (plain, or "_serial" at one thread) so both
// passes stay apart.
struct Pass {
  const char* read;
  const char* alias_read;
  const char* build;
  const char* annotate;
  const char* audit;
};

core::Result run_pipeline(int threads, const Pass& names, const bgp::Ip2AS& ip2as,
                          const asrel::RelStore& rels, std::size_t* hops,
                          std::size_t* traces, std::size_t* violations) {
  std::vector<tracedata::Traceroute> corpus;
  {
    const spans::Scope s(names.read);
    std::ifstream in(g_args["traces"]);
    std::size_t bad = 0;
    corpus = is_json(g_args["traces"])
                 ? tracedata::read_json_traceroutes(in, &bad, threads)
                 : tracedata::read_traceroutes(in, &bad, threads);
  }
  *traces = corpus.size();
  *hops = 0;
  for (const auto& t : corpus) *hops += t.hops.size();
  tracedata::AliasSets aliases;
  {
    const spans::Scope s(names.alias_read);
    if (g_args.contains("aliases")) {
      std::ifstream in(g_args["aliases"]);
      aliases = tracedata::AliasSets::read(in);
    }
  }
  core::AnnotatorOptions opt;
  opt.threads = threads;
  std::vector<audit::Violation> found;
  auto collect = [&found](std::vector<audit::Violation> vs) {
    for (auto& v : vs) found.push_back(std::move(v));
  };
  graph::Graph g;
  {
    const spans::Scope s(names.build);
    g = graph::Graph::build(corpus, aliases, ip2as, rels, threads);
  }
  {
    const spans::Scope s(names.audit);
    collect(audit::audit_graph(g, threads));
    collect(audit::audit_origins(g, ip2as, threads));
    collect(audit::audit_reallocated(g, rels, threads));
  }
  core::Result r;
  {
    const spans::Scope s(names.annotate);
    r = core::Bdrmapit::annotate_and_package(std::move(g), rels, opt);
  }
  {
    const spans::Scope s(names.audit);
    collect(audit::audit_graph(r.graph, threads));
    collect(audit::audit_fixed_point(r.graph, rels, opt));
    collect(audit::audit_result(r, threads));
  }
  // Up to kKnownFindingMax refine.fixed-point findings, and nothing
  // else, are the seed-dependent finding run.py lets through
  // (KNOWN_FINDING); any other violation, or more of them, counts.
  const auto moves = static_cast<std::size_t>(
      std::count_if(found.begin(), found.end(), [](const audit::Violation& v) {
        return v.check == "refine.fixed-point";
      }));
  *violations = moves == found.size() && moves <= kKnownFindingMax ? 0 : found.size();
  return r;
}

void write_tsv(const std::string& path, const core::Result& r) {
  std::ofstream out(path);
  out << "# addr\trouter_as\tconn_as\tflags\n";
  std::vector<netbase::IPAddr> addrs;
  addrs.reserve(r.interfaces.size());
  for (const auto& [addr, inf] : r.interfaces) addrs.push_back(addr);
  std::sort(addrs.begin(), addrs.end());
  for (const auto& addr : addrs) {
    const auto& inf = r.interfaces.at(addr);
    out << addr.to_string() << '\t' << inf.router_as << '\t' << inf.conn_as << '\t'
        << inf.flags() << '\n';
  }
}

struct TextQuery {
  std::uint8_t kind;
  std::string request, expected;
  const char* span;
};

// The span name of a request, by command and shape.
const char* line_span(const std::string& req, std::uint8_t kind) {
  if (req.rfind("IFACE ", 0) == 0) {
    if (kind == 2) return "serve.line.IFACE-miss";
    return req.find(' ', 6) == std::string::npos ||
                   req.find(' ', 6) == req.size() - 1
               ? "serve.line.IFACE"
               : "serve.line.IFACE-multi";
  }
  if (req.rfind("PREFIX ", 0) == 0) return "serve.line.PREFIX";
  if (req.rfind("ROUTER ", 0) == 0) return "serve.line.ROUTER";
  if (req.rfind("LINKS ", 0) == 0) return "serve.line.LINKS";
  if (req.rfind("COUNT ", 0) == 0) return "serve.line.COUNT";
  return "serve.line.other";
}

bool reply_ok(const TextQuery& q, const std::string& out) {
  if (q.kind == 0) return out == q.expected;
  if (out.empty() || out.back() != '\n' ||
      out.find('\n') != out.size() - 1)
    return false;
  const std::string line = out.substr(0, out.size() - 1);
  if (q.kind == 1) return line.substr(line.rfind('\t') + 1) == q.expected;
  return line.rfind(q.expected, 0) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; i += 2) g_args[argv[i] + 2] = argv[i + 1];
  for (const char* k : {"traces", "rib", "rels", "delegations", "ixp", "threads",
                        "serve-threads", "text", "bulk", "work"}) {
    if (!g_args.contains(k)) {
      std::fprintf(stderr, "pb_trace: --%s is required\n", k);
      return 1;
    }
  }
  const int threads = std::stoi(g_args["threads"]);
  const int serve_threads = std::stoi(g_args["serve-threads"]);
  const std::string work = g_args["work"];
  Figures f;
  std::uint64_t attempted = 0, failed = 0;

  // ---- map pipeline ---------------------------------------------------
  bgp::Rib rib;
  {
    const spans::Scope s("bgp.rib_read");
    std::ifstream in(g_args["rib"]);
    rib.read(in);
  }
  std::vector<bgp::Delegation> delegations;
  std::vector<netbase::Prefix> ixp;
  {
    const spans::Scope s("bgp.aux_read");
    std::ifstream din(g_args["delegations"]);
    delegations = bgp::read_delegations(din);
    std::ifstream iin(g_args["ixp"]);
    ixp = bgp::Ip2AS::read_ixp_prefixes(iin);
  }
  bgp::Ip2AS ip2as;
  {
    const spans::Scope s("bgp.ip2as_build");
    ip2as = bgp::Ip2AS::build(rib, delegations, ixp);
  }
  asrel::RelStore rels;
  {
    const spans::Scope s("asrel.load");
    std::ifstream in(g_args["rels"]);
    asrel::load_serial1(in, rels);
    rels.finalize();
  }
  std::size_t hops = 0, traces = 0, violations = 0;
  serve::Snapshot snap;
  {
    core::Result r = run_pipeline(
        threads,
        {"tracedata.read", "tracedata.alias_read", "graph.build", "core.annotate",
         "audit.all"},
        ip2as, rels, &hops, &traces, &violations);
    ++attempted;
    if (violations) ++failed;
    f.m["graph.interfaces"] = static_cast<double>(r.graph.interfaces().size());
    f.m["graph.irs"] = static_cast<double>(r.graph.irs().size());
    f.m["graph.links"] = static_cast<double>(r.graph.links().size());
    f.m["core.iterations"] = r.iterations;
    {
      const spans::Scope s("serve.snapshot_build");
      snap = serve::snapshot_from_result(r);
    }
    {
      const spans::Scope s("audit.all");
      if (!audit::audit_snapshot(snap, threads).empty()) ++failed;
    }
    std::string error;
    {
      const spans::Scope s("serve.snapshot_write");
      if (!serve::write_snapshot_file(work + "/trace.snap", snap, &error)) ++failed;
    }
    write_tsv(work + "/trace.tsv", r);
  }
  // Wall time of the N-thread pipeline, from the RIB read to the
  // snapshot write, to set beside bdrmapit_cli's wall time.
  {
    std::int64_t begin = 0, end = 0;
    for (const spans::Span& s : spans::all()) {
      if (begin == 0 && std::strcmp(s.name, "bgp.rib_read") == 0) begin = s.start_ns;
      if (std::strcmp(s.name, "serve.snapshot_write") == 0) end = s.end_ns;
    }
    f.m["trace.pipeline_ms"] = static_cast<double>(end - begin) / 1e6;
  }
  f.m["tracedata.traces"] = static_cast<double>(traces);
  f.m["tracedata.hops"] = static_cast<double>(hops);
  {
    std::size_t h1 = 0, t1 = 0, v1 = 0;
    core::Result r1 = run_pipeline(
        1,
        {"tracedata.read_serial", "tracedata.alias_read_serial", "graph.build_serial",
         "core.annotate_serial", "audit.all_serial"},
        ip2as, rels, &h1, &t1, &v1);
    ++attempted;
    if (v1 || t1 != traces || r1.interfaces.size() != snap.interfaces.size()) ++failed;
  }
  for (const char* k : {"tracedata.read", "tracedata.read_serial", "tracedata.alias_read",
                        "bgp.rib_read", "bgp.ip2as_build", "asrel.load", "graph.build",
                        "graph.build_serial", "core.annotate", "core.annotate_serial",
                        "audit.all", "audit.all_serial", "serve.snapshot_build",
                        "serve.snapshot_write"})
    f.ms(std::string(k) + "_ms", k);
  {
    std::ifstream in(work + "/trace.snap", std::ios::binary | std::ios::ate);
    f.m["serve.snapshot_bytes"] = static_cast<double>(in.tellg());
  }

  // ---- serve: load, validate, index, publish ---------------------------
  serve::Snapshot loaded;
  {
    std::string error;
    const spans::Scope s("serve.snapshot_load");
    if (!serve::load_snapshot_file(work + "/trace.snap", &loaded, &error)) {
      std::fprintf(stderr, "pb_trace: %s\n", error.c_str());
      return 1;
    }
  }
  {
    const spans::Scope s("serve.validate");
    if (!serve::validate_snapshot(loaded, serve_threads).empty()) ++failed;
  }
  serve::Snapshot copy = loaded;
  serve::StoreOptions no_audit;
  no_audit.audit = false;
  std::unique_ptr<serve::AnnotationStore> first;
  {
    const spans::Scope s("serve.index");
    first = serve::AnnotationStore::open(std::move(loaded), no_audit, nullptr);
  }
  auto second = serve::AnnotationStore::open(std::move(copy), no_audit, nullptr);
  serve::StoreHandle handle(std::move(first));
  {
    const spans::Scope s("serve.publish");
    handle.publish(std::move(second));
  }
  f.ms("serve.snapshot_load_ms", "serve.snapshot_load");
  f.ms("serve.validate_ms", "serve.validate");
  f.ms("serve.index_ms", "serve.index");
  f.m["serve.publish_us"] = static_cast<double>(spans::total_ns("serve.publish")) / 1e3;

  // A clock read costs about what one acquire does, so this span
  // covers a loop of calls.
  {
    constexpr std::uint64_t kCalls = 200000;
    std::uint64_t sink = 0;
    {
      const spans::Scope s("serve.acquire", kCalls);
      for (std::uint64_t i = 0; i < kCalls; ++i)
        sink += handle.acquire()->stats().interfaces;
    }
    if (sink == 0) ++failed;
    f.m["serve.acquire_ns"] = static_cast<double>(spans::total_ns("serve.acquire")) /
                              static_cast<double>(kCalls);
  }

  // ---- serve: handle_line over the text mix ----------------------------
  std::vector<TextQuery> mix;
  {
    const std::string data = slurp(g_args["text"]);
    for (std::size_t i = 0; i + 9 <= data.size();) {
      TextQuery q;
      q.kind = static_cast<std::uint8_t>(data[i]);
      const std::uint32_t rl = le32(&data[i + 1]);
      q.request = data.substr(i + 5, rl);
      i += 5 + rl;
      const std::uint32_t el = le32(&data[i]);
      q.expected = data.substr(i + 4, el);
      i += 4 + el;
      if (!q.request.empty() && q.request.back() == '\n') q.request.pop_back();
      q.span = line_span(q.request, q.kind);
      mix.push_back(std::move(q));
    }
  }
  const serve::Protocol protocol(handle);
  std::string out;
  for (int pass = 0; pass < 3; ++pass) {
    for (const TextQuery& q : mix) {
      out.clear();
      {
        const spans::Scope s(q.span);
        protocol.handle_line(q.request, out);
      }
      ++attempted;
      if (!reply_ok(q, out)) {
        ++failed;
        std::fprintf(stderr, "pb_trace: reply differs: %s\n", q.request.c_str());
      }
    }
  }
  // What one span costs: open and close empty ones.
  {
    constexpr std::uint64_t kSpans = 100000;
    {
      const spans::Scope outer("trace.empty_spans", kSpans);
      for (std::uint64_t i = 0; i < kSpans; ++i) const spans::Scope s("trace.empty");
    }
    f.m["trace.span_cost_ns"] = static_cast<double>(spans::total_ns("trace.empty_spans")) /
                                static_cast<double>(kSpans);
  }
  {
    std::vector<std::int64_t> all;
    for (const spans::Span& s : spans::all())
      if (std::strncmp(s.name, "serve.line.", 11) == 0) all.push_back(s.end_ns - s.start_ns);
    std::nth_element(all.begin(), all.begin() + static_cast<long>(all.size() / 2), all.end());
    f.m["serve.line_ns.mix"] = all.empty() ? 0 : static_cast<double>(all[all.size() / 2]);
  }
  for (const char* kind : {"IFACE", "IFACE-miss", "PREFIX", "ROUTER", "LINKS", "COUNT"}) {
    const std::string name = std::string("serve.line.") + kind;
    f.m[std::string("serve.line_ns.") + kind] = spans::median_ns(name.c_str());
  }

  // ---- serve: handle_bulk over the BULK mix -----------------------------
  {
    const std::string data = slurp(g_args["bulk"]);
    const std::uint32_t n = data.size() >= 4 ? le32(data.data()) : 0;
    constexpr std::size_t kRec = 30;
    constexpr std::uint32_t kBatch = 4096;
    serve::Protocol::BulkScratch scratch;
    std::vector<std::uint32_t> expect_as;
    for (int pass = 0; pass < 3; ++pass) {
      for (std::uint32_t lo = 0; lo < n; lo += kBatch) {
        const std::uint32_t cnt = std::min(kBatch, n - lo);
        std::string frame("\xBD\x01\x01\x00", 4);
        frame.append(reinterpret_cast<const char*>(&cnt), 4);
        expect_as.clear();
        for (std::uint32_t k = lo; k < lo + cnt; ++k) {
          const char* p = data.data() + 4 + k * kRec;
          frame.append(p, 17);
          expect_as.push_back(le32(p + 26) == 0xffffffffu ? 0 : le32(p + 17));
        }
        out.clear();
        serve::Protocol::BulkOutcome o;
        {
          const spans::Scope s("serve.bulk", cnt);
          o = protocol.handle_bulk(frame, out, scratch);
        }
        ++attempted;
        bool good = o.ok && o.addrs == cnt && out.size() == 8 + 16 * std::size_t{cnt};
        for (std::uint32_t k = 0; good && k < cnt; ++k)
          good = le32(out.data() + 8 + 16 * k) == expect_as[k];
        if (!good) ++failed;
      }
    }
    f.m["serve.bulk_ns_per_addr"] =
        static_cast<double>(spans::total_ns("serve.bulk")) /
        static_cast<double>(std::max<std::uint64_t>(1, spans::total_count("serve.bulk")));
  }

  if (!spans::write(work + "/spans.tsv")) ++failed;
  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"figures\": {",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool first_key = true;
  for (const auto& [k, v] : f.m) {
    std::printf("%s\"%s\": %.9g", first_key ? "" : ", ", k.c_str(), v);
    first_key = false;
  }
  std::printf("}}\n");
  return 0;
}
