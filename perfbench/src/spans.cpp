#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace spans {
namespace {
// The harness records from one thread; the repository's worker pools
// run inside a span, never open one.
std::vector<Span> g_spans;
std::vector<int> g_open;
}  // namespace

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Scope::Scope(const char* name, std::uint64_t count)
    : index_(static_cast<int>(g_spans.size())) {
  if (g_spans.capacity() == 0) g_spans.reserve(1 << 18);  // no regrowth mid-run
  g_spans.push_back({name, 0, 0, g_open.empty() ? -1 : g_open.back(), count});
  g_open.push_back(index_);
  g_spans.back().start_ns = now_ns();
}

Scope::~Scope() {
  g_spans[static_cast<std::size_t>(index_)].end_ns = now_ns();
  g_open.pop_back();
}

const std::vector<Span>& all() { return g_spans; }

std::int64_t total_ns(const char* name) {
  std::int64_t sum = 0;
  for (const Span& s : g_spans)
    if (std::strcmp(s.name, name) == 0) sum += s.end_ns - s.start_ns;
  return sum;
}

std::uint64_t total_count(const char* name) {
  std::uint64_t sum = 0;
  for (const Span& s : g_spans)
    if (std::strcmp(s.name, name) == 0) sum += s.count;
  return sum;
}

double median_ns(const char* name) {
  std::vector<std::int64_t> d;
  for (const Span& s : g_spans)
    if (std::strcmp(s.name, name) == 0) d.push_back(s.end_ns - s.start_ns);
  if (d.empty()) return 0;
  std::nth_element(d.begin(), d.begin() + static_cast<long>(d.size() / 2), d.end());
  return static_cast<double>(d[d.size() / 2]);
}

bool write(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "# name\tstart_ns\tend_ns\tparent\tcount\n");
  for (const Span& s : g_spans)
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%llu\n", s.name,
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.parent, static_cast<unsigned long long>(s.count));
  return std::fclose(f) == 0;
}

}  // namespace spans
