// spans.hpp — in-memory timing spans for the traced benchmark harness.
//
// A span is (name, start, end, parent, count): a Scope opens one on
// construction and closes it on destruction, and the innermost open
// span is its parent. Spans stay in memory until write() puts them in
// a TSV file (name, start_ns, end_ns, parent index or -1, count) when
// the run ends, so recording costs two clock reads and a vector append.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace spans {

struct Span {
  const char* name;       ///< static string, e.g. "graph.build"
  std::int64_t start_ns;  ///< steady clock
  std::int64_t end_ns;
  int parent;             ///< index of the enclosing span, -1 at top level
  std::uint64_t count;    ///< calls or items covered (1 for a single call)
};

std::int64_t now_ns() noexcept;

/// Opens a span on the calling thread; closes it when destroyed.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t count = 1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_;
};

const std::vector<Span>& all();

/// Sum of durations of the spans named `name`, in nanoseconds.
std::int64_t total_ns(const char* name);
/// Sum of the counts of the spans named `name`.
std::uint64_t total_count(const char* name);
/// Median duration of the spans named `name`, in nanoseconds.
double median_ns(const char* name);

bool write(const std::string& path);

}  // namespace spans
