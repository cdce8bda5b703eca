// In-memory span recorder for the traced run (--trace 1).
//
// Spans are opened in the benchmark's own code around calls into the
// library's public functions, one layer per span name ("core.select",
// "codegen.execute", ...). Each record carries its name, start and end
// (steady clock, ns), the id of the span that encloses it on the same thread,
// and the id of the request it serves. Records go to a per-thread buffer with
// a fixed capacity (records past it are counted, not stored), stay in memory
// while the benchmark runs, and are written out once at the end.
//
// With tracing off a Span costs one relaxed load and a branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

struct Record {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

void set_enabled(bool on);
bool enabled();

/// Opens a span under this thread's innermost open span. A root span names
/// its request; a child inherits the enclosing span's request.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t request_ = 0;
  std::uint64_t prev_request_ = 0;
  std::uint64_t start_ns_ = 0;
};

/// Per-name summary of every stored record: durations and self times (a
/// span's duration minus the time its child spans cover), in ns.
struct Summary {
  std::vector<double> duration_ns;
  std::vector<double> self_ns;
};

/// Every stored record, across threads.
std::vector<Record> collect();

/// Group records by span name and compute self times.
std::map<std::string, Summary> summarize(const std::vector<Record>& records);

/// Records that did not fit into a thread's buffer.
std::uint64_t dropped();

/// Write the records and the per-name summary as JSON.
bool write_json(const std::string& path, const std::vector<Record>& records,
                const std::map<std::string, Summary>& summary, const std::string& header_json);

}  // namespace perfbench::trace
