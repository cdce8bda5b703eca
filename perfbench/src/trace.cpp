#include "trace.hpp"

#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "util.hpp"

namespace perfbench::trace {

namespace {

constexpr std::size_t kCapacityPerThread = std::size_t{1} << 18;

struct Buffer {
  std::uint64_t thread = 0;
  std::uint64_t next_id = 0;
  std::uint64_t dropped = 0;
  std::vector<Record> records;
};

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<Buffer>> g_registry;  // guarded by g_registry_mutex

thread_local Buffer* tl_buffer = nullptr;
thread_local std::uint64_t tl_current = 0;
thread_local std::uint64_t tl_request = 0;

Buffer& local_buffer() {
  if (tl_buffer == nullptr) {
    auto buffer = std::make_unique<Buffer>();
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    buffer->thread = g_registry.size() + 1;
    tl_buffer = buffer.get();
    g_registry.push_back(std::move(buffer));
  }
  return *tl_buffer;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t request) : name_(name) {
  if (!enabled()) return;
  Buffer& buffer = local_buffer();
  id_ = (buffer.thread << 40) | ++buffer.next_id;
  parent_ = tl_current;
  prev_request_ = tl_request;
  request_ = request != 0 ? request : tl_request;
  tl_current = id_;
  tl_request = request_;
  start_ns_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  const std::uint64_t end = now_ns();
  Buffer& buffer = *tl_buffer;
  if (buffer.records.size() < kCapacityPerThread) {
    buffer.records.push_back(Record{name_, id_, parent_, request_, start_ns_, end});
  } else {
    ++buffer.dropped;
  }
  tl_current = parent_;
  tl_request = prev_request_;
}

std::vector<Record> collect() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::vector<Record> all;
  for (const auto& buffer : g_registry) {
    all.insert(all.end(), buffer->records.begin(), buffer->records.end());
  }
  return all;
}

std::uint64_t dropped() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  std::uint64_t total = 0;
  for (const auto& buffer : g_registry) total += buffer->dropped;
  return total;
}

std::map<std::string, Summary> summarize(const std::vector<Record>& records) {
  // Children of one span run on its thread and nest inside it, so they never
  // overlap one another: the time they cover is the sum of their durations.
  std::unordered_map<std::uint64_t, std::uint64_t> child_ns;
  for (const Record& r : records) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::map<std::string, Summary> out;
  for (const Record& r : records) {
    const double duration = static_cast<double>(r.end_ns - r.start_ns);
    const auto it = child_ns.find(r.id);
    const double children = it == child_ns.end() ? 0.0 : static_cast<double>(it->second);
    Summary& s = out[r.name];
    s.duration_ns.push_back(duration);
    s.self_ns.push_back(duration - children);
  }
  return out;
}

bool write_json(const std::string& path, const std::vector<Record>& records,
                const std::map<std::string, Summary>& summary, const std::string& header_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"header\":%s,\"dropped\":%llu,\"summary\":{", header_json.c_str(),
               static_cast<unsigned long long>(dropped()));
  bool first = true;
  for (const auto& [name, s] : summary) {
    double total_self = 0.0;
    for (double v : s.self_ns) total_self += v;
    std::fprintf(f, "%s\"%s\":{\"count\":%zu,\"median_duration_ns\":%.1f,"
                 "\"median_self_ns\":%.1f,\"total_self_ns\":%.0f}",
                 first ? "" : ",", name.c_str(), s.self_ns.size(), median(s.duration_ns),
                 median(s.self_ns), total_self);
    first = false;
  }
  std::fprintf(f, "},\"fields\":[\"name\",\"id\",\"parent\",\"request\",\"start_ns\",\"end_ns\"],"
               "\"spans\":[");
  first = true;
  for (const Record& r : records) {
    std::fprintf(f, "%s[\"%s\",%llu,%llu,%llu,%llu,%llu]", first ? "" : ",\n", r.name,
                 static_cast<unsigned long long>(r.id), static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request),
                 static_cast<unsigned long long>(r.start_ns),
                 static_cast<unsigned long long>(r.end_ns));
    first = false;
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
