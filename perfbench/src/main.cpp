// End-to-end benchmark of the ISAAC dispatch runtime.
//
//   perfbench --workload <hot_dispatch|hot_execute|cold_arrivals> --seed <n>
//             --seconds <s> --trace <0|1> [--out <dir>]
//
// Prints a machine fingerprint line, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones (library telemetry off, no spans); with --trace 1
// they are the per-layer ones, from spans recorded in this program around
// calls into each layer, and the span records are written to --out.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

namespace {

// Small-to-mid host-executable shapes for the execute phase.
constexpr std::size_t kExecuteGemm = 8, kExecuteConv = 4, kExecuteBgemm = 4;
// A hot phase the workload is not named after runs this share of --seconds.
constexpr double kSecondaryShare = 0.3;
// The cold phase runs this multiple of --seconds in every run: it sees two
// new shapes a second, and its medians need some forty.
constexpr double kColdShare = 2.0;
// Longest --seconds, as perfbench/run.py accepts it.
constexpr double kMaxSeconds = 60.0;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <hot_dispatch|hot_execute|"
               "cold_arrivals> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  return 2;
}

bool parse(int argc, char** argv, Config& cfg) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = true;
      cfg.workload_name = value;
      if (value == "hot_dispatch") cfg.workload = Phase::dispatch;
      else if (value == "hot_execute") cfg.workload = Phase::execute;
      else if (value == "cold_arrivals") cfg.workload = Phase::cold;
      else return false;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
      if (!(cfg.seconds > 0.0 && cfg.seconds <= kMaxSeconds)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      cfg.trace = value == "1";
    } else if (flag == "--out") {
      cfg.out_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string fingerprint(const Config& cfg) {
  const char* threads = std::getenv("ISAAC_THREADS");
  char buf[1024];
  std::snprintf(buf, sizeof buf,
                "{\"nproc\":%u,\"cpu\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
                "\"isaac_threads\":\"%s\",\"pool_threads\":%zu,\"workload\":\"%s\","
                "\"seed\":%llu,\"seconds\":%g,\"trace\":%d}",
                std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
                json_escape(PERFBENCH_COMPILER).c_str(), PERFBENCH_BUILD_TYPE,
                threads ? json_escape(threads).c_str() : "unset",
                isaac::ThreadPool::global().size(), cfg.workload_name.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0);
  return buf;
}

/// Refuse configurations whose numbers would not be comparable.
const char* refusal(const Config& cfg) {
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) return "the library build is not Release";
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG unset)";
#endif
  const char* failpoints = std::getenv("ISAAC_FAILPOINTS");
  if (failpoints != nullptr && *failpoints != '\0') return "ISAAC_FAILPOINTS is set";
  const char* telemetry = std::getenv("ISAAC_TELEMETRY");
  if (!cfg.trace && telemetry != nullptr && *telemetry != '\0') {
    return "ISAAC_TELEMETRY is set (library telemetry must stay off in timed runs)";
  }
  return nullptr;
}

PhaseStats run_phase(Bench& b, Phase phase, double seconds) {
  switch (phase) {
    case Phase::dispatch: return run_dispatch(b, seconds);
    case Phase::execute: return run_execute(b, seconds);
    default: return run_cold(b, seconds);
  }
}

/// Median self time of a span name, in `scale` units of ns.
double self_median(const std::map<std::string, trace::Summary>& s, const char* name, double scale) {
  const auto it = s.find(name);
  return it == s.end() ? 0.0 : median(it->second.self_ns) / scale;
}

void print_result(const Bench& b, const Metrics& metrics) {
  const bool correct = b.problems.empty() && b.tally.failed == 0;
  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(b.tally.attempted) +
                    ", \"failed\": " + std::to_string(b.tally.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics.values) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), value.first, value.second.c_str());
    out += buf;
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int run(const Config& cfg) {
  if (const char* why = refusal(cfg)) {
    std::fprintf(stderr, "perfbench: refusing to run: %s\n", why);
    return 3;
  }
  Bench b;
  b.cfg = cfg;
  b.shapes = ShapeGenerator(cfg.seed);
  b.execute_set = b.shapes.host_executable(kExecuteGemm, kExecuteConv, kExecuteBgemm);
  const std::string print = fingerprint(cfg);
  std::printf("fingerprint %s\n", print.c_str());

  trace::set_enabled(cfg.trace);
  setup(b);
  if (!cfg.trace && (isaac::telemetry::enabled() || isaac::telemetry::tracing())) {
    std::fprintf(stderr, "perfbench: library telemetry is on in a timed run\n");
    return 3;
  }

  PhaseStats main_stats;
  double untraced_headline = 0.0;
  for (const Phase phase : {Phase::cold, Phase::dispatch, Phase::execute}) {
    const bool main = phase == cfg.workload;
    // The cold phase always runs in full: it also warms the dispatch set.
    const double seconds = phase == Phase::cold ? cfg.seconds * kColdShare
                           : main               ? cfg.seconds
                                                : cfg.seconds * kSecondaryShare;
    if (main && cfg.trace) {
      // The workload's own phase once more without spans, for the tracing
      // overhead.
      trace::set_enabled(false);
      untraced_headline = run_phase(b, phase, seconds * kSecondaryShare).headline_latency;
      trace::set_enabled(true);
    }
    const PhaseStats stats = run_phase(b, phase, seconds);
    if (main) main_stats = stats;
    if (phase != Phase::cold && stats.hit_ratio != 1.0) {
      b.fail("hot phase served a cache miss");
    }
  }

  for (const std::string& p : b.problems) std::fprintf(stderr, "perfbench: check failed: %s\n", p.c_str());
  if (!cfg.trace) {
    print_result(b, b.e2e);
    return 0;
  }

  probe_layers(b);
  const auto records = trace::collect();
  const auto s = trace::summarize(records);
  b.layers.set("core.key_ns", self_median(s, "core.key", 1.0), "ns");
  b.layers.set("core.lookup_ns", self_median(s, "core.lookup", 1.0), "ns");
  b.layers.set("core.select_hit_ns", self_median(s, "core.select", 1.0), "ns");
  b.layers.set("core.hit_ratio", main_stats.hit_ratio, "ratio");
  b.layers.set("codegen.execute_us", self_median(s, "codegen.execute", 1e3), "us");
  b.layers.set("common.fork_join_us", self_median(s, "common.fork_join", 1e3), "us");
  b.layers.set("gpusim.analyze_ns", self_median(s, "gpusim.analyze", 1.0), "ns");
  b.layers.set("gpusim.launch_median_us", self_median(s, "gpusim.launch_median", 1e3), "us");
  b.layers.set("search.probe_us", self_median(s, "search.probe", 1e3), "us");
  b.layers.set("search.refine_ms", self_median(s, "search.refine", 1e6), "ms");
  b.layers.set("tuning.collect_s", self_median(s, "tuning.collect", 1e9), "s");
  b.layers.set("mlp.train_s", self_median(s, "mlp.train", 1e9), "s");
  b.layers.set("telemetry.trace_overhead_ratio",
               main_stats.headline_latency / std::max(untraced_headline, 1e-9), "ratio");

  if (!cfg.out_dir.empty()) {
    const std::string path = cfg.out_dir + "/trace-" + cfg.workload_name + "-seed" +
                             std::to_string(cfg.seed) + ".json";
    if (!trace::write_json(path, records, s, print)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "perfbench: %zu spans written to %s\n", records.size(), path.c_str());
    }
  }
  print_result(b, b.layers);
  return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Config cfg;
  if (!perfbench::parse(argc, argv, cfg)) return perfbench::usage("bad arguments");
  try {
    return perfbench::run(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
