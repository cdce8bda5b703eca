// The benchmark's shared state and its phases.
//
// One run = set-up, then three phases against one core::Context, in this
// order: cold arrivals, hot dispatch, hot execute. The cold phase always runs
// for twice --seconds: it ends with every entry refined and the pool drained,
// and its shapes, with the execute set's, are the dispatch set the hot
// dispatch phase then serves, all cache hits on an idle pool. A hot phase
// runs for --seconds when the workload is named after it and for 0.3 of that
// otherwise, so every run reports every end-to-end metric. The Context has
// the library's default options.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/isaac.hpp"
#include "shapes.hpp"
#include "util.hpp"

namespace perfbench {

namespace icore = isaac::core;
namespace icd = isaac::codegen;

enum class Phase { dispatch, execute, cold };

struct Config {
  Phase workload = Phase::dispatch;
  std::string workload_name;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

/// Refined tunings a hot phase must be served, aligned with its ShapeSet.
struct ExpectedTunings {
  std::vector<icd::GemmTuning> gemm;
  std::vector<icd::ConvTuning> conv;
  std::vector<icd::GemmTuning> bgemm;
};

template <typename Op>
auto& shapes_of(ShapeSet& s) {
  if constexpr (std::is_same_v<Op, icore::GemmOp>) return s.gemm;
  else if constexpr (std::is_same_v<Op, icore::ConvOp>) return s.conv;
  else return s.bgemm;
}

template <typename Op>
auto& tunings_of(ExpectedTunings& t) {
  if constexpr (std::is_same_v<Op, icore::GemmOp>) return t.gemm;
  else if constexpr (std::is_same_v<Op, icore::ConvOp>) return t.conv;
  else return t.bgemm;
}

/// Calls f(Op{}) for each operation, GEMM first.
template <typename F>
void for_each_op(F&& f) {
  f(icore::GemmOp{});
  f(icore::ConvOp{});
  f(icore::BatchedGemmOp{});
}

/// What a phase measured, beyond the end-to-end metrics it sets.
struct PhaseStats {
  double headline_latency = 0.0;  // the phase's p50, for the trace overhead ratio
  double hit_ratio = 0.0;         // ProfileCache hits / lookups during the phase
};

struct Bench {
  Config cfg;
  std::unique_ptr<icore::Context> ctx;
  ShapeGenerator shapes{0};
  ShapeSet dispatch_set;
  ShapeSet execute_set;
  ExpectedTunings dispatch_expected;
  Metrics e2e;     // end-to-end metrics (printed with --trace 0)
  Metrics layers;  // per-layer metrics (printed with --trace 1)
  Tally tally;
  std::vector<std::string> problems;  // run-level checks beyond per-operation ones

  void fail(const std::string& why) { problems.push_back(why); }
};

/// Build the Context, collect + train, and warm the execute set until every
/// entry is refined. Done three times; setup_s is the median.
void setup(Bench& b);

PhaseStats run_dispatch(Bench& b, double seconds);
PhaseStats run_execute(Bench& b, double seconds);
PhaseStats run_cold(Bench& b, double seconds);

/// Direct calls into each layer's public functions, under trace spans
/// (traced run only): fork/join, probe ranking, featurize, MLP forward,
/// linalg GEMM, refinement search.
void probe_layers(Bench& b);

}  // namespace perfbench
