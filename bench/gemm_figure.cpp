#include "gemm_figure.hpp"

#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "baselines/cublas_sim.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/inference.hpp"

namespace isaac::bench {

GemmFigureOptions parse_figure_flags(int argc, char** argv, const std::string& program,
                                     const std::string& description) {
  CliParser cli(program, description);
  cli.add_flag("full", "paper-scale run: no candidate subsampling, top-100 re-timing", false);
  cli.add_int("seed", "simulation / training seed", 0x15AAC);
  GemmFigureOptions opts;
  if (!cli.parse(argc, argv)) {
    opts.device = nullptr;  // caller exits
    return opts;
  }
  opts.full = cli.get_flag("full");
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  return opts;
}

int run_gemm_figure(const GemmFigureOptions& options) {
  if (options.device == nullptr) return 0;
  const auto& dev = *options.device;
  banner(options.title, dev);

  ModelOptions model_opts;
  model_opts.seed = options.seed;
  const auto model = gemm_model(dev, model_opts);
  const gpusim::Simulator sim(dev, 0.03, options.seed);
  const baselines::CublasSim cublas(dev);
  const auto inference = bench_inference(options.full);

  std::vector<std::string> headers{"group", "task", "dtype", "ISAAC TFLOPS",
                                   "cuBLAS TFLOPS"};
  if (options.show_best_kernel) headers.push_back("Best Kernel TFLOPS");
  headers.push_back("ISAAC/cuBLAS");
  headers.push_back("ISAAC kernel");
  Table table(std::move(headers));

  for (const auto& task : options.tasks) {
    core::GemmTuneResult isaac_result;
    try {
      isaac_result = core::tune<core::GemmOp>(task.shape, model, sim, inference);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[bench] %s: tuning failed: %s\n", task.label.c_str(), e.what());
      continue;
    }
    const auto heuristic = cublas.run_heuristic(sim, task.shape);
    const double isaac_gf = isaac_result.best.measured_gflops;
    const double cublas_gf = heuristic.valid ? heuristic.gflops : 0.0;

    std::vector<std::string> row{task.group, task.label, gpusim::dtype_name(task.shape.dtype),
                                 tflops(isaac_gf), tflops(cublas_gf)};
    if (options.show_best_kernel) {
      const auto best = cublas.run_best_kernel(sim, task.shape);
      row.push_back(tflops(best.valid ? best.gflops : 0.0));
    }
    row.push_back(cublas_gf > 0 ? Table::fmt_double(isaac_gf / cublas_gf, 2) + "x" : "-");
    row.push_back(isaac_result.best.tuning.to_string());
    table.add_row(std::move(row));
  }

  table.print(std::cout);
  std::printf("\nNotes: simulated device; compare shapes (who wins, by what factor), not\n"
              "absolute TFLOPS. cuBLAS column = handcrafted-heuristics path%s.\n",
              options.show_best_kernel ? "; Best Kernel = cublasGemmEx bypass" : "");
  return 0;
}

}  // namespace isaac::bench
