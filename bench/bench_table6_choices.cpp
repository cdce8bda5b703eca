// Table 6: parameterization choices of ISAAC for the named evaluation
// problems (on the P100, as in §8.2). The paper's qualitative findings to
// match: (1) smaller tiles for smaller problems, (2) deep reductions always
// split (K_L vs K_G traded off), (3) U drops when cache efficiency stops
// mattering (Blocked SVD).
#include <cstdio>
#include <iostream>

#include "bench_util.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/inference.hpp"
#include "gpusim/device.hpp"

int main(int argc, char** argv) {
  using namespace isaac;
  CliParser cli("bench_table6_choices", "Table 6: ISAAC's parameterization choices");
  cli.add_flag("full", "exhaustive candidate enumeration", false);
  cli.add_int("seed", "seed", 0x15AAC);
  if (!cli.parse(argc, argv)) return 0;

  const auto& dev = gpusim::tesla_p100();
  bench::banner("Table 6 — Parameterization choices of ISAAC", dev);

  bench::ModelOptions mo;
  mo.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto model = bench::gemm_model(dev, mo);
  const gpusim::Simulator sim(dev, 0.03, mo.seed);
  const auto inference = bench::bench_inference(cli.get_flag("full"));

  struct Problem {
    const char* name;
    std::int64_t m, n, k;
    bool ta, tb;
    const char* paper;  // "Ms Ns ML NL U Ks KL KG" from Table 6
  };
  const std::vector<Problem> problems = {
      {"LINPACK (512)", 512, 512, 512, false, true, "2 8 32 32 8 1 1 1"},
      {"LINPACK (2048)", 2048, 2048, 2048, false, true, "8 8 64 64 8 1 1 1"},
      {"DeepBench-F (16)", 2560, 16, 2560, false, false, "2 4 64 16 16 1 1 4"},
      {"DeepBench-F (128)", 2560, 128, 2560, false, false, "4 4 64 32 8 1 1 2"},
      {"DeepBench-B (16)", 2560, 16, 2560, true, false, "4 2 16 16 16 1 8 1"},
      {"DeepBench-B (128)", 2560, 128, 2560, true, false, "4 4 64 64 8 1 1 4"},
      {"ICA (32)", 32, 32, 60000, false, true, "2 4 32 32 8 1 4 32"},
      {"ICA (256)", 256, 256, 60000, false, true, "4 4 32 64 8 1 1 8"},
      {"LAPACK (896)", 896, 896, 32, false, true, "8 4 64 64 8 1 1 1"},
      {"LAPACK (4096)", 4096, 4096, 32, false, true, "8 16 64 128 4 1 1 1"},
  };

  Table table({"Problem", "Ms", "Ns", "ML", "NL", "U", "Ks", "KL", "KG",
               "paper (Ms Ns ML NL U Ks KL KG)"});
  for (const auto& p : problems) {
    codegen::GemmShape shape;
    shape.m = p.m;
    shape.n = p.n;
    shape.k = p.k;
    shape.trans_a = p.ta;
    shape.trans_b = p.tb;
    try {
      const auto result = core::tune<core::GemmOp>(shape, model, sim, inference);
      const auto& t = result.best.tuning;
      table.add_row({p.name, std::to_string(t.ms), std::to_string(t.ns), std::to_string(t.ml),
                     std::to_string(t.nl), std::to_string(t.u), std::to_string(t.ks),
                     std::to_string(t.kl), std::to_string(t.kg), p.paper});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[bench] %s failed: %s\n", p.name, e.what());
    }
  }
  table.print(std::cout);
  std::printf("\nShapes to match: smaller tiles for smaller problems; deep-K problems\n"
              "(DeepBench, ICA) always split the reduction; LINPACK/LAPACK never do.\n");
  return 0;
}
