// Microbenchmarks of the simulation substrate (google-benchmark): the cost
// drivers behind every experiment — sparse/dense LU, a full transient step of
// the write path, one fast-path terminated RESET, and a QLC program+read.
#include <benchmark/benchmark.h>

#include "array/write_path.hpp"
#include "bench_common.hpp"
#include "mlc/program.hpp"
#include "numeric/newton.hpp"
#include "numeric/sparse_lu.hpp"
#include "oxram/fast_cell.hpp"
#include "util/rng.hpp"

namespace {

using namespace oxmlc;

void BM_DenseLuSolve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  num::DenseMatrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a.at(r, c) = rng.normal(0, 1);
    a.at(r, r) += 4.0;
  }
  std::vector<double> b(n, 1.0), x(n);
  for (auto _ : state) {
    num::DenseLu lu;
    lu.factorize(a);
    lu.solve(b, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_DenseLuSolve)->Arg(16)->Arg(48)->Arg(96);

void BM_SparseLuLadder(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  num::TripletMatrix t(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 2.0);
    if (i > 0) t.add(i, i - 1, -1.0);
    if (i + 1 < n) t.add(i, i + 1, -1.0);
  }
  const num::CsrMatrix m = num::CsrMatrix::from_triplets(t);
  std::vector<double> b(n, 1.0), x(n);
  for (auto _ : state) {
    num::SparseLu lu;
    lu.factorize(m);
    lu.solve(b, x);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_SparseLuLadder)->Arg(256)->Arg(1024);

// Same ladder, but through the two-phase hot path: the pattern + pivot order
// are frozen by one factorize() outside the loop, every iteration is a
// numeric-only refactorize. Compare against BM_SparseLuLadder at the same n
// for the repeated-same-pattern speedup.
void BM_SparseLuLadderRefactorize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  num::TripletMatrix t(n);
  for (std::size_t i = 0; i < n; ++i) {
    t.add(i, i, 2.0);
    if (i > 0) t.add(i, i - 1, -1.0);
    if (i + 1 < n) t.add(i, i + 1, -1.0);
  }
  const num::CsrMatrix m = num::CsrMatrix::from_triplets(t);
  std::vector<double> b(n, 1.0), x(n);
  num::SparseLu lu;
  lu.factorize(m);
  for (auto _ : state) {
    const bool ok = lu.refactorize(m);
    lu.solve(b, x);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(x.data());
  }
}
BENCHMARK(BM_SparseLuLadderRefactorize)->Arg(256)->Arg(1024);

// Nonlinear ladder above the dense cutoff (n > 96), driven through
// solve_newton with a persistent workspace — the Newton-level view of the
// cached path: pattern-keyed CSR assembly + refactorize every iteration after
// the first. Also the telemetry source for the CI bench-smoke assertion that
// newton.refactorizations and sparse_lu.pattern_hits stay nonzero.
class NonlinearLadderSystem final : public num::NonlinearSystem {
 public:
  explicit NonlinearLadderSystem(std::size_t n) : n_(n) {}
  std::size_t dimension() const override { return n_; }
  void assemble(std::span<const double> x, num::TripletMatrix* jacobian,
                std::span<double> residual) override {
    for (std::size_t i = 0; i < n_; ++i) {
      residual[i] = (3.0 + x[i] * x[i]) * x[i] - 1.0;
      if (i > 0) residual[i] -= x[i - 1];
      if (i + 1 < n_) residual[i] -= x[i + 1];
      if (jacobian == nullptr) continue;
      jacobian->add(i, i, 3.0 + 3.0 * x[i] * x[i]);
      if (i > 0) jacobian->add(i, i - 1, -1.0);
      if (i + 1 < n_) jacobian->add(i, i + 1, -1.0);
    }
  }

 private:
  std::size_t n_;
};

void BM_NewtonLadderWarmWorkspace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  NonlinearLadderSystem system(n);
  num::NewtonWorkspace workspace;
  std::vector<double> x(n, 0.0);
  // Warm the pattern cache and symbolic analysis before timing.
  num::solve_newton(system, x, {}, workspace);
  for (auto _ : state) {
    std::fill(x.begin(), x.end(), 0.0);
    const num::NewtonResult result = num::solve_newton(system, x, {}, workspace);
    benchmark::DoNotOptimize(result.iterations);
  }
}
BENCHMARK(BM_NewtonLadderWarmWorkspace)->Arg(256);

void BM_FastCellTerminatedReset(benchmark::State& state) {
  const double iref = static_cast<double>(state.range(0)) * 1e-6;
  for (auto _ : state) {
    oxram::FastCell cell =
        oxram::FastCell::formed_lrs(oxram::OxramParams{}, oxram::StackConfig{});
    cell.apply_set(oxram::SetOperation{});
    oxram::ResetOperation op;
    op.iref = iref;
    op.pulse.width = 8e-6;
    const auto result = cell.apply_reset(op);
    benchmark::DoNotOptimize(result.final_gap);
  }
}
BENCHMARK(BM_FastCellTerminatedReset)->Arg(6)->Arg(20)->Arg(36)
    ->Unit(benchmark::kMillisecond);

void BM_SpiceTerminatedReset(benchmark::State& state) {
  for (auto _ : state) {
    array::WritePathConfig config;
    config.iref = 20e-6;
    config.pulse_width = 8e-6;
    config.t_stop = 2.5e-6;
    array::WritePath path(config);
    const auto result = path.run();
    benchmark::DoNotOptimize(result.final_resistance);
  }
}
BENCHMARK(BM_SpiceTerminatedReset)->Unit(benchmark::kMillisecond);

void BM_QlcProgramAndRead(benchmark::State& state) {
  const mlc::QlcConfig config = mlc::QlcConfig::paper_default(4, 13);
  const mlc::QlcProgrammer programmer(config);
  Rng rng(7);
  std::size_t level = 0;
  for (auto _ : state) {
    oxram::FastCell cell = oxram::FastCell::formed_lrs(config.nominal_cell, config.stack);
    programmer.program(cell, level, rng);
    benchmark::DoNotOptimize(programmer.read_level(cell, rng));
    level = (level + 5) % 16;
  }
}
BENCHMARK(BM_QlcProgramAndRead)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main: after the benchmark run, dump the observability registry next
// to the other bench artifacts. CI asserts the cached-path counters
// (newton.refactorizations, sparse_lu.pattern_hits) are nonzero there, so the
// hot path can never silently regress to full factorization.
int main(int argc, char** argv) {
  return oxmlc::bench::guard([&] {
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    const std::string path = oxmlc::bench::csv_path("solver_micro.metrics.json");
    oxmlc::obs::write_metrics_json(path);
    std::cout << "[metrics written: " << path << "]\n";
    return 0;
  });
}
