// Batched structure-of-arrays programming engine: N cells advanced in
// lockstep through the quasi-static stack solve and gap ODE.
//
// CellBatch is the only production code that steps a programming pulse.
// Array-scale workloads (a 16-cell word RESET, a 16-level Monte-Carlo trial,
// a full array image) add one lane per cell; a single cell's
// FastCell::apply_* runs a one-lane batch. The kernel holds the hot per-lane
// state (gap, warm-start current and voltage, C2C rate factor, sampled device
// parameters) in contiguous arrays and advances every active lane one time
// step per round:
//
//   while lanes remain active:
//     advance the active lanes four at a time (batch_simd.cpp)
//     compact: lanes whose pulse completed retire and stop being visited
//
// Per-lane termination masking is the SoA analogue of the per-bit-line stop
// in array/word_path.hpp: a lane whose cell current reaches its IrefR enters
// its commanded ramp-down and retires, while neighbouring lanes keep
// programming to their own (deeper) references.
//
// Lane-independence contract: every lane update is element-wise and masked,
// so a lane's arithmetic depends only on its own state, never on which lanes
// share its pack, how many lanes the batch holds, or how lanes are sharded
// across threads. A cell therefore gets bitwise the same result programmed
// alone or as any lane of a word; that is what lets one-cell and word-shaped
// callers share this engine (pinned by tests/property_test.cpp).
//
// Each lane replays the control flow of the reference stepper in
// reference_pulse.hpp — same waveform, same termination interpolation, same
// step-size policy, same gap integrator — and the stack solve converges to
// the same root within the shared kStackSolveRelTol (see fast_cell.hpp). The
// batch equivalence suites pin the agreement at 1e-9.
#pragma once

#include <cstddef>
#include <vector>

#include "numeric/simd.hpp"
#include "oxram/fast_cell.hpp"
#include "spice/waveform.hpp"

namespace oxmlc::oxram {

// Execution knob for CellBatch::run(). It cannot change results: lanes are
// independent, so sharding them across threads is bit-identical to the
// serial sweep. The pack backend comes from num::simd::active_backend().
struct BatchRunOptions {
  // Lane shards claimed through util::parallel_for; 0 = hardware_concurrency.
  std::size_t threads = 1;
};

class CellBatch {
 public:
  CellBatch() = default;

  // Adds one lane programming `cell` with the given operation. The cell's
  // parameters, stack, gap, virgin flag and rate factor are snapshotted at
  // add time; run() writes the final gap/virgin state back. Returns the lane
  // id (index into run()'s result vector). A cell must appear in at most one
  // lane per run, and must not be read or mutated while run() is executing.
  std::size_t add_reset(FastCell& cell, const ResetOperation& op);
  std::size_t add_set(FastCell& cell, const SetOperation& op);

  std::size_t size() const { return gap_.size(); }
  bool empty() const { return gap_.empty(); }

  // Advances every lane to completion and returns per-lane results indexed
  // by lane id. One-shot: call clear() before reusing the batch (capacity is
  // retained across clear()).
  std::vector<OperationResult> run() { return run(BatchRunOptions{}); }
  std::vector<OperationResult> run(const BatchRunOptions& options);

  void clear();

 private:
  // Cold per-lane state: the operation spec and the stepping variables of
  // the reference stepper, hoisted out of the call stack so a lane can be
  // advanced one step at a time.
  struct LaneControl {
    PulseShape pulse;
    spice::PulseWaveform natural{spice::PulseSpec{}};
    Polarity polarity = Polarity::kSet;
    double v_wl = 0.0;
    double dt_max = 0.0;
    double iref = -1.0;  // < 0: no termination (SET / forming / untimed RESET)
    double natural_end = 0.0;
    double t = 0.0;
    double t_end = 0.0;
    double ramp_start = -1.0;
    double ramp_from = 0.0;
    double prev_i = 0.0;
    double prev_p_src = 0.0;
    double prev_p_cell = 0.0;
    double prev_t = 0.0;
    bool first_sample = true;
    bool virgin = false;
  };

  std::size_t add_lane(FastCell& cell, const PulseShape& pulse, Polarity polarity,
                       double v_wl, bool through_mirror, double iref, double dt_max);

  double drive_value(const LaneControl& lane, double t) const;

  // Scalar pieces of the per-step control flow the pack engine
  // (batch_simd.cpp) runs per lane: result finalization, the
  // energy/termination sample bookkeeping, the near-termination step
  // refinement, and the waveform-corner snapping.
  void finalize_lane(std::size_t lane);
  void update_sample(std::size_t lane, double v_d, double current, double v_cell);
  struct StepPolicy {
    double gap_fraction;
    double dt_cap;
  };
  StepPolicy step_policy(const LaneControl& c, const OperationResult& result,
                         double current) const;
  double apply_corners(const LaneControl& c, double dt) const;

  // Runs one shard of lanes [begin, end) to completion with its own
  // active-lane compaction loop on the `backend` pack; returns the total
  // steps taken. Lanes advance four at a time through a v_cell-primal masked
  // Newton stack solve and pack gap integration (batch_simd.cpp). All lane
  // updates are masked element-wise, so results are bitwise independent of
  // how lanes group into packs, and therefore of sharding.
  std::uint64_t run_span(std::size_t begin, std::size_t end, num::simd::Backend backend);
  template <typename Pack>
  std::uint64_t run_span_vector(std::size_t begin, std::size_t end);
  template <typename Pack>
  void step_pack(const std::size_t* lanes, std::size_t count);

  // Flattened per-lane parameter arrays the pack engine gathers from (filled
  // by prepare_scratch() at run() start; read-only during the run).
  struct VecScratch {
    std::vector<double> i0, g0, v0, r_leak, g_min, g_max, g_ref, k0, ea_ox, ea_red,
        dea_form, axi, bxi, t_ambient, r_th, t_max_rise, g_upper_virgin, r_series,
        v_wl, acc_vt0, acc_beta, acc_lambda, mir_vt0, mir_beta, is_reset, is_mirror,
        sign;
  };
  void prepare_scratch();

  // Hot SoA state, indexed by lane id. gap_, warm_i_ and warm_v_ are read and
  // written every step; params_/stacks_/rate_factor_ are read-only during
  // run(). warm_v_ is the previous step's cell voltage — the pack engine's
  // Newton seed; <= 0 means "no warm point" (cold lane or zero-op last step)
  // and routes the lane through the scalar solve_stack_warm for that step,
  // which warm_i_ seeds.
  std::vector<double> gap_;
  std::vector<double> warm_i_;
  std::vector<double> warm_v_;
  std::vector<double> rate_factor_;
  std::vector<OxramParams> params_;
  std::vector<StackConfig> stacks_;
  VecScratch scratch_;

  std::vector<LaneControl> control_;
  std::vector<FastCell*> cells_;
  std::vector<OperationResult> results_;
};

}  // namespace oxmlc::oxram
