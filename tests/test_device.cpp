// Device model: published spec numbers, calibration, scaling-curve shape,
// offload partitioning.
#include <gtest/gtest.h>

#include <cmath>

#include "device/device_spec.h"
#include "util/contracts.h"
#include "device/offload.h"
#include "device/perf_model.h"

namespace tinge {
namespace {

TEST(DeviceSpec, PhiMatchesPublishedPeak) {
  const DeviceSpec phi = xeon_phi_5110p();
  EXPECT_EQ(phi.total_threads(), 240);
  EXPECT_EQ(phi.vector_lanes_f32(), 16);
  // 60 cores * 1.053 GHz * 16 lanes * 2 flops ~ 2021 SP GFLOP/s.
  EXPECT_NEAR(phi.peak_sp_gflops(), 2021.8, 5.0);
}

TEST(DeviceSpec, PhiSingleThreadPerCoreIsHalfRate) {
  const DeviceSpec phi = xeon_phi_5110p();
  EXPECT_NEAR(phi.core_sp_gflops(1), 0.5 * phi.core_sp_gflops(2), 1e-9);
  EXPECT_NEAR(phi.core_sp_gflops(4), phi.core_sp_gflops(2), 1e-9);
}

TEST(DeviceSpec, DualXeonMatchesPublishedPeak) {
  const DeviceSpec xeon = dual_xeon_e5_2670();
  EXPECT_EQ(xeon.total_threads(), 32);
  // 16 cores * 2.6 GHz * 8 lanes * 2 flops * 1.1 SMT ~ 732 SP GFLOP/s.
  EXPECT_NEAR(xeon.peak_sp_gflops(), 732.2, 5.0);
}

TEST(DeviceSpec, PhiOutpeaksXeonAsInPaper) {
  EXPECT_GT(xeon_phi_5110p().peak_sp_gflops(),
            2.0 * dual_xeon_e5_2670().peak_sp_gflops());
}

TEST(DeviceSpec, HostDetectionSane) {
  const DeviceSpec host = host_device();
  EXPECT_GE(host.cores, 1);
  EXPECT_GE(host.freq_ghz, 0.1);
  EXPECT_GE(host.vector_bits, 128);
  EXPECT_GT(host.peak_sp_gflops(), 0.0);
}

// ---- workload ------------------------------------------------------------------

TEST(MiWorkload, FlopAccounting) {
  const MiWorkload w{100, 1000, 3, 10};
  // accumulation: 100*1000*9*2 = 1.8e6; entropy: 100*100*12 = 1.2e5
  EXPECT_DOUBLE_EQ(w.flops(), 1.8e6 + 1.2e5);
}

TEST(MiWorkload, AllPairsHelper) {
  const MiWorkload w = MiWorkload::all_pairs(100, 50, 3, 10);
  EXPECT_EQ(w.pairs, 4950u);
  EXPECT_EQ(w.samples, 50u);
}

TEST(MiWorkload, PaperScaleIsTeraflopRange) {
  // 15,575 genes x 3,137 arrays: ~1.2e8 pairs x 3137 samples x 9 FMAs
  // ~ 7e12 flops of essential work (the paper's 22 minutes reflects far
  // lower achieved efficiency than peak — see EXPERIMENTS.md).
  const MiWorkload w = MiWorkload::all_pairs(15575, 3137, 3, 10);
  EXPECT_GT(w.flops(), 5e12);
  EXPECT_LT(w.flops(), 1e13);
}

// ---- perf model -----------------------------------------------------------------

TEST(PerfModel, EfficiencyCalibratedFromMeasurement) {
  const DeviceSpec host = host_device();
  const double half_peak = 0.5 * host.core_sp_gflops(1);
  const PerfModel model(host, half_peak);
  EXPECT_NEAR(model.efficiency(), 0.5, 1e-9);
}

TEST(PerfModel, EfficiencyClamped) {
  const DeviceSpec host = host_device();
  EXPECT_LE(PerfModel(host, 1e9).efficiency(), 1.0);
  EXPECT_GE(PerfModel(host, 1e-9).efficiency(), 0.01);
  EXPECT_THROW(PerfModel(host, 0.0), ContractViolation);
}

TEST(PerfModel, ThroughputMonotoneInThreads) {
  const DeviceSpec phi = xeon_phi_5110p();
  const PerfModel model(host_device(), 10.0);
  double previous = 0.0;
  for (const int threads : {1, 2, 15, 60, 120, 180, 240}) {
    const double rate = model.device_gflops(phi, threads);
    EXPECT_GE(rate, previous) << threads << " threads";
    previous = rate;
  }
}

TEST(PerfModel, PhiNeedsTwoThreadsPerCoreToSaturate) {
  // The paper's signature scaling shape: 60 -> 120 threads nearly doubles
  // throughput; 120 -> 240 adds nothing.
  const DeviceSpec phi = xeon_phi_5110p();
  const PerfModel model(host_device(), 10.0);
  const double t60 = model.device_gflops(phi, 60);
  const double t120 = model.device_gflops(phi, 120);
  const double t240 = model.device_gflops(phi, 240);
  EXPECT_NEAR(t120 / t60, 2.0, 0.01);
  EXPECT_NEAR(t240 / t120, 1.0, 0.01);
}

TEST(PerfModel, ThreadsBeyondDeviceClamp) {
  const DeviceSpec phi = xeon_phi_5110p();
  const PerfModel model(host_device(), 10.0);
  EXPECT_DOUBLE_EQ(model.device_gflops(phi, 240),
                   model.device_gflops(phi, 999));
}

TEST(PerfModel, PredictTimeScalesWithWork) {
  const DeviceSpec phi = xeon_phi_5110p();
  const PerfModel model(host_device(), 10.0);
  const MiWorkload small = MiWorkload::all_pairs(1000, 500, 3, 10);
  MiWorkload big = small;
  big.pairs *= 4;
  const double t_small = model.predict_seconds(phi, small, 240);
  const double t_big = model.predict_seconds(phi, big, 240);
  EXPECT_NEAR(t_big / t_small, 4.0, 0.05);
}

TEST(PerfModel, SerialFloorAddsUp) {
  const DeviceSpec phi = xeon_phi_5110p();
  const PerfModel model(host_device(), 10.0);
  const MiWorkload w = MiWorkload::all_pairs(100, 100, 3, 10);
  const double base = model.predict_seconds(phi, w, 240, 0.0);
  EXPECT_NEAR(model.predict_seconds(phi, w, 240, 2.5), base + 2.5, 1e-12);
}

TEST(PerfModel, ScalingCurveMatchesPointPredictions) {
  const DeviceSpec xeon = dual_xeon_e5_2670();
  const PerfModel model(host_device(), 10.0);
  const MiWorkload w = MiWorkload::all_pairs(2000, 1000, 3, 10);
  const std::vector<int> threads{1, 2, 4, 8, 16, 32};
  const auto curve = model.predict_scaling(xeon, w, threads);
  ASSERT_EQ(curve.size(), threads.size());
  for (std::size_t i = 0; i < threads.size(); ++i)
    EXPECT_DOUBLE_EQ(curve[i], model.predict_seconds(xeon, w, threads[i]));
  EXPECT_GT(curve.front(), curve.back());
}

TEST(Offload, LaneSplitProportionalToRates) {
  const std::vector<double> f = plan_lane_split({3.0, 1.0});
  ASSERT_EQ(f.size(), 2u);
  EXPECT_NEAR(f[0], 0.75, 1e-12);
  EXPECT_NEAR(f[1], 0.25, 1e-12);
  EXPECT_THROW(plan_lane_split({}), ContractViolation);
  EXPECT_THROW(plan_lane_split({1.0, 0.0}), ContractViolation);
}

// ---- offload -------------------------------------------------------------------

TEST(Offload, FractionsSumToOneAndBalance) {
  const PerfModel model(host_device(), 10.0);
  const DeviceSpec xeon = dual_xeon_e5_2670();
  const DeviceSpec phi = xeon_phi_5110p();
  const MiWorkload w = MiWorkload::all_pairs(5000, 2000, 3, 10);
  const OffloadPlan plan = plan_offload(model, xeon, 32, phi, w);
  EXPECT_NEAR(plan.host_fraction + plan.device_fraction, 1.0, 1e-12);
  EXPECT_GT(plan.device_fraction, plan.host_fraction);  // Phi is faster
  // Both sides finish within a few percent of each other by construction.
  EXPECT_NEAR(plan.host_seconds / plan.device_seconds, 1.0, 0.05);
  EXPECT_GT(plan.speedup_vs_host, 1.5);
}

TEST(Offload, SymmetricDevicesSplitEvenly) {
  const PerfModel model(host_device(), 10.0);
  const DeviceSpec xeon = dual_xeon_e5_2670();
  const MiWorkload w = MiWorkload::all_pairs(1000, 500, 3, 10);
  const OffloadPlan plan = plan_offload(model, xeon, 32, xeon, w);
  EXPECT_NEAR(plan.host_fraction, 0.5, 1e-6);
  EXPECT_NEAR(plan.speedup_vs_host, 2.0, 0.05);
}


TEST(DeviceSpec, KnlMatchesPublishedPeak) {
  const DeviceSpec knl = xeon_phi_7250_knl();
  EXPECT_EQ(knl.total_threads(), 272);
  // 68 cores * 1.4 GHz * 16 lanes * 2 VPUs * 2 flops ~ 6093 SP GFLOP/s.
  EXPECT_NEAR(knl.peak_sp_gflops(), 6092.8, 10.0);
  EXPECT_GT(knl.peak_sp_gflops(), 2.5 * xeon_phi_5110p().peak_sp_gflops());
}

TEST(PerfModel, KnlSaturatesWithTwoThreadsPerCore) {
  const DeviceSpec knl = xeon_phi_7250_knl();
  const PerfModel model(host_device(), 10.0);
  const double t68 = model.device_gflops(knl, 68);
  const double t136 = model.device_gflops(knl, 136);
  const double t272 = model.device_gflops(knl, 272);
  EXPECT_NEAR(t136 / t68, 1.0 / 0.7, 0.01);
  EXPECT_NEAR(t272 / t136, 1.0, 0.01);
}

}  // namespace
}  // namespace tinge
