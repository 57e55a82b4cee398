/**
 * System-simulator behaviour: baseline vs incidental NVP over synthetic
 * power traces — forward progress, backups, roll-forward mechanics,
 * dynamic bitwidth and retention shaping effects.
 */

#include <gtest/gtest.h>

#include "sim/result_io.h"
#include "sim/system_sim.h"
#include "trace/trace_generator.h"

using namespace inc;

namespace
{

trace::PowerTrace
testTrace(int profile = 2, std::size_t samples = 20000)
{
    trace::TraceGenerator gen(trace::paperProfile(profile), 77);
    return gen.generate(samples);
}

sim::SimConfig
baselineConfig()
{
    sim::SimConfig cfg;
    cfg.bits.mode = approx::ApproxMode::precise;
    cfg.controller.roll_forward = false;
    cfg.controller.simd_adoption = false;
    cfg.controller.history_spawn = false;
    cfg.controller.process_newest_first = false;
    cfg.score_quality = false;
    return cfg;
}

sim::SimConfig
incidentalConfig(int min_bits = 2, int max_bits = 8)
{
    sim::SimConfig cfg;
    cfg.bits.mode = approx::ApproxMode::dynamic;
    cfg.bits.min_bits = min_bits;
    cfg.bits.max_bits = max_bits;
    cfg.controller.backup_policy = nvm::RetentionPolicy::linear;
    // A sensor slightly faster than the NVP keeps a backlog of frames,
    // the regime incidental computing targets (Sec. 2.1: >80% of
    // captured data would otherwise be abandoned).
    cfg.frame_period_factor = 0.75;
    return cfg;
}

} // namespace

TEST(SystemSim, BaselineMakesForwardProgress)
{
    const auto trace = testTrace();
    sim::SystemSimulator s(kernels::makeKernel("sobel"), &trace,
                           baselineConfig());
    const sim::SimResult r = s.run();
    EXPECT_GT(r.forward_progress, 10000u);
    EXPECT_GT(r.backups, 10u);
    // Every backup is followed by a restore unless the trace ends while
    // off; the cold boot adds one restore without a backup.
    EXPECT_GE(r.restores, r.backups);
    EXPECT_LE(r.restores, r.backups + 1);
    EXPECT_GT(r.on_time_fraction, 0.01);
    EXPECT_LT(r.on_time_fraction, 0.99);
    EXPECT_EQ(r.controller.roll_forwards, 0u);
    EXPECT_EQ(r.controller.adoptions, 0u);
}

TEST(SystemSim, IncidentalRollsForwardAndAdopts)
{
    const auto trace = testTrace();
    sim::SystemSimulator s(kernels::makeKernel("sobel"), &trace,
                           incidentalConfig());
    const sim::SimResult r = s.run();
    EXPECT_GT(r.controller.roll_forwards, 0u);
    EXPECT_GT(r.controller.frames_completed, 0u);
    EXPECT_GT(r.forward_progress, 0u);
    // Incidental lanes contribute beyond lane 0.
    EXPECT_GT(r.forward_progress, r.main_instructions);
}

TEST(SystemSim, IncidentalBeatsBaselineForwardProgress)
{
    const auto trace = testTrace();
    sim::SystemSimulator base(kernels::makeKernel("sobel"), &trace,
                              baselineConfig());
    sim::SystemSimulator incidental(kernels::makeKernel("sobel"), &trace,
                                    incidentalConfig());
    const auto rb = base.run();
    const auto ri = incidental.run();
    EXPECT_GT(ri.forward_progress, rb.forward_progress);
}

TEST(SystemSim, FewerBitsMoreForwardProgress)
{
    const auto trace = testTrace();
    auto runFixed = [&trace](int bits) {
        sim::SimConfig cfg = baselineConfig();
        cfg.bits.mode = approx::ApproxMode::fixed;
        cfg.bits.fixed_bits = bits;
        // Keep the sensor ahead of the NVP so forward progress is
        // energy-limited, not input-limited (the paper's Fig. 15 regime:
        // >80% of captured data has to be abandoned), and keep income
        // modest so low-bit execution does not saturate the duty cycle.
        cfg.frame_period_factor = 0.25;
        cfg.income_scale = 3.0;
        sim::SystemSimulator s(kernels::makeKernel("median"), &trace,
                               cfg);
        return s.run();
    };
    const auto r8 = runFixed(8);
    const auto r1 = runFixed(1);
    EXPECT_GT(r1.forward_progress,
              static_cast<std::uint64_t>(1.4 * r8.forward_progress));
    // Fewer backups at lower precision (paper Fig. 16).
    EXPECT_LT(r1.backups, r8.backups);
}

TEST(SystemSim, RetentionShapingReducesBackupEnergy)
{
    const auto trace = testTrace();
    auto runPolicy = [&trace](nvm::RetentionPolicy policy) {
        sim::SimConfig cfg = incidentalConfig();
        cfg.controller.backup_policy = policy;
        sim::SystemSimulator s(kernels::makeKernel("sobel"), &trace,
                               cfg);
        return s.run();
    };
    const auto full = runPolicy(nvm::RetentionPolicy::full);
    const auto log_p = runPolicy(nvm::RetentionPolicy::log);
    EXPECT_GT(full.backups, 0u);
    EXPECT_GT(log_p.backups, 0u);
    EXPECT_LT(log_p.backup_energy_nj / log_p.backups,
              full.backup_energy_nj / full.backups);
    // Shaped retention produces violation events; full never does.
    EXPECT_GT(log_p.retention_failures.totalViolations(), 0u);
    EXPECT_EQ(full.retention_failures.totalViolations(), 0u);
}

TEST(SystemSim, QualityScoredFramesHaveReasonablePsnr)
{
    const auto trace = testTrace(1);
    sim::SimConfig cfg = incidentalConfig(4, 8);
    sim::SystemSimulator s(kernels::makeKernel("median"), &trace, cfg);
    const auto r = s.run();
    ASSERT_GT(r.frames_scored, 0);
    EXPECT_GT(r.mean_psnr, 10.0);
    EXPECT_GT(r.mean_coverage, 0.2);
}

TEST(SystemSim, BitTicksAccountForAllSamples)
{
    const auto trace = testTrace();
    sim::SystemSimulator s(kernels::makeKernel("sobel"), &trace,
                           incidentalConfig());
    const auto r = s.run();
    std::uint64_t total = 0;
    for (auto t : r.bit_ticks)
        total += t;
    EXPECT_EQ(total, trace.size());
    EXPECT_GT(r.bit_ticks[0], 0u); // some off time
}

TEST(SystemSim, ThresholdOrderingAcrossDesigns)
{
    const auto trace = testTrace();
    auto makeSim = [&trace](const sim::SimConfig &cfg) {
        return std::make_unique<sim::SystemSimulator>(
            kernels::makeKernel("median"), &trace, cfg);
    };
    auto base = makeSim(baselineConfig());
    auto inc28 = makeSim(incidentalConfig(2, 8));
    auto inc68 = makeSim(incidentalConfig(6, 8));
    sim::SimConfig simd4 = baselineConfig();
    simd4.controller.force_full_simd = true;
    simd4.controller.history_spawn = true;
    simd4.controller.roll_forward = true;
    auto full = makeSim(simd4);

    EXPECT_LT(base->startThresholdNj(), inc28->startThresholdNj());
    EXPECT_LT(inc28->startThresholdNj(), inc68->startThresholdNj());
    EXPECT_LT(inc68->startThresholdNj(), full->startThresholdNj());
}

TEST(SystemSim, WaitingForFramesWhenProcessingOutpacesSensor)
{
    // Very high power: the NVP should finish frames faster than the
    // sensor captures them and wait in between.
    std::vector<double> flat(20000, 1500.0);
    trace::PowerTrace trace(std::move(flat), "flat");
    sim::SimConfig cfg = incidentalConfig();
    cfg.frame_period_factor = 4.0;
    sim::SystemSimulator s(kernels::makeKernel("sobel"), &trace, cfg);
    const auto r = s.run();
    EXPECT_GT(r.controller.frames_completed, 3u);
    EXPECT_GT(r.on_time_fraction, 0.9);
}

TEST(SystemSim, SampleLoopSerializesEqualToRun)
{
    // A stepSample() loop plus finalize() is run(): SimBatch and
    // traced benchmark runs rely on it. One config that never holds an
    // incidental lane (the single-lane body) and one that does.
    const auto trace = testTrace(2, 6000);
    sim::SimConfig incidental = incidentalConfig();
    incidental.controller.auto_recompute_times = 1;
    for (const bool multi_lane : {false, true}) {
        const sim::SimConfig cfg =
            multi_lane ? incidental : baselineConfig();
        sim::SystemSimulator whole(kernels::makeKernel("median"), &trace,
                                   cfg);
        const sim::SimResult want = whole.run();
        sim::SystemSimulator stepped(kernels::makeKernel("median"), &trace,
                                     cfg);
        while (stepped.stepSample()) {
        }
        EXPECT_EQ(sim::serializeResult(stepped.finalize()),
                  sim::serializeResult(want));
        EXPECT_GT(want.backups, 0u);
        // Lanes other than 0 committed work only in the multi-lane run.
        EXPECT_EQ(want.forward_progress > want.main_instructions,
                  multi_lane);
    }
}

TEST(SystemSimDeathTest, SingleLaneRunPanicsWhenALaneBecomesActive)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // A config without adoption, history spawns, full SIMD or
    // auto-recompute runs the single-lane body; a caller's recompute
    // request still spawns a lane at the first resume point.
    std::vector<double> flat(4000, 1500.0);
    const trace::PowerTrace trace(std::move(flat), "flat");
    const auto runWithRequest = [&trace](nvp::ExecEngine engine) {
        sim::SimConfig cfg = baselineConfig();
        cfg.exec_engine = engine;
        sim::SystemSimulator s(kernels::makeKernel("sobel"), &trace, cfg);
        s.controller().requestRecompute(0, 2, 1);
        return s.run();
    };
    EXPECT_DEATH(runWithRequest(nvp::ExecEngine::predecoded),
                 "lane 1 became active in a single-lane run");
    // The reference engine keeps the general body, which runs the lane.
    EXPECT_GT(runWithRequest(nvp::ExecEngine::reference)
                  .controller.recompute_spawns,
              0u);
}
