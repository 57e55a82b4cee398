/**
 * Tests for the src/runner experiment-orchestration subsystem: thread
 * pool lifecycle, sweep expansion/seeding, parallel-vs-serial
 * determinism, deterministic aggregation order, failure capture
 * with bounded retry, and the campaign-shared kernel inputs.
 */

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "kernels/kernel.h"
#include "kernels/kernel_inputs.h"
#include "runner/sweep.h"
#include "runner/thread_pool.h"
#include "sim/result_io.h"
#include "trace/trace_generator.h"
#include "util/fs.h"

using namespace inc;

namespace
{

// ---------------------------------------------------------------------
// ThreadPool

TEST(ThreadPool, ExecutesAllSubmittedTasks)
{
    std::atomic<int> counter{0};
    runner::ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    for (int i = 0; i < 100; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WaitOnIdlePoolReturnsImmediately)
{
    runner::ThreadPool pool(2);
    pool.wait(); // must not hang
    SUCCEED();
}

TEST(ThreadPool, ShutdownDrainsQueueAndJoins)
{
    std::atomic<int> counter{0};
    {
        runner::ThreadPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&counter] {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(50));
                ++counter;
            });
        pool.shutdown(); // graceful: completes accepted work
        EXPECT_EQ(counter.load(), 50);
        pool.submit([&counter] { ++counter; }); // no-op after shutdown
        pool.shutdown();                        // idempotent
    } // destructor must join cleanly after explicit shutdown
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, DestructorJoinsWithQueuedWork)
{
    std::atomic<int> counter{0};
    {
        runner::ThreadPool pool(3);
        for (int i = 0; i < 30; ++i)
            pool.submit([&counter] { ++counter; });
        // No wait(): the destructor must drain and join by itself.
    }
    EXPECT_EQ(counter.load(), 30);
}

TEST(ThreadPool, DefaultThreadsIsPositive)
{
    EXPECT_GE(runner::ThreadPool::defaultThreads(), 1u);
}

TEST(ThreadPool, ZeroWorkerSpecFallsBackToDefault)
{
    // A literal zero-thread pool would deadlock every wait(); the
    // constructor must reject the spec and fall back to
    // defaultThreads() instead of honoring it.
    std::atomic<int> counter{0};
    runner::ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), runner::ThreadPool::defaultThreads());
    EXPECT_GE(pool.threadCount(), 1u);
    for (int i = 0; i < 10; ++i)
        pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), 10);
}

/**
 * Enqueue-during-drain stress: producer threads hammer submit() while
 * the main thread repeatedly drains with wait(). Under the
 * INCIDENTAL_TSAN CI job this is the lock-discipline proof for the
 * pool's queue, idle accounting and drain condition; in the normal
 * tier it still pins the liveness contract (no lost tasks, no hang).
 */
TEST(ThreadPool, EnqueueDuringDrainStress)
{
    constexpr int kProducers = 4;
    constexpr int kTasksPerProducer = 500;

    std::atomic<int> executed{0};
    std::atomic<bool> go{false};
    runner::ThreadPool pool(4);

    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&pool, &executed, &go] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (int i = 0; i < kTasksPerProducer; ++i)
                pool.submit([&executed] {
                    executed.fetch_add(1, std::memory_order_relaxed);
                });
        });
    }

    go.store(true, std::memory_order_release);
    // Drain repeatedly while the producers are still enqueueing: every
    // wait() races new submissions against the empty-queue condition.
    for (int i = 0; i < 20; ++i)
        pool.wait();
    for (std::thread &t : producers)
        t.join();
    pool.wait();
    EXPECT_EQ(executed.load(), kProducers * kTasksPerProducer);
}

/**
 * Shutdown racing live producers: tasks submitted concurrently with
 * shutdown() are either accepted (and must then run before shutdown
 * returns) or dropped — never torn, never executed after the join.
 */
TEST(ThreadPool, ShutdownRacesProducersSafely)
{
    constexpr int kProducers = 3;
    constexpr int kTasksPerProducer = 400;

    std::atomic<int> executed{0};
    std::atomic<bool> go{false};
    runner::ThreadPool pool(2);

    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&pool, &executed, &go] {
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (int i = 0; i < kTasksPerProducer; ++i)
                pool.submit([&executed] {
                    executed.fetch_add(1, std::memory_order_relaxed);
                });
        });
    }

    go.store(true, std::memory_order_release);
    pool.shutdown();
    const int at_join = executed.load();
    for (std::thread &t : producers)
        t.join();
    // No task sneaks past the join barrier, and nothing accepted was
    // lost: the count is frozen at shutdown and bounded by the total.
    EXPECT_EQ(executed.load(), at_join);
    EXPECT_LE(executed.load(), kProducers * kTasksPerProducer);
    pool.shutdown(); // idempotent after the race
}

// ---------------------------------------------------------------------
// Sweep expansion

runner::SweepSpec
tinySpec(int jobs)
{
    runner::SweepSpec spec;
    spec.kernels = {"sobel", "median"};
    spec.traces = trace::standardProfiles(1000, 7);
    spec.traces.resize(2);
    spec.variants = {{"baseline", [](const std::string &) {
                          sim::SimConfig cfg;
                          cfg.seed = 2017;
                          return cfg;
                      }}};
    spec.master_seed = 42;
    spec.jobs = jobs;
    return spec;
}

TEST(SweepExpansion, KernelMajorOrderAndStableSeeds)
{
    const auto jobs = runner::expandSweep(tinySpec(1));
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(jobs[0].kernel, "sobel");
    EXPECT_EQ(jobs[1].kernel, "sobel");
    EXPECT_EQ(jobs[2].kernel, "median");
    EXPECT_EQ(jobs[0].trace_index, 0u);
    EXPECT_EQ(jobs[1].trace_index, 1u);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].index, i);

    // Expansion is deterministic: same spec, same seed tree.
    const auto again = runner::expandSweep(tinySpec(8));
    ASSERT_EQ(again.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(again[i].rng_seed, jobs[i].rng_seed);

    // Distinct jobs get distinct forked seeds.
    EXPECT_NE(jobs[0].rng_seed, jobs[1].rng_seed);
    EXPECT_NE(jobs[1].rng_seed, jobs[2].rng_seed);
}

TEST(SweepExpansion, DeriveConfigSeedsForksPerJob)
{
    auto spec = tinySpec(1);
    spec.derive_config_seeds = true;
    const auto jobs = runner::expandSweep(spec);
    EXPECT_EQ(jobs[0].config.seed, jobs[0].rng_seed);
    EXPECT_NE(jobs[0].config.seed, jobs[1].config.seed);
}

// ---------------------------------------------------------------------
// Parallel determinism

void
expectSameResult(const sim::SimResult &a, const sim::SimResult &b)
{
    EXPECT_EQ(a.forward_progress, b.forward_progress);
    EXPECT_EQ(a.main_instructions, b.main_instructions);
    EXPECT_EQ(a.cycles_executed, b.cycles_executed);
    EXPECT_EQ(a.backups, b.backups);
    EXPECT_EQ(a.restores, b.restores);
    EXPECT_EQ(a.frames_captured, b.frames_captured);
    // Bit-identical, not approximately equal: the whole point of the
    // seeding discipline.
    EXPECT_EQ(a.on_time_fraction, b.on_time_fraction);
    EXPECT_EQ(a.consumed_energy_nj, b.consumed_energy_nj);
    EXPECT_EQ(a.backup_energy_nj, b.backup_energy_nj);
    EXPECT_EQ(a.mean_psnr, b.mean_psnr);
    EXPECT_EQ(a.mean_mse, b.mean_mse);
}

TEST(SweepRunner, ParallelBitIdenticalToSerial)
{
    runner::SweepRunner serial(tinySpec(1));
    const auto serial_report = serial.run();
    ASSERT_TRUE(serial_report.allOk());
    EXPECT_EQ(serial_report.jobs_used, 1u);

    runner::SweepRunner parallel(tinySpec(4));
    const auto parallel_report = parallel.run();
    ASSERT_TRUE(parallel_report.allOk());
    EXPECT_EQ(parallel_report.jobs_used, 4u);

    ASSERT_EQ(serial_report.results.size(),
              parallel_report.results.size());
    for (std::size_t i = 0; i < serial_report.results.size(); ++i) {
        expectSameResult(serial_report.results[i].result,
                         parallel_report.results[i].result);
    }
}

TEST(SweepRunner, BatchWidthBitIdenticalToSerial)
{
    // Lane-batched execution (SweepSpec::batch_width > 1, DESIGN.md
    // §13) packs consecutive jobs into one lockstep sim::SimBatch per
    // worker. The packing must be invisible: byte-identical results at
    // any --jobs x --batch-width combination, including widths that
    // leave a ragged tail (here 4 jobs into width-3 groups).
    runner::SweepRunner serial(tinySpec(1));
    const auto golden = serial.run();
    ASSERT_TRUE(golden.allOk());

    struct Combo
    {
        int jobs;
        int batch_width;
    };
    for (const Combo combo : {Combo{1, 3}, Combo{2, 8}, Combo{4, 2}}) {
        SCOPED_TRACE("jobs " + std::to_string(combo.jobs) +
                     " batch_width " +
                     std::to_string(combo.batch_width));
        auto spec = tinySpec(combo.jobs);
        spec.batch_width = combo.batch_width;
        runner::SweepRunner batched(spec);
        const auto report = batched.run();
        ASSERT_TRUE(report.allOk());
        ASSERT_EQ(report.results.size(), golden.results.size());
        for (std::size_t i = 0; i < golden.results.size(); ++i) {
            SCOPED_TRACE("job " + std::to_string(i));
            EXPECT_EQ(report.results[i].spec.index, i);
            expectSameResult(golden.results[i].result,
                             report.results[i].result);
        }
    }
}

TEST(SweepRunner, BatchWidthPacksUnderTheBatchEngineToo)
{
    // The same identity with every lane's core on the SoA batch
    // engine: engine selection and lane packing compose.
    auto engineSpec = [](int jobs, int batch_width) {
        auto spec = tinySpec(jobs);
        spec.batch_width = batch_width;
        spec.variants = {{"batch", [](const std::string &) {
                              sim::SimConfig cfg;
                              cfg.seed = 2017;
                              cfg.exec_engine = nvp::ExecEngine::batch;
                              return cfg;
                          }}};
        return spec;
    };
    runner::SweepRunner serial(engineSpec(1, 1));
    const auto golden = serial.run();
    ASSERT_TRUE(golden.allOk());

    runner::SweepRunner batched(engineSpec(2, 3));
    const auto report = batched.run();
    ASSERT_TRUE(report.allOk());
    ASSERT_EQ(report.results.size(), golden.results.size());
    for (std::size_t i = 0; i < golden.results.size(); ++i) {
        expectSameResult(golden.results[i].result,
                         report.results[i].result);
    }
}

TEST(SweepRunner, AggregationOrderIsJobIndexOrder)
{
    // A body whose completion order is adversarial (later jobs finish
    // first) must still aggregate in job-index order.
    auto body = [](const runner::JobSpec &spec, const trace::PowerTrace &,
                   util::Rng &) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(4 - spec.index % 4));
        sim::SimResult r;
        r.forward_progress = spec.index;
        return r;
    };
    runner::SweepRunner sweep(tinySpec(4), body);
    const auto report = sweep.run();
    ASSERT_EQ(report.results.size(), 4u);
    for (std::size_t i = 0; i < report.results.size(); ++i) {
        EXPECT_EQ(report.results[i].spec.index, i);
        EXPECT_EQ(report.results[i].result.forward_progress, i);
        EXPECT_TRUE(report.results[i].ok);
        EXPECT_EQ(report.results[i].attempts, 1);
    }
}

// ---------------------------------------------------------------------
// Failure capture & retry

TEST(SweepRunner, ThrowingJobLandsInFailureReport)
{
    auto body = [](const runner::JobSpec &spec, const trace::PowerTrace &,
                   util::Rng &) -> sim::SimResult {
        if (spec.index == 2)
            throw std::runtime_error("deliberate test failure");
        sim::SimResult r;
        r.forward_progress = 1;
        return r;
    };
    auto spec = tinySpec(4);
    spec.max_retries = 1;
    runner::SweepRunner sweep(spec, body);
    const auto report = sweep.run();

    // The campaign completes: all four jobs have results.
    ASSERT_EQ(report.results.size(), 4u);
    EXPECT_FALSE(report.allOk());
    EXPECT_EQ(report.failureCount(), 1u);

    const auto failures = report.failures();
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0]->spec.index, 2u);
    EXPECT_EQ(failures[0]->attempts, 2); // initial try + one retry
    EXPECT_EQ(failures[0]->error, "deliberate test failure");

    const std::string text = report.failureReport();
    EXPECT_NE(text.find("deliberate test failure"), std::string::npos);
    EXPECT_NE(text.find(failures[0]->spec.kernel), std::string::npos);
    EXPECT_NE(text.find("2 attempts"), std::string::npos);

    // Healthy jobs are unaffected.
    for (std::size_t i = 0; i < 4; ++i) {
        if (i == 2)
            continue;
        EXPECT_TRUE(report.results[i].ok);
        EXPECT_EQ(report.results[i].attempts, 1);
    }
}

TEST(SweepRunner, RetryRecoversTransientFailure)
{
    auto first_attempts = std::make_shared<std::atomic<int>>(0);
    auto body = [first_attempts](const runner::JobSpec &spec,
                                 const trace::PowerTrace &,
                                 util::Rng &) -> sim::SimResult {
        if (spec.index == 1 && first_attempts->fetch_add(1) == 0)
            throw std::runtime_error("transient");
        sim::SimResult r;
        r.forward_progress = 7;
        return r;
    };
    runner::SweepRunner sweep(tinySpec(2), body);
    const auto report = sweep.run();
    EXPECT_TRUE(report.allOk());
    EXPECT_EQ(report.results[1].attempts, 2);
    EXPECT_EQ(report.results[1].result.forward_progress, 7u);
    EXPECT_TRUE(report.results[1].error.empty());
}

TEST(SweepRunner, RetriesForkADistinctRngStream)
{
    // A draw-dependent failure: the job records its first draw on
    // attempt 0 and then throws whenever it sees that value again.
    // Replaying the identical RNG state on retry would re-fail
    // deterministically forever; the retry must fork a distinct stream.
    auto first_draw =
        std::make_shared<std::atomic<std::uint64_t>>(0);
    auto attempts = std::make_shared<std::atomic<int>>(0);
    auto body = [first_draw, attempts](const runner::JobSpec &spec,
                                       const trace::PowerTrace &,
                                       util::Rng &rng) -> sim::SimResult {
        if (spec.index == 0) {
            const std::uint64_t draw = rng.next();
            if (attempts->fetch_add(1) == 0) {
                first_draw->store(draw);
                throw std::runtime_error("draw-dependent failure");
            }
            if (draw == first_draw->load())
                throw std::runtime_error("identical RNG state replayed");
        }
        return sim::SimResult{};
    };
    auto spec = tinySpec(1);
    spec.max_retries = 2;
    runner::SweepRunner sweep(spec, body);
    const auto report = sweep.run();
    EXPECT_TRUE(report.allOk()) << report.failureReport();
    EXPECT_EQ(report.results[0].attempts, 2);
}

TEST(SweepRunner, NoRetryWhenMaxRetriesZero)
{
    auto body = [](const runner::JobSpec &spec, const trace::PowerTrace &,
                   util::Rng &) -> sim::SimResult {
        if (spec.index == 0)
            throw std::runtime_error("boom");
        return sim::SimResult{};
    };
    auto spec = tinySpec(2);
    spec.max_retries = 0;
    runner::SweepRunner sweep(spec, body);
    const auto report = sweep.run();
    EXPECT_FALSE(report.allOk());
    EXPECT_EQ(report.results[0].attempts, 1);
}

// ---------------------------------------------------------------------
// Campaign-shared kernel inputs (DESIGN.md §17)

TEST(KernelInputs, ConcurrentRequestsShareFramesAndOneCalibration)
{
    constexpr int kThreads = 8;
    constexpr int kFrames = 24;
    constexpr std::uint64_t kSeed = 99;
    const kernels::Kernel kernel = kernels::makeKernel("sobel");
    kernels::KernelInputs store("sobel", kSeed);

    std::atomic<int> calibrations{0};
    std::atomic<bool> go{false};
    std::vector<double> cycles(kThreads, 0.0);
    std::vector<std::vector<const std::vector<std::uint8_t> *>> seen(
        kThreads,
        std::vector<const std::vector<std::uint8_t> *>(kFrames));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            store.bind(kernel, kSeed);
            while (!go.load(std::memory_order_acquire))
                std::this_thread::yield();
            cycles[t] = store.cyclesPerFrame([&calibrations] {
                calibrations.fetch_add(1);
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
                return 1234.5;
            });
            // Every thread requests every frame, each from a different
            // starting point, so requests for one frame overlap.
            for (int i = 0; i < kFrames; ++i) {
                const int f = (i + 3 * t) % kFrames;
                seen[t][f] = &store.frame(f);
            }
        });
    }
    go.store(true, std::memory_order_release);
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(calibrations.load(), 1);
    for (const double c : cycles)
        EXPECT_EQ(c, 1234.5);
    EXPECT_EQ(store.framesHeld(), static_cast<std::size_t>(kFrames));
    const util::SceneGenerator scene(kernel.width, kernel.height,
                                     kernel.scene, kSeed);
    for (int f = 0; f < kFrames; ++f) {
        const std::vector<std::uint8_t> want = kernel.make_input(scene, f);
        for (int t = 0; t < kThreads; ++t) {
            ASSERT_EQ(seen[t][f], seen[0][f]) << "frame " << f;
            EXPECT_EQ(*seen[t][f], want) << "frame " << f;
        }
    }
}

/** 2 kernels x 2 traces x 2 variants; the tuned variant's fast sensor
 *  makes most frames of a (kernel, seed) shared between jobs. */
runner::SweepSpec
sharedInputsSpec(int jobs)
{
    runner::SweepSpec spec;
    spec.kernels = {"sobel", "median"};
    spec.traces = trace::standardProfiles(2000, 7);
    spec.traces.resize(2);
    spec.variants = {{"precise",
                      [](const std::string &) {
                          sim::SimConfig cfg;
                          cfg.bits.mode = approx::ApproxMode::precise;
                          cfg.seed = 2017;
                          return cfg;
                      }},
                     {"fast-sensor", [](const std::string &) {
                          sim::SimConfig cfg;
                          cfg.frame_period_factor = 0.2;
                          cfg.seed = 2017;
                          return cfg;
                      }}};
    spec.master_seed = 42;
    spec.jobs = jobs;
    return spec;
}

/** Every job of @p spec run by a standalone simulator, no store. */
std::vector<std::string>
standaloneResults(const runner::SweepSpec &spec)
{
    std::vector<std::string> out;
    for (const runner::JobSpec &job : runner::expandSweep(spec)) {
        EXPECT_EQ(job.config.inputs, nullptr);
        sim::SystemSimulator simulator(kernels::makeKernel(job.kernel),
                                       &spec.traces[job.trace_index],
                                       job.config);
        out.push_back(sim::serializeResult(simulator.run()));
    }
    return out;
}

void
expectStandaloneBytes(const runner::SweepReport &report,
                      const std::vector<std::string> &want)
{
    ASSERT_EQ(report.results.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        ASSERT_TRUE(report.results[i].ok) << report.results[i].error;
        EXPECT_EQ(sim::serializeResult(report.results[i].result),
                  want[i]);
        // The store pointer never leaks into the reported spec.
        EXPECT_EQ(report.results[i].spec.config.inputs, nullptr);
    }
    EXPECT_EQ(kernels::KernelInputs::live(), 0u);
}

TEST(SweepSharedInputs, ByteEqualToStandaloneRunsOnEveryPath)
{
    const std::vector<std::string> want =
        standaloneResults(sharedInputsSpec(1));

    for (const int jobs : {1, 4}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        runner::SweepRunner sweep(sharedInputsSpec(jobs));
        expectStandaloneBytes(sweep.run(), want);
    }

    {
        SCOPED_TRACE("batch_width 4");
        auto spec = sharedInputsSpec(2);
        spec.batch_width = 4;
        runner::SweepRunner sweep(spec);
        expectStandaloneBytes(sweep.run(), want);
    }

    {
        // A custom body sees the store on its config; serially, only
        // the key in flight holds one.
        SCOPED_TRACE("custom body");
        auto max_live = std::make_shared<std::atomic<std::size_t>>(0);
        auto body = [max_live](const runner::JobSpec &job,
                               const trace::PowerTrace &trace,
                               util::Rng &rng) {
            EXPECT_NE(job.config.inputs, nullptr);
            const std::size_t live = kernels::KernelInputs::live();
            if (live > max_live->load())
                max_live->store(live);
            return runner::SweepRunner::simJob(job, trace, rng);
        };
        runner::SweepRunner sweep(sharedInputsSpec(1), body);
        expectStandaloneBytes(sweep.run(), want);
        EXPECT_EQ(max_live->load(), 1u);
    }

    {
        // A first attempt that runs (filling the store) and then
        // throws; the retry must still match the standalone bytes.
        SCOPED_TRACE("injected failure + retry");
        auto tries = std::make_shared<std::vector<std::atomic<int>>>(
            want.size());
        auto body = [tries](const runner::JobSpec &job,
                            const trace::PowerTrace &trace,
                            util::Rng &rng) {
            sim::SimResult result =
                runner::SweepRunner::simJob(job, trace, rng);
            if ((job.index == 1 || job.index == 6) &&
                (*tries)[job.index].fetch_add(1) == 0)
                throw std::runtime_error("injected failure");
            return result;
        };
        runner::SweepRunner sweep(sharedInputsSpec(4), body);
        const runner::SweepReport report = sweep.run();
        expectStandaloneBytes(report, want);
        EXPECT_EQ(report.results[1].attempts, 2);
        EXPECT_EQ(report.results[6].attempts, 2);
    }
}

TEST(SweepSharedInputs, DerivedConfigSeedsByteEqualToStandalone)
{
    // Every job gets its own seed, so every job gets its own store.
    auto spec = sharedInputsSpec(4);
    spec.derive_config_seeds = true;
    const std::vector<std::string> want = standaloneResults(spec);
    runner::SweepRunner sweep(spec);
    expectStandaloneBytes(sweep.run(), want);
}

TEST(KernelInputsDeathTest, SimulatorPanicsOnAnotherKeysStore)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    const std::vector<trace::PowerTrace> traces =
        trace::standardProfiles(200, 7);
    sim::SimConfig cfg;
    cfg.seed = 2017;

    kernels::KernelInputs other_kernel("median", 2017);
    cfg.inputs = &other_kernel;
    EXPECT_DEATH(sim::SystemSimulator(kernels::makeKernel("sobel"),
                                      &traces[0], cfg),
                 "store of kernel 'median' seed 2017 handed to kernel "
                 "'sobel' seed 2017");

    kernels::KernelInputs other_seed("sobel", 2018);
    cfg.inputs = &other_seed;
    EXPECT_DEATH(sim::SystemSimulator(kernels::makeKernel("sobel"),
                                      &traces[0], cfg),
                 "seed 2018 handed to kernel 'sobel' seed 2017");

    // Same name and seed, other frame size.
    kernels::KernelInputs bound("sobel", 2017);
    bound.bind(kernels::makeKernel("sobel"), 2017);
    cfg.inputs = &bound;
    EXPECT_DEATH(sim::SystemSimulator(kernels::makeKernel("sobel", 64, 64),
                                      &traces[0], cfg),
                 "frame geometry");
}

// ---------------------------------------------------------------------
// util::ensureDir (bench output plumbing)

TEST(EnsureDir, CreatesNestedDirectories)
{
    namespace fs = std::filesystem;
    const fs::path root =
        fs::temp_directory_path() / "inc_runner_test_dir";
    fs::remove_all(root);

    const std::string nested = (root / "a" / "b" / "c").string();
    EXPECT_TRUE(util::ensureDir(nested));
    EXPECT_TRUE(fs::is_directory(nested));
    EXPECT_TRUE(util::ensureDir(nested)); // idempotent

    // A regular file in the way is reported, not fatal.
    const std::string blocked = (root / "file").string();
    std::ofstream(blocked) << "x";
    EXPECT_FALSE(util::ensureDir(blocked));

    fs::remove_all(root);
}

} // namespace
