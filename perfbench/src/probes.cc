#include "probes.h"

#include <functional>
#include <memory>

#include "approx/bitwidth_controller.h"
#include "approx/quality.h"
#include "core/incidental.h"
#include "energy/energy_model.h"
#include "kernels/kernel.h"
#include "nvp/core.h"
#include "nvp/memory.h"
#include "util/crc32.h"
#include "util/image.h"
#include "util/rng.h"

using namespace inc;

namespace perfbench
{

namespace
{

/** Rounds per probe; the median round is reported. */
constexpr int kRounds = 5;

constexpr std::uint64_t kCrcCalls = 400;
constexpr std::uint64_t kRngCalls = 2000000;
constexpr std::uint64_t kDecayCalls = 200;
constexpr std::uint64_t kSteps = 1000000;
constexpr int kFrames = 40;

/** Results feed this so no timed loop can be optimized away. */
volatile std::uint64_t g_sink = 0;

/** Median over kRounds of the time @p round takes, in seconds. */
double
medianRound(const std::function<void()> &round)
{
    std::vector<double> times;
    for (int r = 0; r < kRounds; ++r) {
        const Clock::time_point t0 = Clock::now();
        round();
        times.push_back(secondsSince(t0));
    }
    return median(times);
}

/** Data memory laid out as SystemSimulator lays it out for @p kernel,
 *  with input frame 0 in every input slot. */
std::unique_ptr<nvp::DataMemory>
kernelMemory(const kernels::Kernel &kernel, std::uint64_t seed)
{
    auto mem = std::make_unique<nvp::DataMemory>(util::Rng(seed));
    for (const auto &[addr, data] : kernel.init_blocks)
        mem->hostWriteBlock(addr, data);
    const core::FrameLayout &layout = kernel.layout;
    mem->addAcRegion({layout.in_base,
                      layout.in_bytes *
                          static_cast<std::uint32_t>(layout.in_slots),
                      nvm::RetentionPolicy::linear});
    mem->addVersionedRegion(layout.out_base,
                            layout.out_bytes * static_cast<std::uint32_t>(
                                                   layout.out_slots));
    if (kernel.scratch_bytes > 0) {
        mem->addVersionedRegion(kernel.scratch_base, kernel.scratch_bytes,
                                /*write_through=*/false);
    }
    const util::SceneGenerator scene(kernel.width, kernel.height,
                                     kernel.scene, seed);
    const std::vector<std::uint8_t> frame = kernel.make_input(scene, 0);
    for (int slot = 0; slot < layout.in_slots; ++slot)
        mem->hostWriteBlock(layout.inSlotAddr(slot), frame);
    return mem;
}

void
probeCrc(const ProbeInputs &in, Metrics *out)
{
    std::vector<std::uint8_t> image(in.image_bytes);
    util::Rng rng(in.seed);
    for (std::uint8_t &b : image)
        b = static_cast<std::uint8_t>(rng.next());
    const double s = medianRound([&image] {
        std::uint32_t crc = 0;
        for (std::uint64_t i = 0; i < kCrcCalls; ++i)
            crc ^= util::crc32(image.data(), image.size());
        g_sink = g_sink + crc;
    });
    out->push_back({"util.crc32_us_per_image", 1e6 * s / kCrcCalls, "us"});
    out->push_back({"util.crc32_calls", double(kCrcCalls), "count"});
}

void
probeRng(const ProbeInputs &in, Metrics *out)
{
    util::Rng rng(in.seed);
    const double s = medianRound([&rng] {
        std::uint64_t acc = 0;
        for (std::uint64_t i = 0; i < kRngCalls; ++i)
            acc += rng.next();
        g_sink = g_sink + acc;
    });
    out->push_back({"util.rng_next_ns", 1e9 * s / kRngCalls, "ns"});
    out->push_back({"util.rng_calls", double(kRngCalls), "count"});
}

void
probeDecay(const ProbeInputs &in, const kernels::Kernel &kernel,
           Metrics *out)
{
    const std::unique_ptr<nvp::DataMemory> mem =
        kernelMemory(kernel, in.seed);
    const double len = in.outage_tenth_ms;
    const double s = medianRound([&mem, len] {
        for (std::uint64_t i = 0; i < kDecayCalls; ++i)
            mem->applyOutageDecay(len);
    });
    g_sink = g_sink + mem->hostRead8(kernel.layout.in_base);
    out->push_back(
        {"nvp.outage_decay_us", 1e6 * s / kDecayCalls, "us"});
    out->push_back(
        {"nvp.outage_decay_calls", double(kDecayCalls), "count"});
    out->push_back({"nvp.outage_len_ms", 0.1 * len, "ms"});
}

/** Core::step, then EnergyModel::instructionEnergyNj over the ops the
 *  steps produced, then IncidentalController::maybeAdopt. */
void
probeInstruction(const ProbeInputs &in, const kernels::Kernel &kernel,
                 Metrics *out)
{
    const std::unique_ptr<nvp::DataMemory> mem =
        kernelMemory(kernel, in.seed);
    nvp::Core core(&kernel.program, mem.get(), nvp::CoreConfig{},
                   util::Rng(in.seed + 1));
    std::vector<nvp::StepResult> steps(kSteps);
    const double step_s = medianRound([&core, &steps] {
        for (std::uint64_t i = 0; i < kSteps; ++i) {
            if (core.halted()) {
                core.clearHalted();
                core.setPc(0);
            }
            steps[i] = core.step();
        }
    });
    out->push_back({"nvp.core_step_ns", 1e9 * step_s / kSteps, "ns"});
    out->push_back({"nvp.core_steps", double(kSteps), "count"});

    const energy::EnergyModel model;
    const double energy_s = medianRound([&model, &steps] {
        double acc = 0.0;
        for (const nvp::StepResult &st : steps)
            acc += model.instructionEnergyNj(st.op, 8, 0, st.store_policy);
        g_sink = g_sink + static_cast<std::uint64_t>(acc);
    });
    out->push_back(
        {"energy.instr_energy_ns", 1e9 * energy_s / kSteps, "ns"});
    out->push_back(
        {"energy.instr_energy_calls", double(kSteps), "count"});

    approx::BitwidthConfig bits;
    bits.mode = approx::ApproxMode::dynamic;
    bits.min_bits = 2;
    approx::BitwidthController bit_ctrl(bits);
    core::IncidentalController ctrl(&core, core::ControllerConfig{},
                                    kernel.layout, &bit_ctrl,
                                    util::Rng(in.seed + 2));
    const double adopt_s = medianRound([&ctrl] {
        for (std::uint64_t i = 0; i < kSteps; ++i)
            ctrl.maybeAdopt(0.5, 0);
    });
    out->push_back(
        {"core.maybe_adopt_ns", 1e9 * adopt_s / kSteps, "ns"});
    out->push_back({"core.maybe_adopt_calls", double(kSteps), "count"});
}

/** Frame synthesis and scoring, averaged over the workload's kernels;
 *  plus the time to build each of those kernels once. */
void
probeFrames(const ProbeInputs &in, Metrics *out)
{
    double input_s = 0.0;
    double golden_s = 0.0;
    double mse_s = 0.0;
    double make_s = 0.0;
    for (const std::string &name : in.kernels) {
        make_s += medianRound([&name] {
            const kernels::Kernel k = kernels::makeKernel(name);
            g_sink = g_sink + k.program.size();
        });
        const kernels::Kernel kernel = kernels::makeKernel(name);
        const util::SceneGenerator scene(kernel.width, kernel.height,
                                         kernel.scene, in.seed);
        std::vector<std::vector<std::uint8_t>> inputs(kFrames);
        std::vector<std::vector<std::uint8_t>> goldens(kFrames);
        input_s += medianRound([&] {
            for (int f = 0; f < kFrames; ++f)
                inputs[f] = kernel.make_input(scene, f);
        });
        golden_s += medianRound([&] {
            for (int f = 0; f < kFrames; ++f)
                goldens[f] = kernel.golden(inputs[f]);
        });
        const std::vector<std::uint8_t> mask(goldens[0].size(), 1);
        mse_s += medianRound([&] {
            double acc = 0.0;
            for (int f = 0; f < kFrames; ++f) {
                acc += approx::maskedMse(goldens[f],
                                         goldens[(f + 1) % kFrames], mask);
            }
            g_sink = g_sink + static_cast<std::uint64_t>(acc);
        });
    }
    const double calls = double(kFrames) * double(in.kernels.size());
    out->push_back({"kernels.input_us", 1e6 * input_s / calls, "us"});
    out->push_back({"kernels.golden_us", 1e6 * golden_s / calls, "us"});
    out->push_back({"approx.masked_mse_us", 1e6 * mse_s / calls, "us"});
    out->push_back({"kernels.probe_frames", calls, "count"});
    out->push_back({"kernels.make_ms", 1e3 * make_s, "ms"});
}

} // namespace

Metrics
runProbes(const ProbeInputs &inputs)
{
    Metrics out;
    probeCrc(inputs, &out);
    probeRng(inputs, &out);
    const kernels::Kernel first = kernels::makeKernel(inputs.kernels.at(0));
    probeDecay(inputs, first, &out);
    probeInstruction(inputs, first, &out);
    probeFrames(inputs, &out);
    return out;
}

} // namespace perfbench
