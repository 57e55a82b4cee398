/**
 * @file
 * Campaign-shared kernel inputs (DESIGN.md §17).
 *
 * Every SystemSimulator that runs kernel K with config.seed S
 * synthesizes the same input frames — K.make_input over
 * SceneGenerator(K.width, K.height, K.scene, S) — and repeats the same
 * one-frame functional calibration of the sensor frame period. A sweep
 * runs many such simulators (every trace x variant of a kernel), so
 * runner::SweepRunner hands all jobs of one (kernel, seed) key a
 * KernelInputs store through SimConfig::inputs: each frame is
 * synthesized once and the calibration runs once. Both are pure
 * functions of the key, so a simulator that reads them from the store
 * is bit-identical to one that computes them itself.
 */

#ifndef INC_KERNELS_KERNEL_INPUTS_H
#define INC_KERNELS_KERNEL_INPUTS_H

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernels/kernel.h"
#include "util/image.h"

namespace inc::kernels
{

/** Input frames and frame-period calibration of one (kernel, seed).
 *  Thread safe. */
class KernelInputs
{
  public:
    KernelInputs(std::string kernel, std::uint64_t seed);
    ~KernelInputs();

    KernelInputs(const KernelInputs &) = delete;
    KernelInputs &operator=(const KernelInputs &) = delete;

    const std::string &kernel() const { return kernel_; }
    std::uint64_t seed() const { return seed_; }

    /**
     * Attach a simulator's @p kernel, run with @p seed, to this store.
     * util::panic unless the kernel name and seed are the store's key
     * and the frame geometry (width, height, scene kind, input bytes)
     * matches the first attached kernel, whose make_input then
     * synthesizes every frame.
     */
    void bind(const Kernel &kernel, std::uint64_t seed);

    /**
     * Input frame @p index, synthesized on first request. The
     * reference stays valid for the store's lifetime. Requires bind().
     */
    const std::vector<std::uint8_t> &frame(int index);

    /**
     * Precise cycles per frame: @p calibrate() on the first call, the
     * memoized value on every later one. Concurrent first callers wait
     * for one computation; if it throws, the next caller retries.
     */
    double cyclesPerFrame(const std::function<double()> &calibrate);

    /** Frames synthesized so far. */
    std::size_t framesHeld() const;

    /** KernelInputs objects alive in the process (leak checks). */
    static std::size_t live();

  private:
    struct Slot
    {
        std::once_flag once;
        std::vector<std::uint8_t> bytes;
    };

    const std::string kernel_;
    const std::uint64_t seed_;

    mutable std::mutex mutex_;
    bool bound_ = false;
    int width_ = 0;
    int height_ = 0;
    util::SceneKind scene_kind_ = util::SceneKind::scene;
    std::uint32_t input_bytes_ = 0;
    std::function<std::vector<std::uint8_t>(const util::SceneGenerator &,
                                            int)>
        make_input_;
    std::optional<util::SceneGenerator> scene_;
    std::unordered_map<int, Slot> frames_;

    std::once_flag calibrated_;
    double cycles_per_frame_ = 0.0;
};

} // namespace inc::kernels

#endif // INC_KERNELS_KERNEL_INPUTS_H
