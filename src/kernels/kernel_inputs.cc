#include "kernels/kernel_inputs.h"

#include <atomic>

#include "util/logging.h"

namespace inc::kernels
{

namespace
{
std::atomic<std::size_t> live_stores{0};
} // namespace

KernelInputs::KernelInputs(std::string kernel, std::uint64_t seed)
    : kernel_(std::move(kernel)), seed_(seed)
{
    live_stores.fetch_add(1, std::memory_order_relaxed);
}

KernelInputs::~KernelInputs()
{
    live_stores.fetch_sub(1, std::memory_order_relaxed);
}

void
KernelInputs::bind(const Kernel &kernel, std::uint64_t seed)
{
    if (kernel.name != kernel_ || seed != seed_)
        util::panic("KernelInputs: store of kernel '%s' seed %llu "
                    "handed to kernel '%s' seed %llu",
                    kernel_.c_str(),
                    static_cast<unsigned long long>(seed_),
                    kernel.name.c_str(),
                    static_cast<unsigned long long>(seed));
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!bound_) {
        bound_ = true;
        width_ = kernel.width;
        height_ = kernel.height;
        scene_kind_ = kernel.scene;
        input_bytes_ = kernel.layout.in_bytes;
        make_input_ = kernel.make_input;
        scene_.emplace(width_, height_, scene_kind_, seed_);
        return;
    }
    if (kernel.width != width_ || kernel.height != height_ ||
        kernel.scene != scene_kind_ ||
        kernel.layout.in_bytes != input_bytes_)
        util::panic("KernelInputs: kernel '%s' frame geometry "
                    "%dx%d/%u bytes does not match the store's "
                    "%dx%d/%u bytes",
                    kernel_.c_str(), kernel.width, kernel.height,
                    kernel.layout.in_bytes, width_, height_,
                    input_bytes_);
}

const std::vector<std::uint8_t> &
KernelInputs::frame(int index)
{
    Slot *slot = nullptr;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!bound_)
            util::panic("KernelInputs: frame %d of '%s' requested "
                        "before bind()",
                        index, kernel_.c_str());
        slot = &frames_[index]; // node-based: stable across rehash
    }
    // Outside the lock, so distinct frames synthesize concurrently;
    // make_input_ and scene_ are immutable once bound.
    std::call_once(slot->once, [this, slot, index] {
        slot->bytes = make_input_(*scene_, index);
    });
    return slot->bytes;
}

double
KernelInputs::cyclesPerFrame(const std::function<double()> &calibrate)
{
    std::call_once(calibrated_,
                   [this, &calibrate] { cycles_per_frame_ = calibrate(); });
    return cycles_per_frame_;
}

std::size_t
KernelInputs::framesHeld() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return frames_.size();
}

std::size_t
KernelInputs::live()
{
    return live_stores.load(std::memory_order_relaxed);
}

} // namespace inc::kernels
