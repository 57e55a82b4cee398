/**
 * @file
 * The NVP core: a lane-stepped functional executor with cycle costs.
 *
 * Executes the ISA over up to four SIMD lanes (paper Sec. 4). Lane 0 is
 * the current computation; lanes 1-3 are incidental lanes adopted by the
 * controller (core/incidental.h), each with its own register version and
 * bitwidth. All lanes share the PC; control flow is resolved on lane 0 —
 * kernels keep data-dependent choices branchless (min/max/select) so
 * lanes never diverge, mirroring the paper's compiler restriction.
 *
 * The core owns the architectural incidental state written by the
 * incidental ISA ops: the resume-point PC + frame register + match mask
 * (markrp), per-register AC flags (acset/acclr), and the global AC_EN
 * bit (acen). Lane lifecycle (adoption, retirement, roll-forward) is
 * decided by the controller through the public lane API.
 */

#ifndef INC_NVP_CORE_H
#define INC_NVP_CORE_H

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "isa/predecode.h"
#include "isa/program.h"
#include "nvp/approx_alu.h"
#include "nvp/memory.h"
#include "nvp/register_file.h"
#include "obs/obs.h"

namespace inc::nvp
{

/**
 * Interpreter selection. All engines implement identical architectural
 * semantics — same results, same RNG draw sequence, same observability
 * counters — enforced bit-for-bit by tests/test_engine_diff.cc and the
 * fuzzer's engine-diff invariant (`nvpsim fuzz --engine-diff`).
 *
 *  - reference:  decode-as-you-go loop; metadata re-derived every step.
 *  - predecoded: dispatches over a dense DecodedInst array resolved at
 *    program load (isa/predecode.h); the default.
 *  - batch:      trial-batched engine. Inside one Core the instruction
 *    semantics are the predecoded fast path (which is exactly why
 *    byte-identity survives batching); the batching itself lives in
 *    nvp::BatchCore (src/isa/batch: W independent single-SIMD-lane
 *    cores stepped in SoA lockstep) and sim::SimBatch (N co-simulators
 *    stepped sample-by-sample), selected by SimConfig::exec_engine =
 *    batch + SweepSpec::batch_width.
 */
enum class ExecEngine
{
    reference,
    predecoded,
    batch,
};

/** Number of engines (size of allExecEngines()). */
constexpr int kNumExecEngines = 3;

/**
 * The engine registry: every engine, reference first. Benches and the
 * differential test tiers iterate this so a new engine is benched and
 * diffed automatically instead of being forgotten in a hardcoded list.
 */
const std::array<ExecEngine, kNumExecEngines> &allExecEngines();

/** Comma-separated engine names, e.g. for CLI usage strings. */
std::string execEngineNames();

/** Parse "reference"/"predecoded"/"batch"; nullopt otherwise. */
std::optional<ExecEngine> execEngineFromName(const std::string &name);

/** Engine name ("reference"/"predecoded"/"batch"). */
const char *execEngineName(ExecEngine engine);

/** Static core configuration. */
struct CoreConfig
{
    bool approx_alu = true; ///< enable ALU noise model
    bool approx_mem = true; ///< enable AC-region truncation model
    int max_lanes = kMaxLanes;
    ExecEngine engine = ExecEngine::predecoded;
};

/** Per-lane bookkeeping. */
struct LaneInfo
{
    bool active = false;
    int bits = 8;              ///< current precision (1..8)
    std::uint16_t frame = 0;   ///< frame id the lane is processing
    std::uint64_t instret = 0; ///< instructions committed by this lane
};

/** Result of executing one instruction. */
struct StepResult
{
    isa::Op op = isa::Op::nop;
    int cycles = 1;
    int lanes_committed = 1;      ///< 1 + active incidental lanes
    bool halted = false;
    bool mark_resume = false;     ///< a markrp executed this step
    std::uint16_t resume_frame_value = 0; ///< lane-0 frame reg at markrp
    std::uint32_t assemble_bytes = 0;
    /** Retention policy of the lane-0 store target (energy discount). */
    nvm::RetentionPolicy store_policy = nvm::RetentionPolicy::full;
};

/** The executor. */
class Core
{
  public:
    Core(const isa::Program *program, DataMemory *memory,
         CoreConfig config, util::Rng rng);

    // ---- architectural state --------------------------------------------

    std::uint16_t pc() const { return pc_; }
    void setPc(std::uint16_t pc) { pc_ = pc; }

    bool halted() const { return halted_; }
    void clearHalted() { halted_ = false; }

    RegisterFile &regs() { return rf_; }
    const RegisterFile &regs() const { return rf_; }

    bool acEnabled() const { return ac_en_; }
    void setAcEnabled(bool on) { ac_en_ = on; }

    /** Resume-point state recorded by the last markrp. */
    bool hasResumePoint() const { return has_resume_; }
    std::uint16_t resumePc() const { return resume_pc_; }
    int frameReg() const { return frame_reg_; }
    std::uint16_t matchMask() const { return match_mask_; }

    // ---- lanes ------------------------------------------------------------

    const LaneInfo &lane(int index) const;
    int maxLanes() const { return config_.max_lanes; }

    /** Number of active lanes including lane 0. */
    int activeLaneCount() const { return active_lanes_; }

    /** Lowest free incidental lane slot, or -1. */
    int freeLane() const;

    /** Activate incidental lane @p index with a register snapshot. */
    void activateLane(int index, const RegSnapshot &regs, int bits,
                      std::uint16_t frame);

    /** Retire incidental lane @p index (clears its memory versions). */
    void deactivateLane(int index);

    /** Retire all incidental lanes. */
    void deactivateAllLanes();

    void setLaneBits(int index, int bits);
    void setMainBits(int bits) { setLaneBits(0, bits); }
    int mainBits() const { return lanes_[0].bits; }

    /** Lane-0 frame bookkeeping (set by the controller). */
    void setMainFrame(std::uint16_t frame) { lanes_[0].frame = frame; }

    /** Sum of active incidental lanes' bitwidths (energy model input). */
    int incidentalBitsSum() const;

    /** Total instructions committed across all lanes. */
    std::uint64_t totalInstret() const;

    // ---- execution ---------------------------------------------------------

    /** Execute one instruction across all active lanes. */
    StepResult step()
    {
        // The batch engine's per-instruction semantics inside a single
        // Core are the predecoded fast path; only `reference` takes the
        // decode-as-you-go baseline.
        return config_.engine == ExecEngine::reference
                   ? stepReference()
                   : stepPredecoded();
    }

    const CoreConfig &config() const { return config_; }
    const isa::Program &program() const { return *program_; }
    DataMemory &memory() { return *mem_; }

    /** Attach (or detach with nullptr) hot-path event counters. The
     *  counters only observe — attaching never perturbs execution. */
    void setObsCounters(obs::CoreCounters *counters)
    {
        obs_ = counters;
    }

  private:
    /** Effective precision of a lane (8 when approximation disabled). */
    int effectiveBits(int lane) const;

    /** Decode-as-you-go engine (the semantic baseline). */
    StepResult stepReference();
    /** Fast-path engine over the predecoded program. */
    StepResult stepPredecoded();

    void executeDataOp(const isa::Instruction &inst, int lane);
    void executeLoad(const isa::Instruction &inst, int lane);
    void executeStore(const isa::Instruction &inst, int lane,
                      StepResult &result);

    // Fast-path bodies (core.cc). stepPredecoded() dispatches once on
    // the predecoded opcode and instantiates these per op, so the
    // compute/comparator/access lambdas inline into a single jump
    // table — no second-level switch per step.
    template <typename ComputeFn>
    void dataOpFast(const isa::DecodedInst &d, ComputeFn compute);
    template <typename ComputeFn>
    void dataOpLaneFast(const isa::DecodedInst &d, int lane,
                        ComputeFn compute);
    template <typename LoadFn>
    void loadFast(const isa::DecodedInst &d, LoadFn load);
    template <typename LoadFn>
    void loadLaneFast(const isa::DecodedInst &d, int lane, LoadFn load);
    template <bool kWide>
    void storeFast(const isa::DecodedInst &d, StepResult &result);
    template <bool kWide>
    void storeLaneFast(const isa::DecodedInst &d, int lane,
                       StepResult &result);
    template <typename CmpFn>
    void branchFast(const isa::DecodedInst &d, StepResult &result,
                    std::uint16_t &next_pc, CmpFn cmp);

    const isa::Program *program_;
    DataMemory *mem_;
    CoreConfig config_;
    isa::PredecodedProgram decoded_; ///< built iff engine != reference
    RegisterFile rf_;
    ApproxAlu alu_;

    std::uint16_t pc_ = 0;
    bool halted_ = false;
    bool ac_en_ = false;

    bool has_resume_ = false;
    std::uint16_t resume_pc_ = 0;
    int frame_reg_ = 0;
    std::uint16_t match_mask_ = 0;

    std::array<LaneInfo, kMaxLanes> lanes_;
    /** Number of active lanes, maintained by (de)activateLane (lane 0
     *  is always active). */
    int active_lanes_ = 1;
    obs::CoreCounters *obs_ = nullptr;
};

} // namespace inc::nvp

#endif // INC_NVP_CORE_H
