/** Energy model and capacitor behaviour. */

#include <gtest/gtest.h>

#include <cstring>

#include "energy/capacitor.h"
#include "energy/energy_model.h"

using namespace inc::energy;
using inc::isa::Op;
using inc::nvm::RetentionPolicy;

TEST(EnergyModel, FullPrecisionMatchesCalibration)
{
    // 0.209 mW at 1 MHz -> 0.209 nJ per cycle for a 1-cycle ALU op.
    EnergyModel m;
    EXPECT_NEAR(m.instructionEnergyNj(Op::add, 8), 0.209, 1e-9);
}

TEST(EnergyModel, EnergyScalesDownWithBits)
{
    EnergyModel m;
    const double e8 = m.instructionEnergyNj(Op::add, 8);
    const double e4 = m.instructionEnergyNj(Op::add, 4);
    const double e1 = m.instructionEnergyNj(Op::add, 1);
    EXPECT_GT(e8, e4);
    EXPECT_GT(e4, e1);
    // The base is bit-independent: 1-bit still costs >40% of the full
    // energy (the paper's ~2x forward-progress gain, Fig. 15).
    EXPECT_GT(e1 / e8, 0.4);
    EXPECT_LT(e1 / e8, 0.6);
}

TEST(EnergyModel, SimdLanesShareTheBase)
{
    EnergyModel m;
    const double solo = m.instructionEnergyNj(Op::add, 8);
    const double with_lanes = m.instructionEnergyNj(Op::add, 8, 16);
    // Two extra full-precision lanes cost far less than two extra
    // instructions (shared fetch/decode, narrow packed datapath) but
    // are not free.
    EXPECT_LT(with_lanes, 2.2 * solo);
    EXPECT_GT(with_lanes, 1.3 * solo);
}

TEST(EnergyModel, MultiCycleOpsCostMore)
{
    EnergyModel m;
    EXPECT_GT(m.instructionEnergyNj(Op::mul, 8),
              3.0 * m.instructionEnergyNj(Op::add, 8));
    EXPECT_GT(m.instructionEnergyNj(Op::divu, 8),
              m.instructionEnergyNj(Op::mul, 8));
    EXPECT_GT(m.instructionEnergyNj(Op::st8, 8),
              m.instructionEnergyNj(Op::ld8, 8));
}

TEST(EnergyModel, ApproximateStoresAreDiscounted)
{
    EnergyModel m;
    EXPECT_LT(m.instructionEnergyNj(Op::st8, 8, 0, RetentionPolicy::log),
              m.instructionEnergyNj(Op::st8, 8, 0,
                                    RetentionPolicy::full));
}

TEST(EnergyModel, BackupCalibrationAnchor)
{
    // A full-retention single-version backup is ~200 nJ (Sec. 3.2
    // system-level numbers; see EXPERIMENTS.md calibration notes).
    EnergyModel m;
    const double backup = m.backupEnergyNj(RetentionPolicy::full, 1);
    EXPECT_GT(backup, 90.0);
    EXPECT_LT(backup, 320.0);
    // Restore is a fraction of the backup.
    EXPECT_NEAR(m.restoreEnergyNj(1), 0.3 * backup, 1e-9);
}

TEST(EnergyModel, BackupScalesWithVersionsAndPolicy)
{
    EnergyModel m;
    const double v1 = m.backupEnergyNj(RetentionPolicy::full, 1);
    const double v4 = m.backupEnergyNj(RetentionPolicy::full, 4);
    EXPECT_GT(v4, v1);
    EXPECT_LT(v4, 4.0 * v1); // control state is shared

    EXPECT_LT(m.backupEnergyNj(RetentionPolicy::log, 1), v1);
    EXPECT_LT(m.backupEnergyNj(RetentionPolicy::linear, 1), v1);
    EXPECT_LT(m.backupEnergyNj(RetentionPolicy::log, 1),
              m.backupEnergyNj(RetentionPolicy::linear, 1));
    EXPECT_LT(m.backupEnergyNj(RetentionPolicy::linear, 1),
              m.backupEnergyNj(RetentionPolicy::parabola, 1));
}

TEST(Capacitor, ChargesWithEfficiencyAndClamps)
{
    CapacitorParams p;
    p.capacity_nj = 100.0;
    p.efficiency = 0.5;
    p.leak_nj_per_ms = 0.0;
    Capacitor cap(p);
    // 1000 uW for 0.1 ms = 100 nJ in, 50 nJ banked.
    cap.step(1000.0, 0.1);
    EXPECT_NEAR(cap.energyNj(), 50.0, 1e-9);
    cap.step(1000.0, 0.1);
    cap.step(1000.0, 0.1);
    EXPECT_NEAR(cap.energyNj(), 100.0, 1e-9); // clamped at capacity
    EXPECT_GT(cap.totalLossNj(), 0.0);
}

TEST(Capacitor, LeakageDrains)
{
    CapacitorParams p;
    p.capacity_nj = 100.0;
    p.initial_frac = 1.0;
    p.leak_nj_per_ms = 1.0;
    Capacitor cap(p);
    cap.step(0.0, 10.0);
    EXPECT_NEAR(cap.energyNj(), 90.0, 1e-9);
}

TEST(Capacitor, MinChargeFloorWastesTrickle)
{
    CapacitorParams p;
    p.capacity_nj = 100.0;
    p.min_charge_uw = 50.0;
    p.leak_nj_per_ms = 0.0;
    Capacitor cap(p);
    cap.step(49.0, 1.0);
    EXPECT_EQ(cap.energyNj(), 0.0);
    cap.step(51.0, 1.0);
    EXPECT_GT(cap.energyNj(), 0.0);
}

TEST(Capacitor, DrawAndDrain)
{
    CapacitorParams p;
    p.capacity_nj = 100.0;
    p.initial_frac = 0.5;
    Capacitor cap(p);
    EXPECT_TRUE(cap.draw(20.0));
    EXPECT_NEAR(cap.energyNj(), 30.0, 1e-9);
    EXPECT_FALSE(cap.draw(40.0));
    EXPECT_NEAR(cap.energyNj(), 30.0, 1e-9);
    cap.drain(50.0);
    EXPECT_EQ(cap.energyNj(), 0.0);
}

TEST(Capacitor, VoltageTracksSqrtOfCharge)
{
    CapacitorParams p;
    p.capacity_nj = 100.0;
    p.initial_frac = 0.25;
    p.v_full = 2.0;
    Capacitor cap(p);
    EXPECT_NEAR(cap.voltage(), 1.0, 1e-9);
    EXPECT_NEAR(cap.fraction(), 0.25, 1e-12);
}

namespace
{

/** instructionEnergyNj as it was computed per call before the per-op
 *  table, kept as the bitwise reference. */
double
referenceInstructionEnergyNj(const EnergyParams &params,
                             const inc::nvm::RetentionEnergyTable &table,
                             Op op, int main_bits, int lane_bits_sum,
                             RetentionPolicy store_policy)
{
    const double base_nj = params.cycle_energy_nj * params.base_fraction;
    const double datapath_nj =
        params.cycle_energy_nj * (1.0 - params.base_fraction);
    const inc::isa::OpClass cls = inc::isa::opClass(op);
    double dp_factor = 1.0;
    if (cls == inc::isa::OpClass::mul)
        dp_factor = params.mul_factor;
    else if (cls == inc::isa::OpClass::div)
        dp_factor = params.div_factor;
    const double width_scale =
        (static_cast<double>(main_bits) +
         params.lane_share * static_cast<double>(lane_bits_sum)) / 8.0;
    const double per_cycle = base_nj + datapath_nj * dp_factor *
                                           width_scale;
    double energy = per_cycle * inc::isa::opCycles(op);
    if (cls == inc::isa::OpClass::load) {
        energy += params.load_extra_nj;
    } else if (cls == inc::isa::OpClass::store) {
        const double saving = table.wordSaving(store_policy);
        energy += params.store_extra_nj * (1.0 - saving);
    }
    return energy;
}

} // namespace

TEST(EnergyModel, PerOpTableIsBitwiseEqualToPerCallFormula)
{
    // Default and non-default parameters (odd factors, so no product
    // happens to be exact).
    EnergyParams odd;
    odd.cycle_energy_nj = 0.1234567;
    odd.base_fraction = 0.377;
    odd.lane_share = 0.613;
    odd.mul_factor = 1.3131;
    odd.div_factor = 1.1717;
    odd.load_extra_nj = 0.0411;
    odd.store_extra_nj = 0.0833;
    for (const EnergyParams &params : {EnergyParams{}, odd}) {
        const EnergyModel model(params);
        const inc::nvm::RetentionEnergyTable table;
        int checked = 0;
        for (int i = 0; i < static_cast<int>(Op::num_ops); ++i) {
            const auto op = static_cast<Op>(i);
            for (int bits = 1; bits <= 8; ++bits) {
                for (int lanes = 0; lanes <= 24; ++lanes) {
                    for (const RetentionPolicy p :
                         {RetentionPolicy::full, RetentionPolicy::linear,
                          RetentionPolicy::log,
                          RetentionPolicy::parabola}) {
                        const double got =
                            model.instructionEnergyNj(op, bits, lanes, p);
                        const double want = referenceInstructionEnergyNj(
                            params, table, op, bits, lanes, p);
                        ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
                            << inc::isa::opName(op) << " bits " << bits
                            << " lanes " << lanes << " policy "
                            << static_cast<int>(p) << ": " << got
                            << " vs " << want;
                        ++checked;
                    }
                }
            }
        }
        EXPECT_EQ(checked, static_cast<int>(Op::num_ops) * 8 * 25 * 4);
    }
}
