#include "energy/energy_model.h"

#include "util/logging.h"

namespace inc::energy
{

EnergyModel::EnergyModel(EnergyParams params, nvm::SttModel stt)
    : params_(params), table_(stt)
{
    if (params_.cycle_energy_nj <= 0 || params_.base_fraction <= 0 ||
        params_.base_fraction >= 1) {
        util::fatal("EnergyParams: cycle energy and base fraction invalid");
    }
    base_nj_ = params_.cycle_energy_nj * params_.base_fraction;
    datapath_nj_ = params_.cycle_energy_nj * (1.0 - params_.base_fraction);

    // instructionEnergyNj runs once per simulated instruction; resolve
    // its op and policy lookups here. Each entry is the same double the
    // per-call expression used to form, so results are bit-identical.
    for (std::size_t i = 0; i < op_cost_.size(); ++i) {
        const auto op = static_cast<isa::Op>(i);
        const isa::OpClass cls = isa::opClass(op);
        double dp_factor = 1.0;
        if (cls == isa::OpClass::mul)
            dp_factor = params_.mul_factor;
        else if (cls == isa::OpClass::div)
            dp_factor = params_.div_factor;
        OpCost &cost = op_cost_[i];
        cost.datapath_nj = datapath_nj_ * dp_factor;
        cost.cycles = isa::opCycles(op);
        if (cls == isa::OpClass::load)
            cost.access = Access::load;
        else if (cls == isa::OpClass::store)
            cost.access = Access::store;
    }
    // Store energy is discounted by the retention policy's write-energy
    // saving (approximate backup writes cost less).
    for (std::size_t p = 0; p < kNumPolicies; ++p) {
        const double saving =
            table_.wordSaving(static_cast<nvm::RetentionPolicy>(p));
        store_extra_nj_[p] = params_.store_extra_nj * (1.0 - saving);
    }
}

double
EnergyModel::instructionEnergyNj(isa::Op op, int main_bits,
                                 int lane_bits_sum,
                                 nvm::RetentionPolicy store_policy) const
{
    if (main_bits < 1 || main_bits > 8)
        util::panic("instructionEnergyNj: main_bits out of range %d",
                    main_bits);

    const auto idx = static_cast<std::size_t>(op);
    if (idx >= op_cost_.size())
        util::panic("instructionEnergyNj: invalid opcode %zu", idx);
    const OpCost &cost = op_cost_[idx];

    // Per-cycle energy: shared base + width-scaled datapath per lane.
    const double width_scale =
        (static_cast<double>(main_bits) +
         params_.lane_share * static_cast<double>(lane_bits_sum)) / 8.0;
    const double per_cycle = base_nj_ + cost.datapath_nj * width_scale;
    double energy = per_cycle * cost.cycles;

    // NVM access adders.
    if (cost.access == Access::load)
        energy += params_.load_extra_nj;
    else if (cost.access == Access::store)
        energy +=
            store_extra_nj_[static_cast<std::size_t>(store_policy)];
    return energy;
}

double
EnergyModel::instructionBaseEnergyNj(isa::Op op) const
{
    return base_nj_ * isa::opCycles(op);
}

double
EnergyModel::idleCycleEnergyNj() const
{
    // Clock-gated core: base only, halved.
    return 0.5 * base_nj_;
}

double
EnergyModel::backupEnergyNj(nvm::RetentionPolicy policy, int versions) const
{
    if (versions < 1 || versions > 4)
        util::panic("backupEnergyNj: versions out of range %d", versions);
    const double fj_to_nj = 1e-6 * params_.backup_peripheral_factor;
    const double full_bit_fj =
        table_.bitEnergyFj(nvm::RetentionPolicy::full, 8);
    const double control_fj =
        static_cast<double>(params_.control_state_bits) * full_bit_fj;
    // Data words: data_bits_per_version / 8 words, each written with the
    // shaped per-bit energies.
    const double words_per_version =
        static_cast<double>(params_.data_bits_per_version) / 8.0;
    const double data_fj = static_cast<double>(versions) *
                           words_per_version *
                           table_.wordEnergyFj(policy);
    return (control_fj + data_fj) * fj_to_nj;
}

double
EnergyModel::restoreEnergyNj(int versions) const
{
    return params_.restore_fraction *
           backupEnergyNj(nvm::RetentionPolicy::full, versions);
}

double
EnergyModel::assembleEnergyNj(int bytes) const
{
    // Two cycles per byte through the merge state machine.
    return static_cast<double>(bytes) * 2.0 *
           (base_nj_ + datapath_nj_ * 0.5);
}

} // namespace inc::energy
