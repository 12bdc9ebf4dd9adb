#include "src/ixp/ixp1200.h"

namespace npr {

Ixp1200::Ixp1200(EventQueue& engine, const HwConfig& config)
    : engine_(engine),
      config_(config),
      memory_(engine, config.MakeMemoryConfig()),
      rfifo_(config.fifo_slots),
      tfifo_(config.fifo_slots),
      ix_bus_(engine, MakeIxBusConfig(config)),
      rx_dma_(engine, ix_bus_, config.dma_setup_cycles),
      tx_dma_(engine, ix_bus_, config.dma_setup_cycles),
      strongarm_(engine, kIxpClock, "strongarm") {
  microengines_.reserve(static_cast<size_t>(config.num_microengines));
  for (int i = 0; i < config.num_microengines; ++i) {
    microengines_.push_back(std::make_unique<MicroEngine>(engine, i, config.contexts_per_me,
                                                          config.ctx_switch_cycles));
  }
}

HostSystem::HostSystem(EventQueue& engine, const HwConfig& config)
    : pentium_(engine, kPentiumClock, "pentium"),
      pci_(engine, MemoryChannelConfig{
                       .name = "pci",
                       .width_bytes = config.pci_width_bytes,
                       .bus_cycle_ps = config.pci_cycle_ps,
                       // First-word latency of a PCI transaction.
                       .read_latency_ps = 8 * config.pci_cycle_ps,
                       .write_latency_ps = 4 * config.pci_cycle_ps,
                   }) {}

}  // namespace npr
