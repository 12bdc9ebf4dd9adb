// Assembly of the complete simulated hardware: the IXP1200 chip (memories,
// MicroEngines, FIFOs, DMA, hash unit, StrongARM) and the host side
// (Pentium III, PCI bus). Mirrors the block diagram in Figure 3 of the
// paper.

#ifndef SRC_IXP_IXP1200_H_
#define SRC_IXP_IXP1200_H_

#include <memory>
#include <vector>

#include "src/ixp/dma.h"
#include "src/ixp/fifo.h"
#include "src/ixp/hash_unit.h"
#include "src/ixp/hw_config.h"
#include "src/ixp/microengine.h"
#include "src/ixp/soft_core.h"
#include "src/mem/memory_system.h"
#include "src/sim/event_queue.h"

namespace npr {

class Ixp1200 {
 public:
  Ixp1200(EventQueue& engine, const HwConfig& config);

  Ixp1200(const Ixp1200&) = delete;
  Ixp1200& operator=(const Ixp1200&) = delete;

  const HwConfig& config() const { return config_; }
  EventQueue& event_queue() { return engine_; }

  MemorySystem& memory() { return memory_; }
  MicroEngine& me(int i) { return *microengines_[static_cast<size_t>(i)]; }
  int num_mes() const { return static_cast<int>(microengines_.size()); }

  FifoBank& rfifo() { return rfifo_; }
  FifoBank& tfifo() { return tfifo_; }

  MemoryChannel& ix_bus() { return ix_bus_; }
  DmaEngine& rx_dma() { return rx_dma_; }
  DmaEngine& tx_dma() { return tx_dma_; }

  HashUnit& hash() { return hash_; }
  SoftCore& strongarm() { return strongarm_; }

 private:
  EventQueue& engine_;
  HwConfig config_;
  MemorySystem memory_;
  std::vector<std::unique_ptr<MicroEngine>> microengines_;
  FifoBank rfifo_;
  FifoBank tfifo_;
  MemoryChannel ix_bus_;
  DmaEngine rx_dma_;
  DmaEngine tx_dma_;
  HashUnit hash_;
  SoftCore strongarm_;
};

// Host side of the prototype: Pentium III and 32-bit/33 MHz PCI. Packets
// bound for the Pentium are timed on the PCI channel and staged as packets
// by the bridge (`StrongArmBridge::staging`), so host memory has no store.
class HostSystem {
 public:
  HostSystem(EventQueue& engine, const HwConfig& config);

  HostSystem(const HostSystem&) = delete;
  HostSystem& operator=(const HostSystem&) = delete;

  SoftCore& pentium() { return pentium_; }
  MemoryChannel& pci() { return pci_; }

 private:
  SoftCore pentium_;
  MemoryChannel pci_;
};

}  // namespace npr

#endif  // SRC_IXP_IXP1200_H_
