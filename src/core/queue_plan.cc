#include "src/core/queue_plan.h"

#include <cassert>

namespace npr {

QueuePlan::QueuePlan(EventQueue& engine, MemorySystem& memory, const RouterConfig& config,
                     Arena& sram_arena, Arena& scratch_arena, int num_input_contexts,
                     int num_output_contexts)
    : scratch_store_(memory.scratch_store()),
      input_queueing_(config.input_queueing),
      num_ports_(config.num_ports()),
      queues_per_port_(config.queues_per_port),
      num_input_contexts_(num_input_contexts) {
  const int queues_per_port_actual =
      input_queueing_ == InputQueueing::kPrivatePerContext ? num_input_contexts_
                                                           : queues_per_port_;
  const int total = num_ports_ * queues_per_port_actual;

  port_to_out_ctx_.resize(static_cast<size_t>(num_ports_));
  for (int p = 0; p < num_ports_; ++p) {
    port_to_out_ctx_[static_cast<size_t>(p)] = p % num_output_contexts;
  }

  by_output_ctx_.resize(static_cast<size_t>(num_output_contexts));
  // An output context's readiness bit-array takes one zeroed Scratch word per
  // 32 queues it services; this tracks each context's last word.
  const auto new_ready_word = [&] {
    const uint32_t addr = scratch_arena.Alloc(4);
    scratch_store_.WriteU32(addr, 0);
    return addr;
  };
  std::vector<uint32_t> ready_word_addr(static_cast<size_t>(num_output_contexts));
  for (uint32_t& addr : ready_word_addr) {
    addr = new_ready_word();
  }

  queues_.reserve(static_cast<size_t>(total));
  aux_.reserve(static_cast<size_t>(total));
  for (int p = 0; p < num_ports_; ++p) {
    for (int q = 0; q < queues_per_port_actual; ++q) {
      const int id = static_cast<int>(queues_.size());
      const uint32_t sram_base = sram_arena.Alloc(config.queue_capacity * 4);
      const uint32_t scratch_base = scratch_arena.Alloc(8);
      queues_.push_back(std::make_unique<PacketQueue>(
          memory.sram_store(), scratch_store_, sram_base, scratch_base, config.queue_capacity,
          id, /*dram_base=*/0, config.hw.buffer_bytes));

      QueueAux aux;
      aux.out_ctx = port_to_out_ctx_[static_cast<size_t>(p)];
      aux.port = static_cast<uint8_t>(p);
      if (input_queueing_ == InputQueueing::kProtectedPublic) {
        mutexes_.push_back(std::make_unique<HwMutex>(engine, memory.sram(),
                                                     config.hw.mutex_grant_cycles));
        aux.mutex = mutexes_.back().get();
      }
      auto& list = by_output_ctx_[static_cast<size_t>(aux.out_ctx)];
      uint32_t& word = ready_word_addr[static_cast<size_t>(aux.out_ctx)];
      aux.ready_bit = static_cast<uint32_t>(list.size() % 32);
      if (!list.empty() && aux.ready_bit == 0) {
        word = new_ready_word();  // the context's last word is full
      }
      aux.ready_word = word;
      list.push_back(queues_.back().get());
      aux_.push_back(aux);
    }
  }
}

size_t QueuePlan::IndexFor(int input_ctx, uint8_t out_port, uint32_t priority) const {
  if (input_queueing_ == InputQueueing::kPrivatePerContext) {
    return static_cast<size_t>(out_port) * static_cast<size_t>(num_input_contexts_) +
           static_cast<size_t>(input_ctx);
  }
  assert(priority < static_cast<uint32_t>(queues_per_port_));
  return static_cast<size_t>(out_port) * static_cast<size_t>(queues_per_port_) + priority;
}

PacketQueue& QueuePlan::QueueFor(int input_ctx, uint8_t out_port, uint32_t priority) {
  return *queues_[IndexFor(input_ctx, out_port, priority)];
}

// Queues not built by this plan (the bridge's exception queues) carry ids
// outside aux_; they have no plan mutex or readiness bit.
bool QueuePlan::Owns(const PacketQueue& queue) const {
  return static_cast<size_t>(queue.id()) < aux_.size() &&
         queues_[static_cast<size_t>(queue.id())].get() == &queue;
}

HwMutex* QueuePlan::MutexFor(const PacketQueue& queue) {
  if (!Owns(queue)) {
    return nullptr;
  }
  return aux_[static_cast<size_t>(queue.id())].mutex;
}

void QueuePlan::MarkReady(const PacketQueue& queue) {
  if (!Owns(queue)) {
    return;
  }
  const QueueAux& aux = aux_[static_cast<size_t>(queue.id())];
  const uint32_t word = scratch_store_.ReadU32(aux.ready_word);
  scratch_store_.WriteU32(aux.ready_word, word | (1u << aux.ready_bit));
}

void QueuePlan::ClearReady(const PacketQueue& queue) {
  if (!Owns(queue)) {
    return;
  }
  const QueueAux& aux = aux_[static_cast<size_t>(queue.id())];
  const uint32_t word = scratch_store_.ReadU32(aux.ready_word);
  scratch_store_.WriteU32(aux.ready_word, word & ~(1u << aux.ready_bit));
}

bool QueuePlan::IsReady(const PacketQueue& queue) const {
  if (!Owns(queue)) {
    return false;
  }
  const QueueAux& aux = aux_[static_cast<size_t>(queue.id())];
  return (scratch_store_.ReadU32(aux.ready_word) >> aux.ready_bit & 1) != 0;
}

uint64_t QueuePlan::TotalDrops() const {
  uint64_t drops = 0;
  for (const auto& q : queues_) {
    drops += q->drops();
  }
  return drops;
}

}  // namespace npr
