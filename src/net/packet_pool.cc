#include "src/net/packet_pool.h"

#include <algorithm>
#include <new>

namespace npr {
namespace {

int ClassFor(uint32_t bytes) {
  for (int c = 0; c < PacketPool::kNumClasses; ++c) {
    if (bytes <= PacketPool::kClassBytes[c]) {
      return c;
    }
  }
  return -1;
}

}  // namespace

void FrameBuf::Unref() {
  if (refcount.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (pool != nullptr) {
      pool->Release(this);
    } else {
      this->~FrameBuf();
      ::operator delete(this);
    }
  }
}

PacketPool::~PacketPool() {
  for (void* slab : slabs_) {
    ::operator delete(slab);
  }
}

bool PacketPool::GrowClass(int cls) {
  uint32_t want = kSlabFrames;
  if (max_frames_per_class_ != 0) {
    if (frames_in_class_[cls] >= max_frames_per_class_) {
      return false;
    }
    want = std::min<uint32_t>(want, max_frames_per_class_ - frames_in_class_[cls]);
  }
  // Every header sits at a multiple of its alignment, so no refcount
  // straddles a cache line: an atomic RMW on one that did would be a
  // bus-wide split lock, which the kernel may trap on every call. The
  // rounded stride only keeps that promise if the slab base is aligned too.
  static_assert(alignof(FrameBuf) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
  const size_t stride = (sizeof(FrameBuf) + kClassBytes[cls] + alignof(FrameBuf) - 1) /
                        alignof(FrameBuf) * alignof(FrameBuf);
  void* slab = ::operator new(stride * want);
  slabs_.push_back(slab);
  for (uint32_t i = 0; i < want; ++i) {
    auto* buf = new (static_cast<char*>(slab) + stride * i) FrameBuf();
    buf->pool = this;
    buf->capacity = kClassBytes[cls];
    buf->size_class = static_cast<uint8_t>(cls);
    buf->next_free = free_head_[cls];
    free_head_[cls] = buf;
  }
  frames_in_class_[cls] += want;
  return true;
}

FrameBuf* PacketPool::TryAcquire(uint32_t bytes) {
  const int cls = ClassFor(bytes);
  if (cls < 0) {
    ++exhausted_;
    return nullptr;
  }
  if (free_head_[cls] == nullptr && !GrowClass(cls)) {
    ++exhausted_;
    return nullptr;
  }
  FrameBuf* buf = free_head_[cls];
  free_head_[cls] = buf->next_free;
  buf->next_free = nullptr;
  buf->len = bytes;
  buf->refcount.store(1, std::memory_order_relaxed);
  ++acquires_;
  if (outstanding() > high_water_) {
    high_water_ = outstanding();
  }
  return buf;
}

FrameBuf* PacketPool::AcquireHeap(uint32_t bytes) {
  void* raw = ::operator new(sizeof(FrameBuf) + bytes);
  auto* buf = new (raw) FrameBuf();
  buf->capacity = bytes;
  buf->len = bytes;
  buf->refcount.store(1, std::memory_order_relaxed);
  return buf;
}

void PacketPool::Release(FrameBuf* buf) {
  buf->next_free = free_head_[buf->size_class];
  free_head_[buf->size_class] = buf;
  ++releases_;
}

}  // namespace npr
