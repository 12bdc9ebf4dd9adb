// Small-buffer callable for simulation events.
//
// The event core runs millions of callbacks per simulated millisecond, almost
// all of which capture one or two pointers (a context to resume, a channel to
// poke). std::function heap-allocates anything larger than its tiny SBO and
// always pays a manager-function indirection; EventFn instead stores small
// trivially-copyable callables inline in the event node, has dedicated
// representations for `fn-ptr + context` and `coroutine_handle` (the two hot
// shapes), and boxes on the heap any callable that is larger than
// kInlineBytes, over-aligned, or not trivially copyable and destructible
// (e.g. a lambda capturing a Packet or a shared_ptr).
//
// EventFn is move-only: events are scheduled once and run once. The
// Emplace* members construct a callable in an empty EventFn; EventQueue uses
// them to write each callback once, straight into the pooled node that runs
// it, so the hot scheduling paths never build an EventFn and move it.

#ifndef SRC_SIM_EVENT_FN_H_
#define SRC_SIM_EVENT_FN_H_

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace npr {

class EventFn {
 public:
  // Three pointers of inline storage: enough for every per-cycle callback in
  // the simulator ([this], [ctx], [self, port], [m, c], ...).
  static constexpr size_t kInlineBytes = 24;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  // Raw fast path: a plain function pointer plus context, no type erasure.
  EventFn(void (*fn)(void*), void* ctx) noexcept { EmplaceRaw(fn, ctx); }

  // Generic callables (see Emplace).
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, EventFn> &&
                                        !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                                        std::is_invocable_v<std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(f));
  }

  // Not assignable: a callback is written once, by a constructor or an
  // Emplace* member, and moves only into a fresh EventFn.
  EventFn(EventFn&& other) noexcept { MoveFrom(other); }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }

  // Runs the callable. The callable must be non-empty and not moved-from.
  void operator()() { invoke_(this); }

  // Destroys the callable (if any) and leaves the EventFn empty, ready for
  // an Emplace* call (how the event queue recycles a node).
  void Reset() noexcept {
    if (destroy_ != nullptr) {
      destroy_(this);
    }
    invoke_ = nullptr;
    destroy_ = nullptr;
  }

  // In-place construction. Each requires an empty EventFn (default-built or
  // Reset) and writes the callable's representation exactly once.
  void EmplaceRaw(void (*fn)(void*), void* ctx) noexcept {
    assert(!*this && "EventFn already holds a callable");
    const RawThunk thunk{fn, ctx};
    std::memcpy(buf_, &thunk, sizeof(thunk));
    invoke_ = &InvokeRaw;
  }

  // Resumes `h` when invoked.
  void EmplaceResume(std::coroutine_handle<> h) noexcept {
    assert(!*this && "EventFn already holds a callable");
    void* addr = h.address();
    std::memcpy(buf_, &addr, sizeof(addr));
    invoke_ = &InvokeCoro;
  }

  // Any callable. An rvalue EventFn is moved in; small trivially-copyable
  // callables are stored inline; anything else is boxed on the heap (cold,
  // per-frame paths only).
  template <typename F>
  void Emplace(F&& f) {
    using D = std::decay_t<F>;
    assert(!*this && "EventFn already holds a callable");
    if constexpr (std::is_same_v<D, EventFn>) {
      static_assert(!std::is_lvalue_reference_v<F>, "EventFn is move-only");
      MoveFrom(f);
    } else if constexpr (sizeof(D) <= kInlineBytes && alignof(D) <= alignof(void*) &&
                         std::is_trivially_copyable_v<D> &&
                         std::is_trivially_destructible_v<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      invoke_ = &InvokeInline<D>;
    } else {
      D* boxed = new D(std::forward<F>(f));
      std::memcpy(buf_, &boxed, sizeof(boxed));
      invoke_ = &InvokeBoxed<D>;
      destroy_ = &DestroyBoxed<D>;
    }
  }

 private:
  struct RawThunk {
    void (*fn)(void*);
    void* ctx;
  };

  static void InvokeRaw(EventFn* self) {
    RawThunk thunk;
    std::memcpy(&thunk, self->buf_, sizeof(thunk));
    thunk.fn(thunk.ctx);
  }

  static void InvokeCoro(EventFn* self) {
    void* addr;
    std::memcpy(&addr, self->buf_, sizeof(addr));
    std::coroutine_handle<>::from_address(addr).resume();
  }

  template <typename D>
  static void InvokeInline(EventFn* self) {
    (*std::launder(reinterpret_cast<D*>(self->buf_)))();
  }

  template <typename D>
  static D* Boxed(const EventFn* self) {
    D* boxed;
    std::memcpy(&boxed, self->buf_, sizeof(boxed));
    return boxed;
  }

  template <typename D>
  static void InvokeBoxed(EventFn* self) {
    (*Boxed<D>(self))();
  }

  template <typename D>
  static void DestroyBoxed(EventFn* self) {
    delete Boxed<D>(self);
  }

  // Inline callables are trivially copyable and boxed ones live behind a
  // pointer, so a move is a memcpy plus disowning the source.
  void MoveFrom(EventFn& other) noexcept {
    invoke_ = other.invoke_;
    destroy_ = other.destroy_;
    std::memcpy(buf_, other.buf_, kInlineBytes);
    other.invoke_ = nullptr;
    other.destroy_ = nullptr;
  }

  void (*invoke_)(EventFn*) = nullptr;
  void (*destroy_)(EventFn*) = nullptr;
  alignas(void*) unsigned char buf_[kInlineBytes];
};

}  // namespace npr

#endif  // SRC_SIM_EVENT_FN_H_
