// EventFn: a small-buffer, move-only callable for simulator events.
//
// The event loop is the hottest path in the whole system: every message
// delivery, timer, and protocol step is one scheduled callable. std::function
// forces copy-constructible targets and (for captures beyond its tiny SBO)
// a heap allocation per event. EventFn accepts move-only captures and keeps
// anything up to kInlineSize bytes inline, so the common case — a lambda
// capturing `this` plus a couple of words — costs zero allocations.

#ifndef SCATTER_SRC_SIM_EVENT_FN_H_
#define SCATTER_SRC_SIM_EVENT_FN_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace scatter::sim {

class EventFn {
 public:
  // Holds `this` plus a shared_ptr and a couple of words, which covers every
  // callback on the benchmark workloads' hot paths (their allocation counts
  // are the same at 48 and at 88 bytes); larger captures go to the heap.
  static constexpr size_t kInlineSize = 48;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-construct into `to` and destroy the source (storage is treated as
    // trivially relocatable at the EventFn level).
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* storage);
  };

  template <typename D>
  static constexpr Ops kInlineOps = {
      [](void* s) { (*std::launder(reinterpret_cast<D*>(s)))(); },
      [](void* from, void* to) {
        D* src = std::launder(reinterpret_cast<D*>(from));
        ::new (to) D(std::move(*src));
        src->~D();
      },
      [](void* s) { std::launder(reinterpret_cast<D*>(s))->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      [](void* s) { (**reinterpret_cast<D**>(s))(); },
      [](void* from, void* to) {
        *reinterpret_cast<D**>(to) = *reinterpret_cast<D**>(from);
      },
      [](void* s) { delete *reinterpret_cast<D**>(s); },
  };

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
};

}  // namespace scatter::sim

#endif  // SCATTER_SRC_SIM_EVENT_FN_H_
