// Small-buffer-optimized, move-only callback for the event engine.
//
// Every simulated action — packet hops, NIC pipeline stages, completion
// writes — is one of these. std::function heap-allocates any capture
// larger than ~2 pointers, which put an allocate/free pair on every hot
// event; this type stores captures up to kInlineCapacity (sized to fit a
// `[this, int, Packet]` fabric-hop closure) inline in the event slot.
// Oversized captures fall back to a pooled free list of fixed-size blocks,
// so even they stop hitting the allocator once the pool is warm.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace rvma::sim {

namespace detail {

/// Intrusive free list of fixed-size blocks for callables that do not fit
/// inline. A thread keeps its free blocks until it exits — steady-state
/// simulation reuses them with zero allocator traffic — and then returns
/// them to the allocator, so finished shard and sweep threads leak
/// nothing. The simulator is single-threaded per engine; thread_local
/// keeps engines on different threads from sharing (and racing on) a pool.
class CallbackBlockPool {
 public:
  static constexpr std::size_t kBlockSize = 256;

  static void* acquire() {
    void*& head = free_head();
    if (head != nullptr) {
      void* block = head;
      head = *static_cast<void**>(block);
      return block;
    }
    return ::operator new(kBlockSize);
  }

  static void release(void* block) noexcept {
    void*& head = free_head();
    *static_cast<void**>(block) = head;
    head = block;
  }

 private:
  struct FreeList {
    void* head = nullptr;
    ~FreeList() {
      while (head != nullptr) {
        void* next = *static_cast<void**>(head);
        ::operator delete(head);
        head = next;
      }
    }
  };

  static void*& free_head() {
    thread_local FreeList list;
    return list.head;
  }
};

}  // namespace detail

class Callback {
 public:
  /// Inline capture capacity. A fabric/NIC packet closure — `this` pointer,
  /// a couple of ints, and a 64-byte Packet (pooled MsgRef handle) — is
  /// ~80 bytes; 112 keeps every per-packet closure inline with slack for
  /// a few more captured words.
  static constexpr std::size_t kInlineCapacity = 112;

  Callback() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, Callback> &&
                                        std::is_invocable_r_v<void, D&>>>
  Callback(F&& f) {  // NOLINT(google-explicit-constructor): mirrors std::function
    construct_from(std::forward<F>(f));
  }

  /// Construct a callable directly in this object's storage, replacing any
  /// held callable. The hot-path alternative to `cb = Callback(fn)`, which
  /// would build a temporary and relocate its (up to 112-byte) capture.
  template <typename F, typename D = std::decay_t<F>>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<D, Callback>) {
      *this = std::forward<F>(f);
    } else {
      static_assert(std::is_invocable_r_v<void, D&>);
      reset();
      construct_from(std::forward<F>(f));
    }
  }

  Callback(Callback&& other) noexcept { move_from(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { reset(); }

  void operator()() { ops_->invoke(buf_); }

  /// Invoke the callable, then destroy it and return to the empty state —
  /// one indirection instead of invoke + destroy. The empty state is
  /// entered before the call, so the callable may safely re-arm this
  /// Callback (e.g. an event slot) from inside its own execution only after
  /// the engine releases the slot.
  void invoke_and_reset() {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->invoke_destroy(buf_);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Destroy the held callable (if any) and return to the empty state.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* buf);
    /// Invoke, then destroy the callable (the event-execution fast path).
    void (*invoke_destroy)(void* buf);
    /// Move the callable from `src_buf` into `dst_buf` and leave the source
    /// empty (heap modes just transfer the block pointer).
    void (*relocate)(void* dst_buf, void* src_buf) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <typename D>
  static D& inline_obj(void* buf) {
    return *std::launder(reinterpret_cast<D*>(buf));
  }
  template <typename D>
  static D& heap_obj(void* buf) {
    return *static_cast<D*>(*reinterpret_cast<void**>(buf));
  }

  template <typename D>
  static constexpr Ops inline_ops = {
      [](void* buf) { inline_obj<D>(buf)(); },
      [](void* buf) {
        inline_obj<D>(buf)();
        inline_obj<D>(buf).~D();
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(inline_obj<D>(src)));
        inline_obj<D>(src).~D();
      },
      [](void* buf) noexcept { inline_obj<D>(buf).~D(); },
  };

  template <typename D>
  static constexpr Ops pooled_ops = {
      [](void* buf) { heap_obj<D>(buf)(); },
      [](void* buf) {
        void* block = *reinterpret_cast<void**>(buf);
        (*static_cast<D*>(block))();
        static_cast<D*>(block)->~D();
        detail::CallbackBlockPool::release(block);
      },
      [](void* dst, void* src) noexcept {
        *reinterpret_cast<void**>(dst) = *reinterpret_cast<void**>(src);
      },
      [](void* buf) noexcept {
        void* block = *reinterpret_cast<void**>(buf);
        static_cast<D*>(block)->~D();
        detail::CallbackBlockPool::release(block);
      },
  };

  template <typename D>
  static constexpr Ops oversized_ops = {
      [](void* buf) { heap_obj<D>(buf)(); },
      [](void* buf) {
        void* block = *reinterpret_cast<void**>(buf);
        (*static_cast<D*>(block))();
        static_cast<D*>(block)->~D();
        ::operator delete(block, std::align_val_t{alignof(D)});
      },
      [](void* dst, void* src) noexcept {
        *reinterpret_cast<void**>(dst) = *reinterpret_cast<void**>(src);
      },
      [](void* buf) noexcept {
        void* block = *reinterpret_cast<void**>(buf);
        static_cast<D*>(block)->~D();
        ::operator delete(block, std::align_val_t{alignof(D)});
      },
  };

  template <typename F, typename D = std::decay_t<F>>
  void construct_from(F&& f) {
    if constexpr (sizeof(D) <= kInlineCapacity &&
                  alignof(D) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &inline_ops<D>;
    } else if constexpr (sizeof(D) <= detail::CallbackBlockPool::kBlockSize &&
                         alignof(D) <= alignof(std::max_align_t)) {
      void* block = detail::CallbackBlockPool::acquire();
      ::new (block) D(std::forward<F>(f));
      *reinterpret_cast<void**>(buf_) = block;
      ops_ = &pooled_ops<D>;
    } else {
      void* block = ::operator new(sizeof(D), std::align_val_t{alignof(D)});
      ::new (block) D(std::forward<F>(f));
      *reinterpret_cast<void**>(buf_) = block;
      ops_ = &oversized_ops<D>;
    }
  }

  void move_from(Callback& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) std::byte buf_[kInlineCapacity];
  const Ops* ops_ = nullptr;
};

}  // namespace rvma::sim
