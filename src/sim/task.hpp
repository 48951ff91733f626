// Coroutine-based logical processes for the discrete-event simulator.
//
// sim::Task<T> is a lazily-started coroutine whose awaiter chains the
// caller as its continuation (symmetric transfer, so arbitrarily deep call
// chains use O(1) stack). A Task is single-shot: it is either co_awaited by
// exactly one parent or handed to Engine-level spawn() (see process.hpp).
//
// Everything runs on the single simulation thread, so promises need no
// synchronization (C++ Core Guidelines CP.1 caveat: this library is
// explicitly single-threaded by design; the *simulated* concurrency is in
// virtual time).
//
// Coroutine frames come from a size-class pool (detail::FramePool) rather
// than from malloc: a simulation creates and frees millions of them.
#pragma once

#include <cassert>
#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <utility>

namespace hupc::sim {

template <class T>
class Task;

namespace detail {

/// Free lists of coroutine frames in 64-byte size classes, carved from
/// 64 KiB slabs. Frames are freed to their class and reused; slabs are never
/// returned, so the pool holds the peak number of live frames. The pool is
/// trivially destructible and never torn down, because frames can still be
/// freed during static destruction.
class FramePool {
 public:
  static void* allocate(std::size_t n) {
    const std::size_t c = (n + kGranule - 1) / kGranule;
    if (c > kClasses) return ::operator new(n);
    void*& head = pool_.free_[c - 1];
    if (head == nullptr) return pool_.carve(c * kGranule);
    void* p = head;
    head = *static_cast<void**>(p);
    return p;
  }

  static void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t c = (n + kGranule - 1) / kGranule;
    if (c > kClasses) {
      ::operator delete(p, n);
      return;
    }
    void*& head = pool_.free_[c - 1];
    *static_cast<void**>(p) = head;
    head = p;
  }

 private:
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kClasses = 32;  // frames up to 2 KiB
  static constexpr std::size_t kSlab = 64 * 1024;

  void* carve(std::size_t bytes) {
    if (static_cast<std::size_t>(end_ - bump_) < bytes) {
      bump_ = static_cast<std::byte*>(::operator new(kSlab));
      end_ = bump_ + kSlab;
    }
    void* p = bump_;
    bump_ += bytes;
    return p;
  }

  void* free_[kClasses] = {};
  std::byte* bump_ = nullptr;
  std::byte* end_ = nullptr;
  static constinit FramePool pool_;
};

inline constinit FramePool FramePool::pool_{};

/// Base of every simulation coroutine promise: its frame comes from the
/// pool. Under AddressSanitizer frames keep the global allocator, so ASan
/// still reports a use of a freed frame, as gas::Segment keeps its
/// poisoning (DESIGN.md §12, §17).
#if defined(__SANITIZE_ADDRESS__)
struct PooledFrame {};
#else
struct PooledFrame {
  static void* operator new(std::size_t n) { return FramePool::allocate(n); }
  static void operator delete(void* p, std::size_t n) noexcept {
    FramePool::deallocate(p, n);
  }
};
#endif

class PromiseBase : public PooledFrame {
 public:
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <class Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> h) noexcept {
      auto cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

template <class T>
class Promise final : public PromiseBase {
 public:
  Task<T> get_return_object() noexcept;
  void return_value(T value) noexcept { value_ = std::move(value); }
  T take_value() {
    if (this->exception) std::rethrow_exception(this->exception);
    return std::move(value_);
  }

 private:
  T value_{};
};

template <>
class Promise<void> final : public PromiseBase {
 public:
  Task<void> get_return_object() noexcept;
  void return_void() noexcept {}
  void take_value() {
    if (this->exception) std::rethrow_exception(this->exception);
  }
};

}  // namespace detail

/// A lazily-started simulation coroutine returning T.
template <class T>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using handle_type = std::coroutine_handle<promise_type>;

  Task() noexcept = default;
  explicit Task(handle_type h) noexcept : handle_(h) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }
  [[nodiscard]] bool done() const noexcept { return handle_ && handle_.done(); }

  /// Awaiting a Task starts it and suspends the awaiter until it completes;
  /// the result (or exception) of the child is propagated.
  auto operator co_await() && noexcept {
    struct Awaiter {
      handle_type handle;
      bool await_ready() const noexcept { return !handle || handle.done(); }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;  // symmetric transfer: start the child immediately
      }
      T await_resume() { return handle.promise().take_value(); }
    };
    return Awaiter{handle_};
  }

  /// Release ownership of the coroutine frame (used by the spawn machinery,
  /// which takes over lifetime management).
  handle_type release() noexcept { return std::exchange(handle_, {}); }

 private:
  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  handle_type handle_{};
};

namespace detail {

template <class T>
Task<T> Promise<T>::get_return_object() noexcept {
  return Task<T>(std::coroutine_handle<Promise<T>>::from_promise(*this));
}

inline Task<void> Promise<void>::get_return_object() noexcept {
  return Task<void>(std::coroutine_handle<Promise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace hupc::sim
