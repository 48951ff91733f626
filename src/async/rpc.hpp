// Remote procedure calls over the simulated runtime (DESIGN.md §13).
//
// async::rpc ships a callable plus bound arguments to the rank that owns
// the data and returns a chainable future for the result. The mechanics
// mirror UPC++/GASNet active messages:
//
//   * the bound arguments are SERIALIZED into a net::RpcMessage buffer at
//     the caller and decoded at the target — values genuinely round-trip
//     through the wire buffer; only trivially-copyable argument and result
//     types are accepted. Code (the callable) travels by value through the
//     shared address space, as it would through a symmetric binary.
//   * the request is charged to the network as an ordinary transfer of
//     wire_bytes() (header + payload), flowing through the same injection
//     FIFOs, fault seams and counters as every other message; same-node
//     targets ride the loopback/shm paths like bulk copies do.
//   * delivery waits for a turn on the TARGET rank's persona — a
//     sim::ProgressQueue drained by the engine — so handlers start in
//     strict delivery order per rank, one progress context per rank.
//     Handlers are coroutines executing in the target's gas::Thread
//     context: they may co_await GAS operations and issue nested RPCs.
//   * the reply (serialized result) is charged back to the caller, then
//     the future resolves — after any installed fault::CompletionHook
//     delay, so completion storms reorder observations, never effects.
//
// Trace counters: async.rpc.sent / executed / completed (and .bytes for
// wire volume), cross-checked by fault::check_async_ordering.
//
// An RpcDomain must outlive the engine run it participates in; construct
// it next to the Runtime, before spmd().
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "async/future.hpp"
#include "gas/runtime.hpp"
#include "net/rpc_message.hpp"
#include "sim/progress.hpp"
#include "trace/trace.hpp"

namespace hupc::async {

namespace detail {

/// Handlers may return a plain value, void, or sim::Task<R> (coroutine in
/// the target's context); this strips the Task wrapper.
template <class T>
struct rpc_result {
  using type = T;
};
template <class T>
struct rpc_result<sim::Task<T>> {
  using type = T;
};
template <class T>
using rpc_result_t = typename rpc_result<T>::type;

template <class T>
inline constexpr bool is_task = false;
template <class T>
inline constexpr bool is_task<sim::Task<T>> = true;

}  // namespace detail

class RpcDomain {
 public:
  /// A view over the async.rpc.* counters, summed over every rank (wire
  /// bytes are the async.rpc.bytes counter).
  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t executed = 0;
    std::uint64_t completed = 0;
  };

  explicit RpcDomain(gas::Runtime& rt);

  RpcDomain(const RpcDomain&) = delete;
  RpcDomain& operator=(const RpcDomain&) = delete;

  [[nodiscard]] Stats stats() const;

  /// Ship `fn(target_thread, args...)` to `target`; returns the future of
  /// its result. `fn` may return R, void, or sim::Task<R>. `from` is the
  /// issuing rank's context (identity + charge attribution).
  template <class Fn, class... Args>
  [[nodiscard]] auto call(gas::Thread& from, int target, Fn fn, Args... args)
      -> future<detail::rpc_result_t<
          std::invoke_result_t<Fn, gas::Thread&, std::decay_t<Args>&...>>> {
    using Raw =
        std::invoke_result_t<Fn, gas::Thread&, std::decay_t<Args>&...>;
    using R = detail::rpc_result_t<Raw>;
    static_assert((std::is_trivially_copyable_v<std::decay_t<Args>> && ...),
                  "async::rpc bound arguments must be trivially copyable "
                  "(they are serialized onto the wire)");
    static_assert(std::is_void_v<R> || std::is_trivially_copyable_v<R>,
                  "async::rpc results must be void or trivially copyable "
                  "(the reply is serialized onto the wire)");

    net::RpcMessage msg(net::RpcKind::request, next_id_++, from.rank(),
                        target, (sizeof(std::decay_t<Args>) + ... + 0));
    (msg.put(static_cast<std::decay_t<Args>>(args)), ...);
    note_sent(from.rank(), msg.wire_bytes());

    promise<R> done(rt_->engine());
    future<R> fut = done.get_future();
    sim::spawn(rt_->engine(),
               deliver<Fn, R, std::decay_t<Args>...>(std::move(msg),
                                                     std::move(fn),
                                                     std::move(done)));
    return fut;
  }

 private:
  /// Request leg: charge the transport, then wait for a turn on the
  /// target's persona (FIFO start order per rank) and start the invocation.
  template <class Fn, class R, class... As>
  [[nodiscard]] sim::Task<void> deliver(net::RpcMessage msg, Fn fn,
                                        promise<R> done) {
    const int caller = msg.src_rank();
    const int target = msg.dst_rank();
    co_await transport(caller, target,
                       static_cast<double>(msg.wire_bytes()));
    co_await personas_[static_cast<std::size_t>(target)]->turn();
    sim::spawn(rt_->engine(),
               execute<Fn, R, As...>(std::move(msg), std::move(fn),
                                     std::move(done)));
  }

  /// Target-side execution + reply leg. Runs as its own root process so a
  /// handler that suspends (GAS ops, nested RPC — including back to this
  /// rank) never wedges the persona.
  template <class Fn, class R, class... As>
  [[nodiscard]] sim::Task<void> execute(net::RpcMessage msg, Fn fn,
                                        promise<R> done) {
    const int caller = msg.src_rank();
    const int target = msg.dst_rank();
    note_executed(target);
    msg.rewind();
    // Braced-init guarantees left-to-right decode, matching put() order.
    std::tuple<As...> args{msg.get<As>()...};
    gas::Thread& at = rt_->thread(target);
    net::RpcMessage reply(net::RpcKind::reply, msg.id(), target, caller);
    std::exception_ptr error;  // co_await is illegal inside a catch block
    try {
      if constexpr (std::is_void_v<R>) {
        if constexpr (detail::is_task<std::invoke_result_t<
                          Fn, gas::Thread&, As&...>>) {
          co_await std::apply(
              [&](As&... a) { return fn(at, a...); }, args);
        } else {
          std::apply([&](As&... a) { fn(at, a...); }, args);
        }
      } else {
        R result = co_await [&]() -> sim::Task<R> {
          if constexpr (detail::is_task<std::invoke_result_t<
                            Fn, gas::Thread&, As&...>>) {
            co_return co_await std::apply(
                [&](As&... a) { return fn(at, a...); }, args);
          } else {
            co_return std::apply([&](As&... a) { return fn(at, a...); },
                                 args);
          }
        }();
        reply.put(result);
      }
    } catch (...) {
      error = std::current_exception();
    }
    // Exceptions travel by shared state, not by wire: a failed reply still
    // pays its (header-only) transport so the completion schedule stays
    // modeled.
    co_await transport(target, caller,
                       static_cast<double>(reply.wire_bytes()));
    if (error) {
      done.set_exception(error);
      co_return;
    }
    co_await completion_delay(caller);
    note_completed(caller);
    if constexpr (std::is_void_v<R>) {
      done.set_value();
    } else {
      reply.rewind();
      done.set_value(reply.get<R>());  // the value that crossed the wire
    }
  }

  /// Modeled cost of moving `bytes` from `from_rank`'s node to
  /// `to_rank`'s: rma cross-node, loopback intra-node, shm handoff within
  /// a supernode, fixed software cost to self.
  [[nodiscard]] sim::Task<void> transport(int from_rank, int to_rank,
                                          double bytes);
  /// Awaitable fault::CompletionHook consultation for `rank` (no-op when
  /// no hook is installed or it returns no delay).
  [[nodiscard]] sim::Task<void> completion_delay(int rank);

  void note_sent(int rank, std::size_t wire_bytes);
  void note_executed(int rank);
  void note_completed(int rank);

  gas::Runtime* rt_;
  std::vector<std::unique_ptr<sim::ProgressQueue>> personas_;
  std::uint64_t next_id_ = 0;
};

/// Free-function spelling: `async::rpc(domain, self, target, fn, args...)`.
template <class Fn, class... Args>
[[nodiscard]] auto rpc(RpcDomain& domain, gas::Thread& from, int target,
                       Fn fn, Args&&... args) {
  return domain.call(from, target, std::move(fn),
                     std::forward<Args>(args)...);
}

}  // namespace hupc::async
