// UPC-style collectives built from one-sided operations — optionally scoped
// to a *subset* of ranks (the GASNet-teams extension the thesis §3.2.1
// anticipates: "GASNet teams are designed ... to facilitate collective
// operations on a subset of threads") — with MULTIPLE ALGORITHMS per
// operation, chosen by a CollectiveSelector keyed on message size and team
// shape (gas/coll_algo.hpp; DESIGN.md §14).
//
// Algorithms (every cell bit-identical to the flat oracle — the
// cross-algorithm equivalence harness in tests/gas_collectives_algo_test.cpp
// pins this):
//   broadcast — flat: binomial tree over copy() with per-member readiness
//               events; hier: leaders-only binomial across nodes, then a
//               flat intra-node push from each leader (PSHM inside,
//               network across).
//   reduce    — flat: one-sided gather into the root's staging + combine;
//               hier: node-local combine at each leader, leaders ship one
//               partial each. Combine order is ascending member index at
//               every level, so results are bit-identical across
//               algorithms for exactly associative + commutative ops.
//   allgather — flat: direct staggered puts (oracle); ring: n-1 rounds of
//               nearest-neighbour single-block forwarding; dissem:
//               ceil(log2 n) rounds with doubling block sets.
//   alltoall  — exchange(): flat staggered (the §4.3.3.1 pattern the
//               thesis FT used because group-aware collectives were
//               missing); hier: node-local gather into the leader's
//               staging, one aggregated message per leader pair, local
//               scatter.
//
// Every collective must be called by all member ranks (SPMD semantics).
// Matching is per-(team, op): each member keeps one call-sequence counter
// PER OPERATION KIND, so two overlapping teams sharing a rank — or one
// team pipelining different operations — can interleave calls without a
// broadcast's state ever pairing with a reduce's (the latent hazard of the
// earlier single per-member counter). Buffer vectors are indexed by
// *member index* (== global rank for the whole-runtime scope). Member
// order is the construction order and may be arbitrary (Team::split orders
// by key); it is NOT required to be sorted.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "gas/coll_algo.hpp"
#include "gas/runtime.hpp"
#include "sim/sim.hpp"
#include "trace/trace.hpp"

namespace hupc::gas {

namespace detail {

inline const trace::CounterId kCollBroadcast =
    trace::intern("gas.coll.broadcast");
inline const trace::CounterId kCollReduce = trace::intern("gas.coll.reduce");
inline const trace::CounterId kCollGather = trace::intern("gas.coll.gather");
inline const trace::CounterId kCollAllgather =
    trace::intern("gas.coll.allgather");
inline const trace::CounterId kCollAlltoall =
    trace::intern("gas.coll.alltoall");

struct CollState {
  std::vector<async::promise<>> ready;
  int arrived = 0;
};

}  // namespace detail

/// Shared coordination space for collectives over a member set.
class Collectives {
 public:
  /// Whole-runtime scope: members are all ranks, member index == rank.
  explicit Collectives(Runtime& rt) : Collectives(rt, all_ranks(rt)) {}

  /// Team scope: `members` must be non-empty, unique, valid ranks; any
  /// order (member index == position in `members`).
  Collectives(Runtime& rt, std::vector<int> members,
              CollectiveSelector selector = {})
      : rt_(&rt),
        members_(validated(rt, std::move(members))),
        selector_(selector),
        seq_(members_.size()),
        barrier_(std::make_unique<sim::Barrier>(
            rt.engine(), static_cast<int>(members_.size()))) {
    // Node groups in ascending node order; each group's members keep their
    // member-index order and the first one is the group's leader.
    std::map<int, std::vector<int>> by_node;
    for (std::size_t i = 0; i < members_.size(); ++i) {
      by_node[rt.node_of(members_[i])].push_back(static_cast<int>(i));
    }
    group_of_.resize(members_.size(), 0);
    for (auto& [node, idxs] : by_node) {
      (void)node;
      for (int i : idxs) {
        group_of_[static_cast<std::size_t>(i)] =
            static_cast<int>(groups_.size());
      }
      groups_.push_back(std::move(idxs));
    }
    spans_nodes_ = groups_.size() > 1;
  }

  [[nodiscard]] int size() const noexcept {
    return static_cast<int>(members_.size());
  }
  [[nodiscard]] const std::vector<int>& members() const noexcept {
    return members_;
  }
  [[nodiscard]] bool spans_nodes() const noexcept { return spans_nodes_; }
  [[nodiscard]] int node_groups() const noexcept {
    return static_cast<int>(groups_.size());
  }
  [[nodiscard]] CollectiveSelector& selector() noexcept { return selector_; }
  [[nodiscard]] const CollectiveSelector& selector() const noexcept {
    return selector_;
  }

  /// Member index of a global rank; -1 when not a member.
  [[nodiscard]] int index_of(int rank) const {
    for (std::size_t i = 0; i < members_.size(); ++i) {
      if (members_[i] == rank) return static_cast<int>(i);
    }
    return -1;
  }
  [[nodiscard]] bool contains(int rank) const { return index_of(rank) >= 0; }

  /// The algorithm a call with this operation and payload would run under
  /// (resolving `automatic` through the selector; exposed for benches,
  /// logs and the equivalence harness).
  [[nodiscard]] CollAlgo resolve(CollOp op, std::size_t bytes,
                                 CollAlgo requested) const {
    const CollAlgo algo =
        requested == CollAlgo::automatic
            ? selector_.choose(op, bytes, size(), spans_nodes_)
            : requested;
    if (!coll_algo_supported(op, algo)) {
      throw std::invalid_argument(
          std::string("Collectives: algorithm '") + coll_algo_name(algo) +
          "' is not available for " + coll_op_name(op));
    }
    return algo;
  }

  /// Barrier across the member set (cost scales with its hardware span:
  /// an intra-node group pays no network rounds).
  [[nodiscard]] sim::Task<void> barrier(Thread& self) {
    (void)require_member(self);
    co_await barrier_->arrive_and_wait();
    co_await sim::delay(rt_->engine(), barrier_cost());
  }

  /// All-to-all personalized exchange within the member set: member m's
  /// `send + p*count` goes to member p's `recv_bases[p] + m*count`. With
  /// `overlap`, the flat algorithm issues all puts non-blocking and awaits
  /// them together. `algo`: flat | hier | automatic.
  template <class T>
  [[nodiscard]] sim::Task<void> exchange(
      Thread& self, const std::vector<GlobalPtr<T>>& recv_bases,
      const T* send, std::size_t count, bool overlap = false,
      CollAlgo algo = CollAlgo::automatic) {
    const CollAlgo chosen = resolve(CollOp::alltoall, count * sizeof(T), algo);
    count_call(self, detail::kCollAlltoall);
    if (chosen == CollAlgo::hier && node_groups() > 1) {
      co_await exchange_hier(self, recv_bases, send, count);
    } else {
      co_await exchange_flat(self, recv_bases, send, count, overlap);
    }
  }

  /// Broadcast of `count` elements from member index `root`. `bufs[m]` is
  /// member m's buffer; the root's holds the payload on entry.
  /// `algo`: flat (binomial) | hier (leader two-level) | automatic.
  template <class T>
  [[nodiscard]] sim::Task<void> broadcast(Thread& self,
                                          const std::vector<GlobalPtr<T>>& bufs,
                                          std::size_t count, int root,
                                          CollAlgo algo = CollAlgo::automatic) {
    const CollAlgo chosen = resolve(CollOp::broadcast, count * sizeof(T), algo);
    count_call(self, detail::kCollBroadcast);
    if (chosen == CollAlgo::hier && node_groups() > 1) {
      co_await broadcast_hier(self, bufs, count, root);
    } else {
      co_await broadcast_flat(self, bufs, count, root);
    }
  }

  /// Reduction into member `root`'s buffer with combiner `op`.
  /// Contract: `bufs[root]` must have room for `count * size()` elements —
  /// slot (rel * count) stages relative member rel's partial. The combine
  /// order is ascending member index at every level, so flat and hier agree
  /// bit-for-bit whenever `op` is exactly associative + commutative.
  template <class T, class Op>
  [[nodiscard]] sim::Task<void> reduce(Thread& self,
                                       const std::vector<GlobalPtr<T>>& bufs,
                                       std::size_t count, int root, Op op,
                                       CollAlgo algo = CollAlgo::automatic) {
    const CollAlgo chosen = resolve(CollOp::reduce, count * sizeof(T), algo);
    count_call(self, detail::kCollReduce);
    if (chosen == CollAlgo::hier && node_groups() > 1) {
      co_await reduce_hier(self, bufs, count, root, op);
    } else {
      co_await reduce_flat(self, bufs, count, root, op);
    }
  }

  /// Allgather: member m's own block sits at `bufs[m] + m*count` on entry;
  /// on return EVERY member's buffer holds all size() blocks in member
  /// order. Contract: every buffer has room for count * size() elements.
  /// `algo`: flat (direct puts) | ring | dissem | automatic.
  template <class T>
  [[nodiscard]] sim::Task<void> allgather(Thread& self,
                                          const std::vector<GlobalPtr<T>>& bufs,
                                          std::size_t count,
                                          CollAlgo algo = CollAlgo::automatic) {
    const CollAlgo chosen = resolve(CollOp::allgather, count * sizeof(T), algo);
    count_call(self, detail::kCollAllgather);
    if (chosen == CollAlgo::ring) {
      co_await allgather_ring(self, bufs, count);
    } else if (chosen == CollAlgo::dissem) {
      co_await allgather_dissem(self, bufs, count);
    } else {
      co_await allgather_flat(self, bufs, count);
    }
  }

  /// Gather in *relative* member order: member m's `count` elements land in
  /// `root`'s buffer at slot ((m - root) mod size()) * count — so the
  /// root's own contribution is slot 0 (its buffer start) and no member
  /// ever writes over another's slot. Contract: `bufs[root]` has room for
  /// count * size() elements. Flat only.
  template <class T>
  [[nodiscard]] sim::Task<void> gather(Thread& self,
                                       const std::vector<GlobalPtr<T>>& bufs,
                                       std::size_t count, int root) {
    const int n = size();
    const int me = require_member(self);
    const int rel = (me - root + n) % n;
    count_call(self, detail::kCollGather);
    auto state = enter(CollOp::gather, me, static_cast<std::size_t>(n));
    if (rel != 0) {
      co_await self.copy(
          bufs[static_cast<std::size_t>(root)] +
              static_cast<std::ptrdiff_t>(static_cast<std::size_t>(rel) * count),
          bufs[static_cast<std::size_t>(me)].raw, count);
      state->ready[static_cast<std::size_t>(me)].set_value();
      co_return;
    }
    for (int m = 0; m < n; ++m) {
      if (m == root) continue;
      co_await state->ready[static_cast<std::size_t>(m)].get_future();
    }
    co_return;
  }

  /// Allreduce = reduce to member 0 + broadcast. Contract: every member's
  /// buffer has room for count * size() elements (member 0's staging).
  template <class T, class Op>
  [[nodiscard]] sim::Task<void> allreduce(Thread& self,
                                          const std::vector<GlobalPtr<T>>& bufs,
                                          std::size_t count, Op op,
                                          CollAlgo algo = CollAlgo::automatic) {
    co_await reduce(self, bufs, count, 0, op, algo);
    co_await broadcast(self, bufs, count, 0, algo);
  }

  /// Single-value allreduce through internal shared staging: each member
  /// contributes `value`; every member returns the fold over members in
  /// ascending member order. No caller-provided buffers — the staging lives
  /// in the owning ranks' heap segments and is reused across calls. Exact
  /// (bit-identical across algorithms) whenever `op` is exactly
  /// associative + commutative and `value` folding is order-insensitive.
  template <class T, class Op>
  [[nodiscard]] sim::Task<T> allreduce_value(Thread& self, T value, Op op,
                                             CollAlgo algo =
                                                 CollAlgo::automatic) {
    const int n = size();
    const int me = require_member(self);
    std::vector<GlobalPtr<T>> bufs;
    bufs.reserve(static_cast<std::size_t>(n));
    for (int m = 0; m < n; ++m) {
      bufs.push_back(GlobalPtr<T>{
          members_[static_cast<std::size_t>(m)],
          stage<T>(StageKind::value, m, static_cast<std::size_t>(n))});
    }
    bufs[static_cast<std::size_t>(me)].raw[0] = value;  // my own segment
    co_await allreduce(self, bufs, 1, op, algo);
    co_return bufs[static_cast<std::size_t>(me)].raw[0];
  }

 protected:
  [[nodiscard]] Runtime& runtime() const noexcept { return *rt_; }
  /// Member indices per node, ascending node order; each group keeps
  /// member-index order, so front() is the node's leader.
  [[nodiscard]] const std::vector<std::vector<int>>& groups() const noexcept {
    return groups_;
  }

 private:
  enum class StageKind : std::uint8_t {
    value = 0,    // allreduce_value per-member staging
    partial = 1,  // hier reduce: leader-local combine area
    gather = 2,   // hier alltoall: leader gather area (phase 1)
    pack = 3,     // hier alltoall: leader per-destination pack buffer
    scatter = 4,  // hier alltoall: leader inbound area (phase 2)
  };

  static std::vector<int> all_ranks(Runtime& rt) {
    std::vector<int> ranks(static_cast<std::size_t>(rt.threads()));
    for (int r = 0; r < rt.threads(); ++r) ranks[static_cast<std::size_t>(r)] = r;
    return ranks;
  }

  /// Checked before the barrier is built: a Barrier needs a party.
  static std::vector<int> validated(const Runtime& rt,
                                    std::vector<int> members) {
    if (members.empty()) {
      throw std::invalid_argument("Collectives: empty member set");
    }
    for (int r : members) {
      if (r < 0 || r >= rt.threads()) {
        throw std::invalid_argument("Collectives: rank out of range");
      }
    }
    std::vector<int> sorted = members;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      throw std::invalid_argument("Collectives: duplicate member rank");
    }
    return members;
  }

  [[nodiscard]] int require_member(const Thread& self) const {
    const int idx = index_of(self.rank());
    if (idx < 0) {
      throw std::logic_error("Collectives: caller is not a member");
    }
    return idx;
  }

  void count_call(Thread& self, trace::CounterId counter) {
    rt_->counters().add(counter, self.rank());
  }

  static int ceil_log2(int n) {
    return n <= 1 ? 0 : std::bit_width(static_cast<unsigned>(n - 1));
  }

  [[nodiscard]] sim::Time barrier_cost() const {
    double seconds = kBarrierHopS * ceil_log2(size());
    if (spans_nodes_) {
      const auto& c = rt_->config().conduit;
      seconds += (c.send_overhead_s + c.latency_s + c.recv_overhead_s) *
                 ceil_log2(rt_->nodes_used());
    }
    return sim::from_seconds(seconds);
  }

  /// Join this member's next call of `op`; the first arrival creates the
  /// state with `slots` events. Matching is per-(team, op): each member
  /// keeps an independent sequence counter per operation kind, so calls of
  /// different kinds (or on overlapping teams) can never pair up.
  std::shared_ptr<detail::CollState> enter(CollOp op, int member,
                                           std::size_t slots) {
    auto& per_op = seq_[static_cast<std::size_t>(member)];
    const std::uint64_t call =
        per_op[static_cast<std::size_t>(op)]++;
    const std::uint64_t id =
        (static_cast<std::uint64_t>(op) << 56) | call;
    auto& slot = states_[id];
    if (!slot) {
      slot = std::make_shared<detail::CollState>();
      slot->ready.reserve(slots);
      for (std::size_t i = 0; i < slots; ++i) {
        slot->ready.emplace_back(rt_->engine());
      }
    }
    auto state = slot;
    if (++state->arrived == size()) states_.erase(id);
    return state;
  }

  /// Per-(kind, member) staging area in the member's OWNING rank's heap
  /// segment, grown on demand and reused across calls (the heap is a bump
  /// allocator: growth abandons the old area, so steady-state payload
  /// sizes allocate exactly once).
  template <class T>
  [[nodiscard]] T* stage(StageKind kind, int member, std::size_t elems) {
    const std::uint64_t key = (static_cast<std::uint64_t>(kind) << 32) |
                              static_cast<std::uint64_t>(member);
    auto& s = stages_[key];
    const std::size_t bytes = elems * sizeof(T);
    if (s.cap < bytes) {
      const std::size_t units =
          (bytes + sizeof(std::max_align_t) - 1) / sizeof(std::max_align_t);
      s.p = rt_->heap()
                .alloc<std::max_align_t>(
                    members_[static_cast<std::size_t>(member)], units)
                .raw;
      s.cap = units * sizeof(std::max_align_t);
    }
    return static_cast<T*>(s.p);
  }

  // --- alltoall ---------------------------------------------------------

  template <class T>
  [[nodiscard]] sim::Task<void> exchange_flat(
      Thread& self, const std::vector<GlobalPtr<T>>& recv_bases,
      const T* send, std::size_t count, bool overlap) {
    const int n = size();
    const int me = require_member(self);
    if (overlap) {
      std::vector<async::future<>> pending;
      pending.reserve(static_cast<std::size_t>(n));
      for (int step = 0; step < n; ++step) {
        const int peer = (me + step + 1) % n;
        pending.push_back(self.launch_async(self.copy(
            recv_bases[static_cast<std::size_t>(peer)] +
                static_cast<std::ptrdiff_t>(static_cast<std::size_t>(me) * count),
            send + static_cast<std::size_t>(peer) * count, count)));
      }
      for (auto& f : pending) co_await f.wait();
    } else {
      for (int step = 0; step < n; ++step) {
        const int peer = (me + step + 1) % n;
        co_await self.copy(
            recv_bases[static_cast<std::size_t>(peer)] +
                static_cast<std::ptrdiff_t>(static_cast<std::size_t>(me) * count),
            send + static_cast<std::size_t>(peer) * count, count);
      }
    }
    co_await barrier(self);  // completion: everyone's inbox is full
  }

  /// Hierarchical alltoall: node-local gather of every member's whole send
  /// buffer into its leader's staging, one aggregated message per ordered
  /// leader pair, then a local scatter where every member pulls its own
  /// inbound blocks from its leader (PSHM-cheap). The network sees
  /// G*(G-1) large messages instead of n*(n-1) small ones.
  template <class T>
  [[nodiscard]] sim::Task<void> exchange_hier(
      Thread& self, const std::vector<GlobalPtr<T>>& recv_bases,
      const T* send, std::size_t count) {
    const int n = size();
    const int me = require_member(self);
    const int G = node_groups();
    const int g = group_of_[static_cast<std::size_t>(me)];
    const auto& grp = groups_[static_cast<std::size_t>(g)];
    const int A = static_cast<int>(grp.size());
    const int leader = grp.front();
    const int leader_rank = members_[static_cast<std::size_t>(leader)];
    int li = 0;  // my index within the group
    for (int i = 0; i < A; ++i) {
      if (grp[static_cast<std::size_t>(i)] == me) li = i;
    }
    // Slot layout: [0, n) gather arrivals, [n, n+G) per-group local-ready,
    // [n+G, n+G+G*G) leader-pair arrivals (from*G + to).
    auto state = enter(CollOp::alltoall, me,
                       static_cast<std::size_t>(n + G + G * G));
    const auto ev = [&state](int i) -> async::promise<>& {
      return state->ready[static_cast<std::size_t>(i)];
    };
    const auto nelems = static_cast<std::size_t>(n) * count;

    // Offset of source group `from`'s region in group `to`'s scatter
    // staging: groups are laid out in ascending group order, skipping `to`.
    const auto scatter_off = [this, count](int to, int from) {
      std::size_t off = 0;
      const std::size_t bsz = groups_[static_cast<std::size_t>(to)].size();
      for (int gg = 0; gg < from; ++gg) {
        if (gg == to) continue;
        off += groups_[static_cast<std::size_t>(gg)].size() * bsz * count;
      }
      return off;
    };
    // Full extent of group `to`'s scatter staging. EVERY participant must
    // request the stage at this size: stage() grows by reallocating, so a
    // smaller early request would hand out a pointer a later full-size
    // request abandons.
    const auto scatter_elems_of = [this, count, G](int to) {
      std::size_t total = 0;
      const std::size_t bsz = groups_[static_cast<std::size_t>(to)].size();
      for (int gg = 0; gg < G; ++gg) {
        if (gg == to) continue;
        total += groups_[static_cast<std::size_t>(gg)].size() * bsz * count;
      }
      return total;
    };

    // Phase 1 — local gather: my whole send buffer into my leader's
    // staging at [li][n*count] (one bulk intra-node copy).
    T* gstage = stage<T>(StageKind::gather, leader,
                         static_cast<std::size_t>(A) * nelems);
    co_await self.copy(
        GlobalPtr<T>{leader_rank, gstage + static_cast<std::size_t>(li) * nelems},
        send, nelems);
    ev(me).set_value();

    if (me == leader) {
      for (int m : grp) co_await ev(m).get_future();
      ev(n + g).set_value();  // local members may now pull intra-node blocks
      // Phase 2 — leader exchange, staggered by group: pack the blocks
      // destined to group h contiguously, ship them as ONE message.
      for (int s = 1; s < G; ++s) {
        const int h = (g + s) % G;
        const auto& dst_grp = groups_[static_cast<std::size_t>(h)];
        const int B = static_cast<int>(dst_grp.size());
        const int dst_leader = dst_grp.front();
        const int dst_leader_rank =
            members_[static_cast<std::size_t>(dst_leader)];
        T* pack = stage<T>(StageKind::pack, leader,
                           static_cast<std::size_t>(A) *
                               static_cast<std::size_t>(B) * count);
        for (int si = 0; si < A; ++si) {
          for (int dj = 0; dj < B; ++dj) {
            const auto dst_member =
                static_cast<std::size_t>(dst_grp[static_cast<std::size_t>(dj)]);
            std::memcpy(
                pack + (static_cast<std::size_t>(si) * B + dj) * count,
                gstage + static_cast<std::size_t>(si) * nelems +
                    dst_member * count,
                count * sizeof(T));
          }
        }
        const auto pack_bytes = static_cast<double>(
            static_cast<std::size_t>(A) * static_cast<std::size_t>(B) *
            count * sizeof(T));
        co_await self.stream_local(2.0 * pack_bytes);  // read + write
        T* rstage =
            stage<T>(StageKind::scatter, dst_leader, scatter_elems_of(h));
        co_await self.copy(
            GlobalPtr<T>{dst_leader_rank, rstage + scatter_off(h, g)},
            pack, static_cast<std::size_t>(A) *
                      static_cast<std::size_t>(B) * count);
        ev(n + G + g * G + h).set_value();
      }
    } else {
      co_await ev(n + g).get_future();
    }

    // Phase 3 — scatter: every member pulls its own inbound blocks.
    // (a) intra-group blocks straight from the leader's gather staging;
    for (int si = 0; si < A; ++si) {
      const int src_member = grp[static_cast<std::size_t>(si)];
      co_await self.copy(
          recv_bases[static_cast<std::size_t>(me)] +
              static_cast<std::ptrdiff_t>(
                  static_cast<std::size_t>(src_member) * count),
          GlobalPtr<const T>{leader_rank,
                             gstage + static_cast<std::size_t>(si) * nelems +
                                 static_cast<std::size_t>(me) * count},
          count);
    }
    // (b) inter-group blocks from the leader's scatter staging, once the
    // sending leader's aggregated message has landed.
    if (G > 1) {
      T* rstage = stage<T>(StageKind::scatter, leader, scatter_elems_of(g));
      for (int from = 0; from < G; ++from) {
        if (from == g) continue;
        co_await ev(n + G + from * G + g).get_future();
        const auto& src_grp = groups_[static_cast<std::size_t>(from)];
        const T* region = rstage + scatter_off(g, from);
        for (std::size_t si = 0; si < src_grp.size(); ++si) {
          const int src_member = src_grp[si];
          co_await self.copy(
              recv_bases[static_cast<std::size_t>(me)] +
                  static_cast<std::ptrdiff_t>(
                      static_cast<std::size_t>(src_member) * count),
              GlobalPtr<const T>{
                  leader_rank,
                  region + (si * static_cast<std::size_t>(A) +
                            static_cast<std::size_t>(li)) *
                               count},
              count);
        }
      }
    }
    co_await barrier(self);
  }

  // --- broadcast --------------------------------------------------------

  template <class T>
  [[nodiscard]] sim::Task<void> broadcast_flat(
      Thread& self, const std::vector<GlobalPtr<T>>& bufs, std::size_t count,
      int root) {
    const int n = size();
    const int me = require_member(self);
    const int rel = (me - root + n) % n;
    auto state = enter(CollOp::broadcast, me, static_cast<std::size_t>(n));

    // Locate my receive round (lowest set bit of rel); root skips it.
    int mask = 1;
    while (mask < n && (rel & mask) == 0) mask <<= 1;
    if (rel != 0) {
      co_await state->ready[static_cast<std::size_t>(me)].get_future();
    }
    // Push down the subtree: children at rel + mask/2, mask/4, ..., 1.
    for (mask >>= 1; mask > 0; mask >>= 1) {
      const int child_rel = rel + mask;
      if (child_rel < n) {
        const int child = (child_rel + root) % n;
        co_await self.copy(bufs[static_cast<std::size_t>(child)],
                             bufs[static_cast<std::size_t>(me)].raw, count);
        state->ready[static_cast<std::size_t>(child)].set_value();
      }
    }
    co_return;
  }

  /// Two-level broadcast: binomial tree across node-group leaders (the
  /// root acts as its own group's leader), then a flat intra-node push
  /// from each leader — network messages only between leaders, PSHM-cheap
  /// copies inside a node.
  template <class T>
  [[nodiscard]] sim::Task<void> broadcast_hier(
      Thread& self, const std::vector<GlobalPtr<T>>& bufs, std::size_t count,
      int root) {
    const int n = size();
    const int me = require_member(self);
    const int G = node_groups();
    const int g = group_of_[static_cast<std::size_t>(me)];
    const int rg = group_of_[static_cast<std::size_t>(root)];
    const auto leader_of = [this, root, rg](int grp) {
      return grp == rg ? root : groups_[static_cast<std::size_t>(grp)].front();
    };
    const int my_leader = leader_of(g);
    auto state = enter(CollOp::broadcast, me, static_cast<std::size_t>(n));

    if (me != root) {
      co_await state->ready[static_cast<std::size_t>(me)].get_future();
    }
    if (me == my_leader) {
      // Cross-node phase: binomial over groups, rooted at the root's group.
      const int rel = (g - rg + G) % G;
      int mask = 1;
      while (mask < G && (rel & mask) == 0) mask <<= 1;
      for (mask >>= 1; mask > 0; mask >>= 1) {
        const int child_rel = rel + mask;
        if (child_rel < G) {
          const int child = leader_of((child_rel + rg) % G);
          co_await self.copy(bufs[static_cast<std::size_t>(child)],
                             bufs[static_cast<std::size_t>(me)].raw, count);
          state->ready[static_cast<std::size_t>(child)].set_value();
        }
      }
      // Intra-node phase: flat push to my group's other members.
      for (int member : groups_[static_cast<std::size_t>(g)]) {
        if (member == my_leader) continue;
        co_await self.copy(bufs[static_cast<std::size_t>(member)],
                           bufs[static_cast<std::size_t>(me)].raw, count);
        state->ready[static_cast<std::size_t>(member)].set_value();
      }
    }
    co_return;
  }

  // --- reduce -----------------------------------------------------------

  template <class T, class Op>
  [[nodiscard]] sim::Task<void> reduce_flat(
      Thread& self, const std::vector<GlobalPtr<T>>& bufs, std::size_t count,
      int root, Op op) {
    const int n = size();
    const int me = require_member(self);
    const int rel = (me - root + n) % n;
    auto state = enter(CollOp::reduce, me, static_cast<std::size_t>(n));

    if (rel != 0) {
      co_await self.copy(
          bufs[static_cast<std::size_t>(root)] +
              static_cast<std::ptrdiff_t>(static_cast<std::size_t>(rel) * count),
          bufs[static_cast<std::size_t>(me)].raw, count);
      state->ready[static_cast<std::size_t>(me)].set_value();
      co_return;
    }
    // Combine in ascending MEMBER order (the same order every algorithm
    // uses), waiting for each contributor's staged partial as we reach it.
    T* mine = bufs[static_cast<std::size_t>(me)].raw;
    for (int m = 0; m < n; ++m) {
      if (m == root) continue;
      const int child_rel = (m - root + n) % n;
      co_await state->ready[static_cast<std::size_t>(m)].get_future();
      const T* staged = mine + static_cast<std::size_t>(child_rel) * count;
      for (std::size_t i = 0; i < count; ++i) mine[i] = op(mine[i], staged[i]);
      co_await self.compute(static_cast<double>(count) * 2e-9);
    }
    co_return;
  }

  /// Two-level reduce: members of the root's group stage into the root
  /// directly (as flat); every other group combines at its leader (in
  /// ascending member order) and ships ONE partial. The root folds local
  /// members first, then leader partials, both in ascending member order.
  ///
  /// The leader-local combine area is the per-(kind, member) stage cache,
  /// REUSED across calls — so a remote-group contributor must not return
  /// (and thus must not be able to enter a later reduce that overwrites its
  /// slot) until its leader has both folded the slot and shipped the
  /// partial. Ready slots [n, 2n) carry that release.
  template <class T, class Op>
  [[nodiscard]] sim::Task<void> reduce_hier(
      Thread& self, const std::vector<GlobalPtr<T>>& bufs, std::size_t count,
      int root, Op op) {
    const int n = size();
    const int me = require_member(self);
    const int G = node_groups();
    const int g = group_of_[static_cast<std::size_t>(me)];
    const int rg = group_of_[static_cast<std::size_t>(root)];
    auto state = enter(CollOp::reduce, me, static_cast<std::size_t>(2 * n));

    if (g != rg) {
      const auto& grp = groups_[static_cast<std::size_t>(g)];
      const int A = static_cast<int>(grp.size());
      const int leader = grp.front();
      const int leader_rank = members_[static_cast<std::size_t>(leader)];
      int li = 0;
      for (int i = 0; i < A; ++i) {
        if (grp[static_cast<std::size_t>(i)] == me) li = i;
      }
      T* pstage = stage<T>(StageKind::partial, leader,
                           static_cast<std::size_t>(A) * count);
      if (me != leader) {
        co_await self.copy(
            GlobalPtr<T>{leader_rank,
                         pstage + static_cast<std::size_t>(li) * count},
            bufs[static_cast<std::size_t>(me)].raw, count);
        state->ready[static_cast<std::size_t>(me)].set_value();
        co_await state->ready[static_cast<std::size_t>(n + me)].get_future();
        co_return;
      }
      // Leader: slot 0 starts as my own contribution, then fold the
      // locals in ascending member order (group members keep that order).
      co_await self.copy(GlobalPtr<T>{leader_rank, pstage},
                         bufs[static_cast<std::size_t>(me)].raw, count);
      for (int i = 1; i < A; ++i) {
        const int member = grp[static_cast<std::size_t>(i)];
        co_await state->ready[static_cast<std::size_t>(member)].get_future();
        const T* staged = pstage + static_cast<std::size_t>(i) * count;
        for (std::size_t k = 0; k < count; ++k) {
          pstage[k] = op(pstage[k], staged[k]);
        }
        co_await self.compute(static_cast<double>(count) * 2e-9);
      }
      const int rel = (me - root + n) % n;
      co_await self.copy(
          bufs[static_cast<std::size_t>(root)] +
              static_cast<std::ptrdiff_t>(static_cast<std::size_t>(rel) * count),
          pstage, count);
      state->ready[static_cast<std::size_t>(me)].set_value();
      // pstage is done for this call (folded AND shipped) — only now may
      // the locals start a reduce that overwrites their slots.
      for (int i = 1; i < A; ++i) {
        state->ready[static_cast<std::size_t>(
                         n + grp[static_cast<std::size_t>(i)])]
            .set_value();
      }
      co_return;
    }
    if (me != root) {  // root's group stages into the root directly
      const int rel = (me - root + n) % n;
      co_await self.copy(
          bufs[static_cast<std::size_t>(root)] +
              static_cast<std::ptrdiff_t>(static_cast<std::size_t>(rel) * count),
          bufs[static_cast<std::size_t>(me)].raw, count);
      state->ready[static_cast<std::size_t>(me)].set_value();
      co_return;
    }
    // Root: fold my group's members, then remote-group leader partials —
    // both walks in ascending member order, matching flat's fold order
    // for exact combiners.
    T* mine = bufs[static_cast<std::size_t>(me)].raw;
    const auto fold_member = [&](int m) -> sim::Task<void> {
      const int child_rel = (m - root + n) % n;
      co_await state->ready[static_cast<std::size_t>(m)].get_future();
      const T* staged = mine + static_cast<std::size_t>(child_rel) * count;
      for (std::size_t i = 0; i < count; ++i) mine[i] = op(mine[i], staged[i]);
      co_await self.compute(static_cast<double>(count) * 2e-9);
    };
    for (int m : groups_[static_cast<std::size_t>(rg)]) {
      if (m == root) continue;
      co_await fold_member(m);
    }
    for (int gg = 0; gg < G; ++gg) {
      if (gg == rg) continue;
      co_await fold_member(groups_[static_cast<std::size_t>(gg)].front());
    }
    co_return;
  }

  // --- allgather --------------------------------------------------------

  template <class T>
  [[nodiscard]] sim::Task<void> allgather_flat(
      Thread& self, const std::vector<GlobalPtr<T>>& bufs, std::size_t count) {
    const int n = size();
    const int me = require_member(self);
    const T* mine =
        bufs[static_cast<std::size_t>(me)].raw + static_cast<std::size_t>(me) * count;
    for (int step = 1; step < n; ++step) {
      const int peer = (me + step) % n;
      co_await self.copy(
          bufs[static_cast<std::size_t>(peer)] +
              static_cast<std::ptrdiff_t>(static_cast<std::size_t>(me) * count),
          mine, count);
    }
    co_await barrier(self);
  }

  /// Ring allgather: n-1 rounds; in round s every member forwards block
  /// (me - s) mod n to its right neighbour. Bandwidth-optimal: each member
  /// sends exactly (n-1)*count elements over one link.
  template <class T>
  [[nodiscard]] sim::Task<void> allgather_ring(
      Thread& self, const std::vector<GlobalPtr<T>>& bufs, std::size_t count) {
    const int n = size();
    const int me = require_member(self);
    auto state = enter(CollOp::allgather, me,
                       static_cast<std::size_t>(n) *
                           static_cast<std::size_t>(n > 1 ? n - 1 : 0));
    const int dst = (me + 1) % n;
    for (int step = 0; step + 1 < n; ++step) {
      const int blk = (me - step + n) % n;  // received last round (or mine)
      co_await self.copy(
          bufs[static_cast<std::size_t>(dst)] +
              static_cast<std::ptrdiff_t>(static_cast<std::size_t>(blk) * count),
          bufs[static_cast<std::size_t>(me)].raw +
              static_cast<std::size_t>(blk) * count,
          count);
      state->ready[static_cast<std::size_t>(step * n + dst)].set_value();
      co_await state->ready[static_cast<std::size_t>(step * n + me)]
          .get_future();
    }
    co_await barrier(self);
  }

  /// Dissemination allgather: ceil(log2 n) rounds; in each round member m
  /// sends its lowest-indexed `min(have, n-have)` blocks to (m + have),
  /// doubling the held set — latency-optimal for small blocks.
  template <class T>
  [[nodiscard]] sim::Task<void> allgather_dissem(
      Thread& self, const std::vector<GlobalPtr<T>>& bufs, std::size_t count) {
    const int n = size();
    const int me = require_member(self);
    const int rounds =
        n <= 1 ? 0 : std::bit_width(static_cast<unsigned>(n - 1));
    auto state = enter(CollOp::allgather, me,
                       static_cast<std::size_t>(rounds) *
                           static_cast<std::size_t>(n));
    int have = 1;
    int step = 0;
    while (have < n) {
      const int cnt = have < n - have ? have : n - have;
      const int dst = (me + have) % n;
      for (int i = 0; i < cnt; ++i) {
        const int blk = (me - i + n) % n;
        co_await self.copy(
            bufs[static_cast<std::size_t>(dst)] +
                static_cast<std::ptrdiff_t>(static_cast<std::size_t>(blk) * count),
            bufs[static_cast<std::size_t>(me)].raw +
                static_cast<std::size_t>(blk) * count,
            count);
      }
      state->ready[static_cast<std::size_t>(step * n + dst)].set_value();
      co_await state->ready[static_cast<std::size_t>(step * n + me)]
          .get_future();
      have += cnt;
      ++step;
    }
    co_await barrier(self);
  }

  struct Stage {
    void* p = nullptr;
    std::size_t cap = 0;
  };

  Runtime* rt_;
  std::vector<int> members_;
  CollectiveSelector selector_;
  std::vector<std::array<std::uint64_t, kCollOpKinds>> seq_;
  std::unique_ptr<sim::Barrier> barrier_;
  bool spans_nodes_ = false;
  std::vector<std::vector<int>> groups_;  // member indices per node, asc node
  std::vector<int> group_of_;             // member index -> group index
  std::unordered_map<std::uint64_t, std::shared_ptr<detail::CollState>> states_;
  std::unordered_map<std::uint64_t, Stage> stages_;
};

}  // namespace hupc::gas
