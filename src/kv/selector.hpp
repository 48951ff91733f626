// KV access-path identities and the per-call selector.
//
// Every kv::KvStore operation can execute two ways (DESIGN.md §16):
//
//   amo — fine-grained slot claims at the CALLER: remote gets walk the
//         probe chain, a compare_swap on the slot's state word claims it,
//         and puts publish the mutation. Reads are plain fine-grained gets,
//         so a read-cache epoch serves hot (Zipfian head) keys at local
//         cost; writes pay the full claim/publish round trips.
//   rpc — ship the operation to the shard's OWNER through the src/async
//         personas: one request message, a host-side probe charged as local
//         work in the owner's context, one reply. Writes collapse the
//         multi-round-trip claim protocol into a single round trip; reads
//         give up the caller-side cache.
//
// KvSelector packages the choice the same way CollectiveSelector does for
// collectives: call sites either pin a path (`--kv-path=amo|rpc`) or let
// `choose` pick per call (`auto`). The policy mirrors the modeled costs:
// same-supernode shards are cheapest via direct atomics, remote reads ride
// the (cacheable) fine-grained path, and remote writes take the
// single-round-trip RPC.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace hupc::kv {

/// Operation kinds a KvStore executes (trace counters count each).
enum class KvOp : std::uint8_t {
  get = 0,
  put = 1,
  erase = 2,
  update = 3,
};

enum class KvPath : std::uint8_t {
  automatic = 0,  // defer to the KvSelector
  amo = 1,        // caller-side fine-grained AMO slot claims
  rpc = 2,        // execute at the shard owner via async::RpcDomain
};

[[nodiscard]] inline const char* kv_op_name(KvOp op) noexcept {
  switch (op) {
    case KvOp::get: return "get";
    case KvOp::put: return "put";
    case KvOp::erase: return "erase";
    case KvOp::update: return "update";
  }
  return "?";
}

[[nodiscard]] inline const char* kv_path_name(KvPath p) noexcept {
  switch (p) {
    case KvPath::automatic: return "auto";
    case KvPath::amo: return "amo";
    case KvPath::rpc: return "rpc";
  }
  return "?";
}

/// Parse a `--kv-path` value; nullopt on anything unknown (callers turn
/// that into their CLI error path — exit 2, like every other enum flag).
[[nodiscard]] inline std::optional<KvPath> parse_kv_path(
    const std::string& s) noexcept {
  if (s == "auto") return KvPath::automatic;
  if (s == "amo") return KvPath::amo;
  if (s == "rpc") return KvPath::rpc;
  return std::nullopt;
}

/// Path choice keyed on (operation, shard locality). `override_path` pins
/// every operation to one path (the `--kv-path=` escape hatch).
struct KvSelector {
  KvPath override_path = KvPath::automatic;

  [[nodiscard]] KvPath choose(KvOp op, bool same_supernode) const noexcept {
    if (override_path != KvPath::automatic) return override_path;
    // Same-supernode shards: the claim protocol runs at atomic-op cost with
    // no wire in the way, so everything stays on the AMO path.
    if (same_supernode) return KvPath::amo;
    // Remote reads stay fine-grained so a read-cache epoch can serve the
    // Zipfian head at local cost; a remote get is one probe round trip
    // against the RPC's request + persona + reply.
    if (op == KvOp::get) return KvPath::amo;
    // Remote mutations: one RPC round trip beats the probe + claim +
    // publish sequence (3+ round trips) every time.
    return KvPath::rpc;
  }
};

}  // namespace hupc::kv
