// Wire format for remote-procedure-call messages (the async layer's
// transport payload).
//
// An RpcMessage is what actually travels when async::rpc ships a closure to
// the owning rank: a fixed-size header followed by the bound arguments
// serialized as raw bytes. The simulation is one address space, so code
// travels by pointer — but the ARGUMENT VALUES genuinely round-trip through
// this buffer (encoded at the caller, decoded at the target), keeping the
// modeled wire size honest and catching accidental reliance on shared
// memory. The message's network cost is charged as an ordinary
// net::Transfer of wire_bytes() (async::RpcDomain's transport), flowing
// through the same injection FIFOs, fault seams and counters as every other
// message.
//
// Encoding is in-memory little-endian host order (the simulation never
// crosses a real wire); only trivially-copyable argument types are
// accepted, mirroring the restriction real PGAS RPC layers place on bound
// arguments.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <vector>

namespace hupc::net {

enum class RpcKind : std::uint32_t { request = 0, reply = 1 };

/// Fixed per-message overhead modeled for an RPC: the header fields below
/// plus active-message dispatch metadata (handler index, token).
inline constexpr std::size_t kRpcHeaderBytes = 32;

class RpcMessage {
 public:
  RpcMessage() = default;
  /// `payload_bytes` is the payload's final size when known: it is reserved
  /// once, so the put() calls that fill it never grow the buffer.
  RpcMessage(RpcKind kind, std::uint64_t id, int src_rank, int dst_rank,
             std::size_t payload_bytes = 0)
      : kind_(kind), id_(id), src_rank_(src_rank), dst_rank_(dst_rank) {
    payload_.reserve(payload_bytes);
  }

  [[nodiscard]] RpcKind kind() const noexcept { return kind_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] int src_rank() const noexcept { return src_rank_; }
  [[nodiscard]] int dst_rank() const noexcept { return dst_rank_; }

  /// Append one trivially-copyable value to the payload.
  template <class T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    const std::size_t at = payload_.size();
    payload_.resize(at + sizeof(T));
    std::memcpy(payload_.data() + at, &value, sizeof(T));
  }

  /// Read back the next value in put() order. Throws std::out_of_range on
  /// overrun (a framing bug, not a user error).
  template <class T>
    requires std::is_trivially_copyable_v<T>
  [[nodiscard]] T get() {
    if (cursor_ + sizeof(T) > payload_.size()) {
      throw std::out_of_range("net::RpcMessage: payload overrun");
    }
    T value;
    std::memcpy(&value, payload_.data() + cursor_, sizeof(T));
    cursor_ += sizeof(T);
    return value;
  }

  /// Reset the read cursor (the target decodes from the start).
  void rewind() noexcept { cursor_ = 0; }

  [[nodiscard]] std::size_t payload_bytes() const noexcept {
    return payload_.size();
  }
  /// Modeled on-wire size: header + serialized arguments.
  [[nodiscard]] std::size_t wire_bytes() const noexcept {
    return kRpcHeaderBytes + payload_.size();
  }

 private:
  RpcKind kind_ = RpcKind::request;
  std::uint64_t id_ = 0;
  int src_rank_ = -1;
  int dst_rank_ = -1;
  std::vector<std::uint8_t> payload_;
  std::size_t cursor_ = 0;
};

}  // namespace hupc::net
