// Small UTS and kv runs that return their counter registries, compiled at
// the build's trace level. trace_compile_out_test compares them with the
// same runs made from its HUPC_TRACE=0 translation unit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hupc::test {

using CounterMap = std::map<std::string, std::vector<std::uint64_t>>;

/// UTS (b0 = 200, root seed 3) on 8 ranks over 2 Lehman nodes.
[[nodiscard]] CounterMap uts_counters(bool with_tracer);

/// KV serving (64 keys, 16 ops per rank) on 8 ranks over 2 Lehman nodes.
[[nodiscard]] CounterMap kv_counters(bool with_tracer);

}  // namespace hupc::test
