#pragma once
// Internal (non-installed) helper shared by the TCP Worker and the
// in-process FakeWorker: both ship a completed lease as the exact bytes
// of its columnar store file.

#include <cstdint>
#include <string>
#include <vector>

#include "ulpdream/campaign/result_store.hpp"

namespace ulpdream::dist::detail {

/// The bytes a LeaseResult carries for `store`: its columnar file (the
/// coordinator spools them verbatim and opens them like any shard file),
/// staged through a temp file that no other process or call shares, so
/// same-named workers in concurrent processes never touch each other's
/// file.
[[nodiscard]] std::vector<std::uint8_t> lease_store_bytes(
    const campaign::ResultStore& store, const std::string& worker_name,
    std::uint64_t lease_id);

}  // namespace ulpdream::dist::detail
