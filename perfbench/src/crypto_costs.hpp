// Unit costs of the threshold-crypto operations the service path uses,
// measured by calling the public crypto functions with a workload's own
// dealt keys (median of a few calls each, in microseconds).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "adversary/quorum.hpp"

namespace perfbench {

/// (metric name, microseconds) pairs; empty if any operation failed to
/// verify, which the caller treats as a correctness failure.
std::vector<std::pair<std::string, double>> measure_crypto_costs(
    const sintra::adversary::Deployment& deployment, std::uint64_t seed);

}  // namespace perfbench
