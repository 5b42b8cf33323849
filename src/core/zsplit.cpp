#include "core/zsplit.h"

#include <algorithm>
#include <numeric>

#include "util/assert.h"

namespace tpf::core {

long long regionCost(const RegionStats& s) {
    return kCellClassCost.bulkLiquid * s.bulkLiquid +
           kCellClassCost.bulkSolid * s.bulkSolid +
           kCellClassCost.interface * s.interface +
           kCellClassCost.front * s.front;
}

std::vector<int> balancedZHeights(const std::vector<long long>& planeCost,
                                  int nranks, int unit) {
    const int nz = static_cast<int>(planeCost.size());
    TPF_ASSERT(nranks >= 1 && unit >= 1 && nz % nranks == 0,
               "NZ must be divisible by the rank count");
    const std::vector<int> uniform(static_cast<std::size_t>(nranks),
                                   nz / nranks);
    if ((nz / nranks) % unit != 0) return uniform;

    std::vector<long long> cost(static_cast<std::size_t>(nz / unit), 0);
    for (int z = 0; z < nz; ++z)
        cost[static_cast<std::size_t>(z / unit)] +=
            planeCost[static_cast<std::size_t>(z)];

    // Exact linear partition: binary search on the bottleneck, greedy
    // feasibility check. Integer costs make the minimum exact, so every rank
    // finds the same split.
    auto runsNeeded = [&](long long cap) {
        int runs = 1;
        long long cur = 0;
        for (long long c : cost) {
            if (cur + c > cap) {
                ++runs;
                cur = c;
            } else {
                cur += c;
            }
        }
        return runs;
    };
    long long lo = *std::max_element(cost.begin(), cost.end());
    long long hi = std::accumulate(cost.begin(), cost.end(), 0LL);
    while (lo < hi) {
        const long long mid = lo + (hi - lo) / 2;
        if (runsNeeded(mid) <= nranks)
            hi = mid;
        else
            lo = mid + 1;
    }

    // Fill from the top: each rank takes as many units as fit under the
    // bottleneck while leaving one per rank below it, which puts every
    // boundary at its lowest feasible position.
    std::vector<int> heights(static_cast<std::size_t>(nranks));
    int left = static_cast<int>(cost.size()); // units [0, left) unassigned
    for (int r = nranks - 1; r > 0; --r) {
        long long cur = 0;
        int take = 0;
        while (left - take > r &&
               cur + cost[static_cast<std::size_t>(left - 1 - take)] <= lo) {
            cur += cost[static_cast<std::size_t>(left - 1 - take)];
            ++take;
        }
        heights[static_cast<std::size_t>(r)] = take * unit;
        left -= take;
    }
    heights[0] = left * unit;
    return heights;
}

} // namespace tpf::core
