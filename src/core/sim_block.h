#pragma once
/// \file sim_block.h
/// One block of the simulation: the four fields of the ping-pong update
/// scheme (Algorithm 1 of the paper allocates "two destination fields phi_dst
/// and mu_dst and two source fields phi_src and mu_src").

#include "core/params.h"
#include "grid/block_forest.h"
#include "grid/field.h"

namespace tpf::core {

struct SimBlock {
    int blockIdx = -1; ///< linear index within the BlockForest
    Int3 origin{};     ///< global cell coordinates of interior cell (0,0,0)
    Int3 size{};       ///< interior cells

    Field<double> phiSrc, phiDst; ///< N order parameters
    Field<double> muSrc, muDst;   ///< KC chemical potentials

    SimBlock(const BlockForest& bf, int idx, Layout phiLayout = Layout::fzyx,
             Layout muLayout = Layout::fzyx)
        : blockIdx(idx), origin(bf.blockOrigin(idx)), size(bf.blockCells(idx)),
          phiSrc(size.x, size.y, size.z, N, 1, phiLayout),
          phiDst(size.x, size.y, size.z, N, 1, phiLayout),
          muSrc(size.x, size.y, size.z, KC, 1, muLayout),
          muDst(size.x, size.y, size.z, KC, 1, muLayout) {}

    /// Standalone block (no forest) for kernel unit tests and benchmarks.
    SimBlock(Int3 sz, Layout phiLayout = Layout::fzyx,
             Layout muLayout = Layout::fzyx)
        : blockIdx(0), origin{0, 0, 0}, size(sz),
          phiSrc(sz.x, sz.y, sz.z, N, 1, phiLayout),
          phiDst(sz.x, sz.y, sz.z, N, 1, phiLayout),
          muSrc(sz.x, sz.y, sz.z, KC, 1, muLayout),
          muDst(sz.x, sz.y, sz.z, KC, 1, muLayout) {}

    /// Ping-pong swap after a completed time step (Algorithm 1, line 7).
    void swapSrcDst() {
        phiSrc.swapData(phiDst);
        muSrc.swapData(muDst);
    }

    long long numCells() const {
        return static_cast<long long>(size.x) * size.y * size.z;
    }
};

} // namespace tpf::core
