#pragma once
/// \file transport_spawn.h
/// Internal entry points of the per-backend rank launchers. Only
/// vmpi/comm.cpp (the public runParallel family) and the backend TUs
/// include this; user code goes through vmpi/comm.h.

#include <cstdint>
#include <functional>

#include "vmpi/transport.h"

namespace tpf::vmpi {
class Comm;
}

namespace tpf::vmpi::detail {

using RankFn = std::function<void(Comm&)>;

/// Thread backend. \p shuffleSeed != 0 enables the adversarial
/// randomized-delivery mode (messages are inserted at random mailbox
/// positions, destroying cross-message arrival order) used by the
/// collective-sequencing regression tests.
void runParallelThread(int nranks, const RankFn& f, std::uint64_t shuffleSeed);

/// Fork + shared-memory backend: true process-separated ranks.
void runParallelShm(int nranks, const RankFn& f);

/// Comm factory for the backend launchers (friend of Comm).
Comm makeComm(Transport* t);

} // namespace tpf::vmpi::detail
