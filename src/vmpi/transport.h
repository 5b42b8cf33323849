#pragma once
/// \file transport.h
/// The pluggable message-passing substrate behind vmpi::Comm.
///
/// A Transport moves tagged byte messages between ranks and synchronizes
/// them; everything above it (the deterministic collectives, the typed
/// send/recv helpers, the ghost exchange) is transport-agnostic code in
/// vmpi::Comm. Two implementations exist:
///
///  - thread (transport_thread.cpp): ranks are threads of one process,
///    messages travel through in-process mailboxes. The default and the
///    fast path for tests — no process boundary, no syscalls.
///  - shm (transport_shm.cpp): ranks are forked child processes, messages
///    travel through shm_open'd ring buffers. Real process-separated ranks
///    with real asynchronous progress (the sender copies into shared memory
///    while the receiver computes) without requiring an MPI runtime.
///
/// A new backend (e.g. one over a real MPI runtime) implements this
/// interface and adds a TransportKind; docs/TRANSPORT.md lists what it must
/// guarantee.
///
/// Semantics every implementation must provide (docs/TRANSPORT.md):
///  - send() is buffered: it may block for *buffer space* but never for a
///    matching receive (MPI_Bsend-like; no rendezvous deadlock).
///  - recv()/postRecv() match by (source rank, tag); delivery is FIFO per
///    (source, tag) pair.
///  - postRecv() is genuinely asynchronous: the message payload may arrive
///    and be buffered while the caller computes; waitRecv() only completes
///    the handoff. This is what makes the solver's communication hiding
///    (paper Algorithm 2) a real latency hider instead of a reordered copy.
///  - barrier() synchronizes all ranks.
///
/// Determinism contract: a transport moves bytes, it never reorders a
/// (source, tag) stream and never touches payloads, so simulation results
/// are bitwise identical across all transports — enforced by the
/// restart-equivalence / analysis-rank-invariance / kernel-equivalence
/// ctests run under TPF_TRANSPORT=shm.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tpf::vmpi {

enum class TransportKind { Thread, Shm };

/// Canonical lowercase name ("thread", "shm").
const char* transportName(TransportKind k);

/// Parse a canonical name; returns false (out untouched) on anything else.
bool parseTransportName(const std::string& name, TransportKind& out);

/// Every transport, in enum order; test suites iterate this list.
std::vector<TransportKind> allTransports();

/// The transport runParallel(nranks, f) uses: $TPF_TRANSPORT when set (must
/// name a known backend, hard error otherwise), thread by default.
TransportKind defaultTransport();

/// Abstract message substrate for one rank. Constructed per rank by the
/// runParallel family; user code never instantiates one directly. Must only
/// be used from the thread that runs its rank.
class Transport {
public:
    virtual ~Transport() = default;
    Transport(const Transport&) = delete;
    Transport& operator=(const Transport&) = delete;

    int rank() const { return rank_; }
    int size() const { return size_; }
    virtual const char* name() const = 0;

    /// Buffered send (see file header for the no-rendezvous contract).
    virtual void send(int dst, int tag, const void* data,
                      std::size_t bytes) = 0;

    /// Blocking receive of the next message matching (src, tag).
    virtual void recv(int src, int tag, std::vector<std::byte>& out) = 0;

    /// Post an asynchronous receive; returns an opaque handle. \p bytesHint
    /// is the exact expected payload size when the caller knows it (the
    /// ghost exchange always does) or 0 — implementations that need a
    /// landing buffer up front (MPI_Irecv) use it to pre-allocate.
    virtual std::uint64_t postRecv(int src, int tag,
                                   std::size_t bytesHint) = 0;

    /// Complete a posted receive (blocking); the payload lands in \p out.
    /// Each handle must be waited exactly once — or explicitly cancelled.
    virtual void waitRecv(std::uint64_t handle,
                          std::vector<std::byte>& out) = 0;

    /// Abandon a posted receive without consuming the message. Only for
    /// teardown during exception unwinding (vmpi::Request::cancel()): the
    /// matched message, if it arrives, stays unconsumed in the transport.
    virtual void cancelRecv(std::uint64_t handle) = 0;

    /// Synchronize all ranks.
    virtual void barrier() = 0;

    /// Per-rank sequence counter for the collective protocol: Comm mixes it
    /// into the internal tag of every collective call so two back-to-back
    /// collectives never share a (source, tag) stream. Collectives execute
    /// in the same order on every rank, so the counters agree globally.
    /// Wraps well before tag arithmetic can overflow.
    int nextCollectiveSeq() {
        const int s = collectiveSeq_;
        collectiveSeq_ = (collectiveSeq_ + 1) % kCollectiveSeqWindow;
        return s;
    }
    static constexpr int kCollectiveSeqWindow = 1 << 12;

protected:
    Transport(int rank, int size) : rank_(rank), size_(size) {}

    int rank_;
    int size_;
    int collectiveSeq_ = 0;
};

/// Hook letting forked ranks (shm transport) report googletest assertion
/// failures back to the parent: returns the number of failed assertion
/// parts recorded in the currently running test (0 outside a test). The
/// shm runner snapshots it before the rank body and re-checks after — a
/// child whose count grew exits with a failure status, which the parent
/// turns into an exception, so an EXPECT_* in a forked rank still fails
/// the test. Registered by tests/transport_probe.cpp; a null probe (plain
/// binaries) disables the check.
using ChildFailureProbe = int (*)();
void setChildFailureProbe(ChildFailureProbe probe);
ChildFailureProbe childFailureProbe();

} // namespace tpf::vmpi
