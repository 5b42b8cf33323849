#pragma once
/// \file comm.h
/// Virtual MPI: an MPI-style message-passing layer with pluggable
/// transports.
///
/// The paper runs waLBerla with one MPI process per core on SuperMUC /
/// Hornet / JUQUEEN. This repo keeps the exact programming model — ranks,
/// tagged point-to-point messages, nonblocking receive + wait (for
/// communication hiding), barriers and deterministic collectives — and
/// moves the bytes through a Transport (vmpi/transport.h): threads of one
/// process (default) or forked processes over shared memory. See
/// docs/TRANSPORT.md.
///
/// Semantics:
///  - send() is buffered: the payload is copied out before send() returns
///    (like MPI_Bsend). There is no rendezvous deadlock.
///  - recv()/irecv() match by (source rank, tag), FIFO within a match.
///  - collectives are deterministic: reductions combine in rank order so
///    multi-rank runs are bitwise reproducible — on every transport.
///  - every collective call consumes a per-rank sequence number that is
///    mixed into its internal message tags, so back-to-back collectives
///    never share a (source, tag) stream: correctness does not depend on
///    cross-message delivery order, only on the per-(source, tag) FIFO
///    every transport guarantees.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "util/assert.h"
#include "vmpi/transport.h"

namespace tpf::vmpi {

class Comm;

namespace detail {
/// Comm factory for the per-backend rank launchers (transport_spawn.h).
Comm makeComm(Transport* t);
} // namespace detail

/// Reserved internal tag base for collectives; user tags must be >= 0.
inline constexpr int kInternalTagBase = -1000;

/// Handle for a pending nonblocking receive; completed by Comm::wait().
///
/// Move-only, and destroying an incomplete request is a hard error: a
/// dropped request silently leaks the matched message inside the
/// transport (the sender's payload is never consumed), which on a real
/// transport strands buffer space and on every transport desynchronizes
/// the (source, tag) stream for the next receive. Always wait(); the only
/// sanctioned alternative is cancel() during teardown on an error path
/// (GhostExchange's destructor uses it while an exception unwinds through
/// an in-flight exchange).
class Request {
public:
    Request() = default;
    ~Request() {
        TPF_ASSERT(!valid(),
                   "vmpi::Request destroyed without wait(): the pending "
                   "message would leak inside the transport");
    }

    /// Abandon the posted receive without consuming the message. Teardown
    /// escape hatch for error paths only: the matched payload stays inside
    /// the transport, so the communicator must not be used for further
    /// receives on this (source, tag) stream afterwards.
    void cancel() {
        if (!valid()) return;
        transport_->cancelRecv(handle_);
        out_ = nullptr;
        transport_ = nullptr;
    }

    Request(Request&& other) noexcept
        : transport_(other.transport_), handle_(other.handle_),
          out_(other.out_) {
        other.out_ = nullptr;
        other.transport_ = nullptr;
    }
    Request& operator=(Request&& other) noexcept {
        TPF_ASSERT(!valid(),
                   "vmpi::Request overwritten without wait(): the pending "
                   "message would leak inside the transport");
        transport_ = other.transport_;
        handle_ = other.handle_;
        out_ = other.out_;
        other.out_ = nullptr;
        other.transport_ = nullptr;
        return *this;
    }

    Request(const Request&) = delete;
    Request& operator=(const Request&) = delete;

    bool valid() const { return out_ != nullptr; }

private:
    friend class Comm;
    Transport* transport_ = nullptr;
    std::uint64_t handle_ = 0;
    std::vector<std::byte>* out_ = nullptr;
};

/// Per-rank communicator handle. Cheap to copy within the owning rank; must
/// only be used from the thread that runs that rank.
class Comm {
public:
    int rank() const { return transport_->rank(); }
    int size() const { return transport_->size(); }
    bool isRoot() const { return rank() == 0; }

    /// The transport moving this communicator's bytes ("thread", "shm",
    /// "mpi").
    const char* transportName() const { return transport_->name(); }

    /// Buffered send of \p bytes to \p dst with matching \p tag.
    void send(int dst, int tag, const void* data, std::size_t bytes);

    template <typename T>
    void sendValue(int dst, int tag, const T& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        send(dst, tag, &v, sizeof(T));
    }
    template <typename T>
    void sendVector(int dst, int tag, const std::vector<T>& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        send(dst, tag, v.data(), v.size() * sizeof(T));
    }

    /// Blocking receive of the next message matching (src, tag).
    void recv(int src, int tag, std::vector<std::byte>& out);

    template <typename T>
    T recvValue(int src, int tag) {
        static_assert(std::is_trivially_copyable_v<T>);
        std::vector<std::byte> buf;
        recv(src, tag, buf);
        TPF_ASSERT(buf.size() == sizeof(T), "message size mismatch");
        T v;
        std::memcpy(&v, buf.data(), sizeof(T));
        return v;
    }
    template <typename T>
    std::vector<T> recvVector(int src, int tag) {
        static_assert(std::is_trivially_copyable_v<T>);
        std::vector<std::byte> buf;
        recv(src, tag, buf);
        TPF_ASSERT(buf.size() % sizeof(T) == 0, "message size mismatch");
        std::vector<T> v(buf.size() / sizeof(T));
        std::memcpy(v.data(), buf.data(), buf.size());
        return v;
    }

    /// Post a nonblocking receive; the payload lands in *out when wait()s.
    /// \p bytesHint is the exact expected payload size when known (the
    /// ghost exchange always knows its slab sizes) — backends that need a
    /// pre-sized landing buffer for true async progress (MPI_Irecv) use
    /// it; 0 falls back to a deferred blocking receive at wait().
    Request irecv(int src, int tag, std::vector<std::byte>* out,
                  std::size_t bytesHint = 0);

    /// Complete a pending request (blocking).
    void wait(Request& req);

    /// Synchronize all ranks.
    void barrier();

    /// Deterministic all-reduce (combines in rank order on root, broadcasts).
    double allreduce(double value, const std::function<double(double, double)>& op);
    double allreduceSum(double v);
    double allreduceMin(double v);
    double allreduceMax(double v);
    long long allreduceSumLL(long long v);

    /// Collective boolean agreement: true iff every rank passed true. The
    /// checkpoint save/load paths use it to decide atomically whether all
    /// ranks succeeded before anyone commits or throws (io/checkpoint.cpp).
    bool allAgree(bool localOk);

    /// Gather one double per rank to root (rank 0); non-roots get empty vector.
    std::vector<double> gather(double v);

    /// Gather a variable-length byte blob from every rank to root, returned
    /// indexed by rank; non-roots get an empty outer vector. Collective.
    /// Used by the in-situ analysis pipeline to assemble global x-y planes
    /// from per-rank tile sweeps (src/analysis/gather.h).
    std::vector<std::vector<std::byte>>
    gatherAllBytes(const std::vector<std::byte>& mine);

    /// Broadcast a trivially copyable value from root.
    template <typename T>
    T bcast(T v) {
        static_assert(std::is_trivially_copyable_v<T>);
        bcastBytes(&v, sizeof(T));
        return v;
    }

private:
    friend Comm detail::makeComm(Transport*);
    explicit Comm(Transport* t) : transport_(t) {}

    void bcastBytes(void* data, std::size_t bytes);

    /// Internal tag of collective number \p seq, phase \p phase (0 = toward
    /// root, 1 = away from root). Distinct per call so reordered delivery
    /// across calls can never cross-match (see file header).
    static int collectiveTag(int seq, int phase) {
        return kInternalTagBase - 1 - (seq * 2 + phase);
    }

    Transport* transport_ = nullptr;
};

/// Run \p f on \p nranks virtual ranks over the default transport
/// ($TPF_TRANSPORT or thread). Rank 0 runs on the calling thread when the
/// transport is thread-backed and nranks == 1, and in the calling process
/// for the shm transport. Exceptions thrown by any rank are rethrown on
/// the calling thread after all ranks finished (for process-backed
/// transports, a non-root rank's exception arrives as a std::runtime_error
/// carrying the original what()).
void runParallel(int nranks, const std::function<void(Comm&)>& f);

/// Same, over an explicitly chosen transport (the tpf-sim --transport flag).
void runParallel(TransportKind kind, int nranks,
                 const std::function<void(Comm&)>& f);

/// Thread transport with adversarial randomized delivery: messages are
/// inserted at random (seeded) mailbox positions, so nothing about
/// cross-message arrival order can be assumed. Test harness for the
/// collective sequencing protocol; \p seed must be nonzero.
void runParallelThreadShuffled(std::uint64_t seed, int nranks,
                               const std::function<void(Comm&)>& f);

} // namespace tpf::vmpi
