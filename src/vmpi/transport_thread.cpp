/// \file transport_thread.cpp
/// The in-process thread backend: ranks are threads of one process,
/// messages travel through per-rank mailboxes. This is the original vmpi
/// substrate factored behind the Transport interface, plus
/// an adversarial "shuffled delivery" mode for the collective-sequencing
/// regression tests: when enabled, push() inserts each message at a random
/// position in the destination mailbox, so two messages that share a
/// (source, tag) pair can be observed in either order — exactly the
/// interleaving a real network transport is allowed to produce between
/// *distinct* (source, tag) streams, applied worst-case everywhere.

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/assert.h"
#include "util/random.h"
#include "vmpi/comm.h"
#include "vmpi/transport.h"
#include "vmpi/transport_spawn.h"

// tpf-lint: allow(nondeterminism) -- deadlock-detection timeout for blocking
// receives; only decides when to abort a hung run, never a simulation value.
#include <chrono>

namespace tpf::vmpi {

namespace {

/// How long a blocking receive may stall before we declare a deadlock.
/// Generous enough for heavily oversubscribed CI machines; small enough that
/// a genuinely deadlocked test fails with a diagnostic instead of hanging.
// tpf-lint: allow(nondeterminism) -- deadlock-detection timeout for blocking
// receives; only decides when to abort a hung run, never a simulation value.
constexpr auto kRecvTimeout = std::chrono::seconds(120);

/// A message in flight: payload plus matching metadata.
struct Message {
    int src = -1;
    int tag = -1;
    std::vector<std::byte> data;
};

/// Thrown into ranks blocked in a receive or barrier when another rank of
/// the same world failed: they unwind instead of stalling into the 120 s
/// deadlock timeout. Internal — runParallelThread swallows it and rethrows
/// the originating rank's exception instead.
struct PeerAbort {};

/// Mailbox: the per-rank receive queue.
class Mailbox {
public:
    /// \p shuffleSeed != 0 turns on randomized insertion (seeded per rank so
    /// runs are reproducible).
    Mailbox(std::uint64_t shuffleSeed, const std::atomic<bool>* aborted)
        : shuffled_(shuffleSeed != 0), rng_(shuffleSeed), aborted_(aborted) {}

    void push(Message msg) {
        {
            std::lock_guard<std::mutex> lock(mtx_);
            if (shuffled_) {
                const auto pos = static_cast<std::ptrdiff_t>(
                    rng_.uniformInt(queue_.size() + 1));
                queue_.insert(queue_.begin() + pos, std::move(msg));
            } else {
                queue_.push_back(std::move(msg));
            }
        }
        cv_.notify_all();
    }

    /// Pop the first message matching (src, tag); blocks until one arrives.
    /// Throws PeerAbort when the world aborted while waiting.
    Message pop(int src, int tag) {
        std::unique_lock<std::mutex> lock(mtx_);
        for (;;) {
            for (auto it = queue_.begin(); it != queue_.end(); ++it) {
                if (it->src == src && it->tag == tag) {
                    Message m = std::move(*it);
                    queue_.erase(it);
                    return m;
                }
            }
            if (aborted_->load()) throw PeerAbort{};
            if (cv_.wait_for(lock, kRecvTimeout) == std::cv_status::timeout)
                TPF_ASSERT(false, "vmpi receive timed out (likely deadlock)");
        }
    }

    /// Wake a rank blocked in pop() so it can observe the abort flag.
    void notifyAbort() {
        std::lock_guard<std::mutex> lock(mtx_);
        cv_.notify_all();
    }

private:
    std::mutex mtx_;
    std::condition_variable cv_;
    std::deque<Message> queue_;
    bool shuffled_;
    tpf::Random rng_;
    const std::atomic<bool>* aborted_;
};

/// Shared state of one thread-backed world.
class ThreadWorld {
public:
    ThreadWorld(int n, std::uint64_t shuffleSeed)
        : size_(n), mailboxes_(static_cast<std::size_t>(n)) {
        for (std::size_t r = 0; r < mailboxes_.size(); ++r) {
            // Distinct stream per mailbox; splitmix keeps seed 0 reserved
            // for "not shuffled".
            std::uint64_t s = shuffleSeed;
            const std::uint64_t rankSeed =
                shuffleSeed == 0 ? 0 : splitmix64(s) + r + 1;
            mailboxes_[r] = std::make_unique<Mailbox>(rankSeed, &aborted_);
        }
    }

    int size() const { return size_; }
    Mailbox& mailbox(int rank) {
        return *mailboxes_[static_cast<std::size_t>(rank)];
    }

    /// Central sense-reversing barrier. Throws PeerAbort when the world
    /// aborted — the missing rank would never arrive.
    void barrier() {
        std::unique_lock<std::mutex> lock(barrierMtx_);
        if (aborted_.load()) throw PeerAbort{};
        const std::size_t gen = barrierGen_;
        if (++barrierCount_ == size_) {
            barrierCount_ = 0;
            ++barrierGen_;
            barrierCv_.notify_all();
        } else {
            barrierCv_.wait(
                lock, [&] { return barrierGen_ != gen || aborted_.load(); });
            if (barrierGen_ == gen) throw PeerAbort{};
        }
    }

    /// A rank failed: wake everyone blocked in a receive or the barrier so
    /// they unwind via PeerAbort instead of the deadlock timeout.
    void abort() {
        aborted_.store(true);
        for (auto& mb : mailboxes_) mb->notifyAbort();
        {
            std::lock_guard<std::mutex> lock(barrierMtx_);
            barrierCv_.notify_all();
        }
    }

private:
    int size_;
    std::vector<std::unique_ptr<Mailbox>> mailboxes_;
    std::atomic<bool> aborted_{false};

    std::mutex barrierMtx_;
    std::condition_variable barrierCv_;
    int barrierCount_ = 0;
    std::size_t barrierGen_ = 0;
};

class ThreadTransport final : public Transport {
public:
    ThreadTransport(ThreadWorld* w, int rank)
        : Transport(rank, w->size()), world_(w) {}

    const char* name() const override { return "thread"; }

    void send(int dst, int tag, const void* data,
              std::size_t bytes) override {
        TPF_ASSERT(dst >= 0 && dst < size_, "invalid destination rank");
        Message m;
        m.src = rank_;
        m.tag = tag;
        m.data.resize(bytes);
        if (bytes > 0) std::memcpy(m.data.data(), data, bytes);
        world_->mailbox(dst).push(std::move(m));
    }

    void recv(int src, int tag, std::vector<std::byte>& out) override {
        TPF_ASSERT(src >= 0 && src < size_, "invalid source rank");
        out = world_->mailbox(rank_).pop(src, tag).data;
    }

    // Sends are buffered straight into the destination mailbox, so a posted
    // receive needs no landing buffer: just remember the match and complete
    // it in waitRecv. bytesHint is only needed by backends that must
    // pre-allocate (MPI_Irecv).
    std::uint64_t postRecv(int src, int tag,
                           std::size_t /*bytesHint*/) override {
        TPF_ASSERT(src >= 0 && src < size_, "invalid source rank");
        const std::uint64_t h = nextHandle_++;
        posted_.emplace(h, std::make_pair(src, tag));
        return h;
    }

    void waitRecv(std::uint64_t handle, std::vector<std::byte>& out) override {
        const auto it = posted_.find(handle);
        TPF_ASSERT(it != posted_.end(), "waiting on an unknown recv handle");
        const auto [src, tag] = it->second;
        posted_.erase(it);
        out = world_->mailbox(rank_).pop(src, tag).data;
    }

    // Nothing was reserved at post time, so cancelling just forgets the
    // match; the message (if sent) stays in the mailbox, unconsumed.
    void cancelRecv(std::uint64_t handle) override {
        const auto it = posted_.find(handle);
        TPF_ASSERT(it != posted_.end(), "cancelling an unknown recv handle");
        posted_.erase(it);
    }

    void barrier() override { world_->barrier(); }

private:
    ThreadWorld* world_;
    std::uint64_t nextHandle_ = 1;
    std::unordered_map<std::uint64_t, std::pair<int, int>> posted_;
};

} // namespace

namespace detail {

void runParallelThread(int nranks, const RankFn& f,
                       std::uint64_t shuffleSeed) {
    TPF_ASSERT(nranks >= 1, "need at least one rank");
    ThreadWorld world(nranks, shuffleSeed);

    if (nranks == 1) {
        ThreadTransport t(&world, 0);
        Comm c = makeComm(&t);
        f(c);
        return;
    }

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    std::mutex errMtx;
    std::exception_ptr firstError;

    for (int r = 0; r < nranks; ++r) {
        threads.emplace_back([&, r] {
            try {
                ThreadTransport t(&world, r);
                Comm c = makeComm(&t);
                f(c);
            } catch (const PeerAbort&) {
                // Unwound because another rank failed; that rank's own
                // exception is the one worth reporting.
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(errMtx);
                    if (!firstError) firstError = std::current_exception();
                }
                world.abort();
            }
        });
    }
    for (auto& t : threads) t.join();
    if (firstError) std::rethrow_exception(firstError);
}

} // namespace detail

} // namespace tpf::vmpi
