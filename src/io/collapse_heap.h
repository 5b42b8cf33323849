#pragma once
/// \file collapse_heap.h
/// The edge-collapse priority queue of simplifyMesh: a binary min-heap on the
/// quadric error whose push and pop perform exactly the sift sequence of
/// libstdc++'s std::push_heap / std::pop_heap (the algorithm behind
/// std::priority_queue). Equal errors are common on lattice-derived meshes,
/// so which of several tied entries pops first decides the mesh; the C++
/// standard leaves that unspecified, and owning the algorithm keeps the
/// decimated mesh identical across standard libraries and machines.

#include <cstdint>
#include <vector>

namespace tpf::io {

/// One candidate collapse: v2 into v1, valid while both vertices still carry
/// the stamps they had at push time. The collapse position is recomputed on
/// pop (it is a function of the two vertices' unchanged state).
struct CollapseEntry {
    double error;
    int v1, v2;
    std::uint32_t stamp1, stamp2;
};

class CollapseHeap {
public:
    bool empty() const { return h_.empty(); }
    const CollapseEntry& top() const { return h_.front(); }

    void push(const CollapseEntry& e) {
        h_.push_back(e);
        siftUp(h_.size() - 1, e);
    }

    /// Remove top(): move the last entry into the root's hole along the
    /// path of smaller children, then sift it back up (std::__adjust_heap).
    void pop() {
        const std::size_t len = h_.size() - 1;
        const CollapseEntry value = h_[len];
        std::size_t hole = 0, child = 0;
        while (len > 2 && child < (len - 1) / 2) {
            child = 2 * (child + 1);
            if (lower(h_[child], h_[child - 1])) --child;
            h_[hole] = h_[child];
            hole = child;
        }
        if (len >= 2 && len % 2 == 0 && child == (len - 2) / 2) {
            child = 2 * (child + 1);
            h_[hole] = h_[child - 1];
            hole = child - 1;
        }
        siftUp(hole, value);
        h_.pop_back();
    }

private:
    /// std::priority_queue's comparator: \p a ranks below \p b.
    static bool lower(const CollapseEntry& a, const CollapseEntry& b) {
        return a.error > b.error;
    }

    void siftUp(std::size_t hole, const CollapseEntry& value) {
        while (hole > 0) {
            const std::size_t parent = (hole - 1) / 2;
            if (!lower(h_[parent], value)) break;
            h_[hole] = h_[parent];
            hole = parent;
        }
        h_[hole] = value;
    }

    std::vector<CollapseEntry> h_;
};

} // namespace tpf::io
