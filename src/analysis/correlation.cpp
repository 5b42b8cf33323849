#include "analysis/correlation.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "analysis/lamellae.h" // indicatorPlane: the shared phase threshold
#include "util/assert.h"

namespace tpf::analysis {

namespace {
constexpr int kWordBits = 64;

/// v mod n in [0, n) for any sign of v: a lag's periodic shift.
inline int periodicShift(int v, int n) { return ((v % n) + n) % n; }

/// An indicator plane packed one bit per cell: row y occupies `words`
/// consecutive words, cell x is bit x % 64 of the row's word x / 64, and the
/// padding bits at and above nx in the last word of a row are zero.
class BitPlane {
public:
    BitPlane(const unsigned char* ind, int nx, int ny)
        : nx_(nx), ny_(ny), words_((nx + kWordBits - 1) / kWordBits),
          bits_(static_cast<std::size_t>(ny) * words_, 0) {
        for (int y = 0; y < ny; ++y) {
            std::uint64_t* row = rowPtr(bits_.data(), y);
            for (int x = 0; x < nx; ++x)
                if (ind[static_cast<std::size_t>(y) * nx + x])
                    row[x / kWordBits] |= std::uint64_t{1} << (x % kWordBits);
        }
    }

    int nx() const { return nx_; }
    int ny() const { return ny_; }
    const std::uint64_t* rows() const { return bits_.data(); }

    /// Every row rotated periodically by \p s in [0, nx): bit x < nx of row
    /// y of \p out is cell ((x + s) mod nx, y). The row is the nx-bit number
    /// (row >> s) | (row << (nx - s)), each shift a funnel shift over words.
    /// The zero padding of the packed rows makes the right shift pull in
    /// zeros; the left shift leaves bits in the padding of \p out, which
    /// hits() drops by its AND with the packed rows.
    void rotate(int s, std::vector<std::uint64_t>& out) const {
        out.resize(bits_.size());
        for (int y = 0; y < ny_; ++y) {
            const std::uint64_t* in = rowPtr(bits_.data(), y);
            std::uint64_t* o = rowPtr(out.data(), y);
            for (int w = 0; w < words_; ++w)
                o[w] = shiftedWord(in, w, s) | shiftedWord(in, w, s - nx_);
        }
    }

    /// Hits of lag (dx, dy) = sum over y of popcount(P[y] & R[(y + dy) mod
    /// ny]), where \p rot holds the rows rotated by dx (rows() for dx = 0)
    /// and \p sy = dy mod ny.
    long long hits(const std::uint64_t* rot, int sy) const {
        long long n = 0;
        int ys = sy;
        for (int y = 0; y < ny_; ++y) {
            const std::uint64_t* a = rowPtr(bits_.data(), y);
            const std::uint64_t* b = rowPtr(rot, ys);
            for (int w = 0; w < words_; ++w) n += std::popcount(a[w] & b[w]);
            if (++ys == ny_) ys = 0;
        }
        return n;
    }

private:
    template <class T> T* rowPtr(T* base, int y) const {
        return base + static_cast<std::size_t>(y) * words_;
    }

    /// Word w of the row shifted toward bit 0 by \p k bits (k >= 0) or
    /// toward the top by -k bits (k < 0), zeros shifted in. The shift
    /// amount never reaches 64, which would be undefined.
    std::uint64_t shiftedWord(const std::uint64_t* row, int w, int k) const {
        const bool down = k >= 0;
        const int m = down ? k : -k;
        const int q = m / kWordBits, r = m % kWordBits;
        const int lo = down ? w + q : w - q; // word that supplies most bits
        const int hi = down ? lo + 1 : lo - 1; // neighbour funneled in
        const auto at = [&](int i) {
            return i >= 0 && i < words_ ? row[i] : std::uint64_t{0};
        };
        if (r == 0) return at(lo);
        return down ? (at(lo) >> r) | (at(hi) << (kWordBits - r))
                    : (at(lo) << r) | (at(hi) >> (kWordBits - r));
    }

    int nx_, ny_, words_;
    std::vector<std::uint64_t> bits_;
};

/// Integer S2 hit counts of one plane, accumulated into \p hits: along x the
/// lag r is (r, 0), along y it is (0, r).
void accumulatePlaneHits(const BitPlane& plane, int axis, int maxShift,
                         std::vector<long long>& hits) {
    std::vector<std::uint64_t> rot;
    for (int r = 0; r <= maxShift; ++r) {
        long long n;
        if (axis == 0) {
            plane.rotate(periodicShift(r, plane.nx()), rot);
            n = plane.hits(rot.data(), 0);
        } else {
            n = plane.hits(plane.rows(), periodicShift(r, plane.ny()));
        }
        hits[static_cast<std::size_t>(r)] += n;
    }
}

} // namespace

std::vector<double> twoPointCorrelationPlane(const unsigned char* ind, int nx,
                                             int ny, int axis, int maxShift) {
    TPF_ASSERT(axis == 0 || axis == 1, "correlation axis must be x or y");
    TPF_ASSERT(ind != nullptr && nx > 0 && ny > 0, "invalid indicator plane");

    std::vector<long long> hits(static_cast<std::size_t>(maxShift) + 1, 0);
    accumulatePlaneHits(BitPlane(ind, nx, ny), axis, maxShift, hits);

    std::vector<double> s2(hits.size());
    const double inv = 1.0 / (static_cast<double>(nx) * ny);
    for (std::size_t r = 0; r < hits.size(); ++r)
        s2[r] = static_cast<double>(hits[r]) * inv;
    return s2;
}

std::vector<double> twoPointCorrelation(const Field<double>& phi, int phase,
                                        int axis, int maxShift, int z0,
                                        int z1) {
    TPF_ASSERT(axis == 0 || axis == 1, "correlation axis must be x or y");
    TPF_ASSERT(z0 >= 0 && z1 < phi.nz() && z0 <= z1, "invalid z slab");
    const int nx = phi.nx(), ny = phi.ny();

    std::vector<long long> hits(static_cast<std::size_t>(maxShift) + 1, 0);
    for (int z = z0; z <= z1; ++z) {
        const auto ind = indicatorPlane(phi, phase, z);
        accumulatePlaneHits(BitPlane(ind.data(), nx, ny), axis, maxShift,
                            hits);
    }

    std::vector<double> s2(hits.size());
    const double inv = 1.0 / (static_cast<double>(nx) * ny * (z1 - z0 + 1));
    for (std::size_t r = 0; r < hits.size(); ++r)
        s2[r] = static_cast<double>(hits[r]) * inv;
    return s2;
}

double lamellarSpacingEstimate(const std::vector<double>& s2) {
    // First local minimum then the following local maximum of S2(r): the
    // maximum position approximates the repeat distance of the lamellae.
    // Monotone or constant profiles never complete the descend+ascend
    // pattern and yield 0 = "no estimate" (see the header contract).
    std::size_t i = 1;
    while (i + 1 < s2.size() && s2[i] > s2[i + 1]) ++i; // descend
    std::size_t minPos = i;
    while (i + 1 < s2.size() && s2[i] <= s2[i + 1]) ++i; // ascend
    if (i == minPos || i + 1 >= s2.size()) return 0.0;
    return static_cast<double>(i);
}

std::vector<double> correlationMap2DPlane(const unsigned char* ind, int nx,
                                          int ny, int maxShift) {
    TPF_ASSERT(ind != nullptr && nx > 0 && ny > 0, "invalid indicator plane");
    const int side = 2 * maxShift + 1;
    std::vector<double> map(static_cast<std::size_t>(side) * side, 0.0);

    const BitPlane plane(ind, nx, ny);
    std::vector<std::uint64_t> rot;
    for (int dx = -maxShift; dx <= maxShift; ++dx) {
        plane.rotate(periodicShift(dx, nx), rot);
        for (int dy = -maxShift; dy <= maxShift; ++dy) {
            const long long hits =
                plane.hits(rot.data(), periodicShift(dy, ny));
            map[static_cast<std::size_t>(dy + maxShift) * side +
                (dx + maxShift)] =
                static_cast<double>(hits) / (static_cast<double>(nx) * ny);
        }
    }
    return map;
}

std::vector<double> correlationMap2D(const Field<double>& phi, int phase,
                                     int z, int maxShift) {
    const auto ind = indicatorPlane(phi, phase, z);
    return correlationMap2DPlane(ind.data(), phi.nx(), phi.ny(), maxShift);
}

CorrelationPca correlationPca(const std::vector<double>& map, int maxShift) {
    const int side = 2 * maxShift + 1;
    TPF_ASSERT(static_cast<int>(map.size()) == side * side,
               "correlation map size mismatch");

    // Background-subtract (uncorrelated level = fraction^2 ~ far-field value)
    // and clamp negatives so the weights form a density over lag vectors.
    const double center = map[static_cast<std::size_t>(maxShift) * side +
                              maxShift]; // = phase fraction
    const double background = center * center;

    double w = 0.0;
    Mat2 M;
    for (int dy = -maxShift; dy <= maxShift; ++dy) {
        for (int dx = -maxShift; dx <= maxShift; ++dx) {
            const double c =
                map[static_cast<std::size_t>(dy + maxShift) * side +
                    (dx + maxShift)] -
                background;
            if (c <= 0.0) continue;
            w += c;
            M += Mat2{static_cast<double>(dx) * dx, static_cast<double>(dx) * dy,
                      static_cast<double>(dx) * dy, static_cast<double>(dy) * dy} *
                 c;
        }
    }
    CorrelationPca out;
    if (w <= 0.0) return out;
    M = M * (1.0 / w);
    const auto ev = M.symEigenvalues();
    out.lambdaMinor = ev[0];
    out.lambdaMajor = ev[1];
    out.axisMajor = M.symEigenvector(ev[1]);
    return out;
}

} // namespace tpf::analysis
