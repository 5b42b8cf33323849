#include "core/solver.h"

#include <cmath>

namespace tpf::core {

namespace {

Int3 effectiveBlockSize(const SolverConfig& cfg) {
    if (cfg.blockSize.x > 0 && cfg.blockSize.y > 0 && cfg.blockSize.z > 0)
        return cfg.blockSize;
    return cfg.globalCells;
}

} // namespace

Solver::Solver(SolverConfig cfg, vmpi::Comm* comm)
    : cfg_(cfg), comm_(comm), sys_(thermo::makeAgAlCu()),
      bf_(BlockForest::createUniform(cfg.globalCells, effectiveBlockSize(cfg),
                                     cfg.periodic, comm ? comm->size() : 1)),
      temp_(cfg.model.temp) {
    const int myRank = comm_ ? comm_->rank() : 0;
    for (int b : bf_.localBlocks(myRank))
        blocks_.push_back(std::make_unique<SimBlock>(bf_, b, cfg_.phiLayout,
                                                     cfg_.muLayout));
    tz_.resize(blocks_.size());

    // Intra-rank worker pool for the slab-parallel sweeps (hybrid mode).
    // Each rank owns its pool, so ranks x threads cores are used in total.
    if (cfg_.threads > 1)
        pool_ = std::make_unique<util::ThreadPool>(cfg_.threads);

    // Exchange schemes. phi needs D3C19 ghosts (the mu-sweep reads diagonal
    // phi neighbors for the anti-trapping current), mu only faces (D3C7).
    phiEx_ = std::make_unique<GhostExchange>(bf_, comm_, StencilKind::D3C19,
                                             /*fieldSlot=*/0);
    muEx_ = std::make_unique<GhostExchange>(bf_, comm_, StencilKind::D3C7,
                                            /*fieldSlot=*/1);
    for (auto& blk : blocks_) {
        phiEx_->registerField(blk->blockIdx, &blk->phiDst);
        // In mu-overlap mode the mu communication happens at the *start* of a
        // step on muSrc (Algorithm 2 line 1); otherwise on muDst at the end.
        muEx_->registerField(blk->blockIdx,
                             cfg_.overlapMu ? &blk->muSrc : &blk->muDst);
    }

    // Boundary conditions (Figure 2): z bottom Neumann, z top Dirichlet
    // (fresh liquid / eutectic chemical potential); x, y periodic.
    if (!cfg_.periodic[2]) {
        phiBC_.kind[4] = BCType::Neumann;
        phiBC_.kind[5] = BCType::Dirichlet;
        std::vector<double> liquid(N, 0.0);
        liquid[LIQ] = 1.0;
        phiBC_.value[5] = liquid;

        muBC_.kind[4] = BCType::Neumann;
        muBC_.kind[5] = BCType::Dirichlet;
        muBC_.value[5] = {sys_.muEut().x, sys_.muEut().y};
    }
    TPF_ASSERT(cfg_.periodic[0] && cfg_.periodic[1],
               "the solidification setup assumes lateral periodicity");

    buildTimeloop();
}

StepContext Solver::makeContext(std::size_t blockSlot) const {
    StepContext ctx;
    ctx.mc = ModelConsts::build(cfg_.model, sys_);
    ctx.tz = &tz_[blockSlot];
    ctx.temp = &temp_;
    ctx.time = time_;
    ctx.windowOffset = windowOffset_;
    return ctx;
}

void Solver::sweepPhi(std::size_t blockSlot, SimBlock& b) {
    const StepContext base = makeContext(blockSlot);
    const CellInterval whole{0, 0, 0, b.size.x - 1, b.size.y - 1,
                             b.size.z - 1};
    parallelForSlabs(pool_.get(), whole, [&](const CellInterval& slab) {
        runPhiKernel(cfg_.phiKernel, b, base.forSlab(slab));
    });
}

void Solver::sweepMu(std::size_t blockSlot, SimBlock& b) {
    const StepContext base = makeContext(blockSlot);
    const CellInterval whole{0, 0, 0, b.size.x - 1, b.size.y - 1,
                             b.size.z - 1};
    parallelForSlabs(pool_.get(), whole, [&](const CellInterval& slab) {
        runMuKernel(cfg_.muKernel, b, base.forSlab(slab));
    });
}

void Solver::buildTimeloop() {
    auto forAllBlocks = [this](auto fn) {
        for (std::size_t i = 0; i < blocks_.size(); ++i) fn(i, *blocks_[i]);
    };

    loop_.add("window", [this] {
        if (cfg_.window.enabled &&
            loop_.steps() % std::max(1, cfg_.window.checkEvery) == 0)
            maybeShiftWindow();
    });

    loop_.add("tz-cache", [this, forAllBlocks] {
        const ModelConsts mc = ModelConsts::build(cfg_.model, sys_);
        forAllBlocks([&](std::size_t i, SimBlock& b) {
            tz_[i].build(mc, temp_, b.origin.z, b.size.z, time_, windowOffset_);
        });
    });

    if (cfg_.overlapMu)
        loop_.add("mu-comm-start", [this] { muEx_->start(); });

    loop_.add("phi-sweep", [this, forAllBlocks] {
        forAllBlocks([&](std::size_t i, SimBlock& b) { sweepPhi(i, b); });
    });

    if (cfg_.overlapMu) {
        loop_.add("mu-comm-wait", [this, forAllBlocks] {
            muEx_->wait();
            forAllBlocks([&](std::size_t, SimBlock& b) {
                applyBoundaries(b.muSrc, bf_, b.blockIdx, muBC_, pool_.get());
            });
        });
    }

    loop_.add("phi-comm", [this, forAllBlocks] {
        phiEx_->communicate();
        forAllBlocks([&](std::size_t, SimBlock& b) {
            applyBoundaries(b.phiDst, bf_, b.blockIdx, phiBC_, pool_.get());
        });
    });
    loop_.add("mu-sweep", [this, forAllBlocks] {
        forAllBlocks([&](std::size_t i, SimBlock& b) { sweepMu(i, b); });
    });

    if (!cfg_.overlapMu) {
        loop_.add("mu-comm", [this, forAllBlocks] {
            muEx_->communicate();
            forAllBlocks([&](std::size_t, SimBlock& b) {
                applyBoundaries(b.muDst, bf_, b.blockIdx, muBC_, pool_.get());
            });
        });
    }

    loop_.add("swap", [this] {
        for (auto& b : blocks_) b->swapSrcDst();
        time_ += cfg_.model.dt;
    });
}

void Solver::addPostStepHook(const std::string& name,
                             std::function<void(long long)> fn) {
    // buildTimeloop() ran in the constructor, so appended functors execute
    // after "swap": the hook observes the post-step source fields. The
    // timeloop's step counter increments after the functor sequence, hence
    // the +1 to report the step being completed.
    loop_.add(name, [this, fn = std::move(fn)] { fn(loop_.steps() + 1); });
}

void Solver::communicateAll() {
    // Synchronize the *source* fields (initialization / post-shift): use
    // temporary exchanges bound to the src fields with distinct tag slots.
    GhostExchange phiSrcEx(bf_, comm_, StencilKind::D3C19, /*fieldSlot=*/2);
    GhostExchange muSrcEx(bf_, comm_, StencilKind::D3C7, /*fieldSlot=*/3);
    for (auto& b : blocks_) {
        phiSrcEx.registerField(b->blockIdx, &b->phiSrc);
        muSrcEx.registerField(b->blockIdx, &b->muSrc);
    }
    phiSrcEx.communicate();
    muSrcEx.communicate();
    for (auto& b : blocks_) {
        applyBoundaries(b->phiSrc, bf_, b->blockIdx, phiBC_, pool_.get());
        applyBoundaries(b->muSrc, bf_, b->blockIdx, muBC_, pool_.get());
    }
}

void Solver::initialize() {
    for (auto& b : blocks_) initVoronoi(*b, bf_, cfg_.init, sys_);
    communicateAll();
    initialized_ = true;
}

void Solver::restore(double time, double windowOffset, long long steps) {
    time_ = time;
    windowOffset_ = windowOffset;
    loop_.setSteps(steps);
    communicateAll();
    initialized_ = true;
}

void Solver::step() {
    TPF_ASSERT(initialized_, "call initialize() (or restore) before step()");
    loop_.singleStep();
}

void Solver::run(int steps) {
    for (int i = 0; i < steps; ++i) step();
}

void Solver::maybeShiftWindow() {
    int front = localSolidFrontZ(blocks_);
    if (comm_ && comm_->size() > 1)
        front = static_cast<int>(
            comm_->allreduceMax(static_cast<double>(front)));

    const double trigger = cfg_.window.triggerFraction * cfg_.globalCells.z;
    int shifts = 0;
    bool synced = false;
    while (front >= 0 && static_cast<double>(front - shifts) > trigger &&
           shifts < cfg_.globalCells.z / 4) {
        if (!synced) {
            // The shift reads the z+1 ghosts of the *source* fields. phiSrc
            // ghosts are valid here (last step ended with the phi exchange +
            // swap), but in mu-overlap mode muSrc is exchanged at the START
            // of a step — after this functor — so its ghosts are one step
            // stale at block interfaces. Serial runs have no z-interface and
            // never read them; without this refresh, multi-rank shifted
            // fields diverge from the serial ones at the interface plane.
            communicateAll();
            synced = true;
        }
        for (auto& b : blocks_) shiftDownOneCell(*b, bf_, sys_, pool_.get());
        windowOffset_ += 1.0;
        ++shifts;
        // Shifting consumed the z+1 ghosts; re-synchronize before either the
        // next shift or the next sweep.
        communicateAll();
    }
}

std::array<double, N> Solver::phaseFractions() {
    std::array<double, N> sum{};
    long long cells = 0;
    for (auto& b : blocks_) {
        forEachCell(b->phiSrc.interior(), [&](int x, int y, int z) {
            for (int a = 0; a < N; ++a)
                sum[static_cast<std::size_t>(a)] += b->phiSrc(x, y, z, a);
        });
        cells += b->numCells();
    }
    if (comm_ && comm_->size() > 1) {
        for (auto& s : sum) s = comm_->allreduceSum(s);
        cells = comm_->allreduceSumLL(cells);
    }
    for (auto& s : sum) s /= static_cast<double>(cells);
    return sum;
}

std::array<double, 3> Solver::solidFractions() {
    const auto f = phaseFractions();
    const double solid = f[0] + f[1] + f[2];
    if (solid <= 0.0) return {0.0, 0.0, 0.0};
    return {f[0] / solid, f[1] / solid, f[2] / solid};
}

int Solver::frontPosition() {
    int front = localSolidFrontZ(blocks_);
    if (comm_ && comm_->size() > 1)
        front =
            static_cast<int>(comm_->allreduceMax(static_cast<double>(front)));
    return front;
}

double Solver::maxMuDeviation() {
    double m = 0.0;
    const Vec2 muE = sys_.muEut();
    for (auto& b : blocks_) {
        forEachCell(b->muSrc.interior(), [&](int x, int y, int z) {
            m = std::max(m, std::abs(b->muSrc(x, y, z, 0) - muE.x));
            m = std::max(m, std::abs(b->muSrc(x, y, z, 1) - muE.y));
        });
    }
    if (comm_ && comm_->size() > 1) m = comm_->allreduceMax(m);
    return m;
}

} // namespace tpf::core
