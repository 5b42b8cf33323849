#include "core/kernel_dispatch.h"

#include <cstdlib>

#include "util/assert.h"

namespace tpf::core {

namespace {

/// CPU support check per target name. Compiled-in targets whose ISA the
/// binary was *built* for unconditionally (e.g. -march=native) are still
/// checked — the dispatch table must only offer what the machine can run.
bool cpuSupports(const KernelTarget& t) {
    const std::string name = t.name;
    if (name == "scalar") return true;
#if defined(__GNUC__) || defined(__clang__)
    if (name == "sse2") return true; // baseline on x86-64; TU gated otherwise
    if (name == "avx2")
        return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    if (name == "avx512")
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma") &&
               __builtin_cpu_supports("avx512f");
    return false;
#else
    return name == "sse2";
#endif
}

const KernelTarget* widestAvailable() {
    const auto all = availableKernelTargets();
    return all.back(); // narrowest first; scalar guarantees non-empty
}

const KernelTarget* findAvailable(const std::string& name) {
    for (const KernelTarget* t : availableKernelTargets())
        if (name == t->name) return t;
    return nullptr;
}

/// The last setKernelTarget() choice; null until the first call.
const KernelTarget* g_selected = nullptr;

/// The TPF_KERNEL default, resolved once on first use.
const KernelTarget* startupTarget() {
    static const KernelTarget* const target = [] {
        const KernelChoice c = resolveKernelTarget("");
        TPF_ASSERT(c.error.empty(), c.error.c_str());
        return c.target;
    }();
    return target;
}

} // namespace

std::vector<const KernelTarget*> availableKernelTargets() {
    std::vector<const KernelTarget*> out;
    for (const KernelTarget* t :
         {kernelTargetScalar(), kernelTargetSse2(), kernelTargetAvx2(),
          kernelTargetAvx512()})
        if (t != nullptr && cpuSupports(*t)) out.push_back(t);
    return out;
}

KernelChoice resolveKernelTarget(const std::string& flag) {
    std::string name = flag;
    const char* source = "--kernel";
    if (name.empty()) {
        const char* env = std::getenv("TPF_KERNEL");
        if (env == nullptr || env[0] == '\0') return {widestAvailable(), {}};
        name = env;
        source = "TPF_KERNEL";
    }
    if (name == "auto") return {widestAvailable(), {}};
    if (const KernelTarget* t = findAvailable(name)) return {t, {}};
    if (name != "scalar" && name != "sse2" && name != "avx2" &&
        name != "avx512")
        return {nullptr, std::string("unknown ") + source + " '" + name +
                             "' (auto, scalar, sse2, avx2, avx512)"};
    if (flag.empty()) return {widestAvailable(), {}};
    return {nullptr, "--kernel target '" + name +
                         "' is not available on this CPU (see --list-kernels)"};
}

const KernelTarget* activeKernelTarget() {
    return g_selected != nullptr ? g_selected : startupTarget();
}

bool setKernelTarget(const std::string& name) {
    const KernelTarget* t = name == "auto" ? widestAvailable()
                                           : findAvailable(name);
    if (t == nullptr) return false;
    g_selected = t;
    return true;
}

} // namespace tpf::core
