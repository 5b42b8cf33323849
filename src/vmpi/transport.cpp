#include "vmpi/transport.h"

#include <cstdlib>
#include <string>

#include "util/assert.h"

namespace tpf::vmpi {

const char* transportName(TransportKind k) {
    switch (k) {
    case TransportKind::Thread: return "thread";
    case TransportKind::Shm: return "shm";
    }
    return "?";
}

std::optional<TransportKind> parseTransportName(const std::string& name) {
    if (name == "thread") return TransportKind::Thread;
    if (name == "shm") return TransportKind::Shm;
    return std::nullopt;
}

std::vector<TransportKind> allTransports() {
    return {TransportKind::Thread, TransportKind::Shm};
}

TransportChoice resolveTransport(const std::string& flag) {
    std::string name = flag;
    const char* source = "--transport";
    if (name.empty()) {
        const char* env = std::getenv("TPF_TRANSPORT");
        if (env == nullptr || env[0] == '\0') return {};
        name = env;
        source = "TPF_TRANSPORT";
    }
    if (const auto kind = parseTransportName(name)) return {*kind, {}};
    return {TransportKind::Thread,
            std::string("unknown ") + source + " '" + name + "' (thread, shm)"};
}

TransportKind defaultTransport() {
    const TransportChoice c = resolveTransport("");
    TPF_ASSERT(c.error.empty(), "TPF_TRANSPORT names an unknown transport");
    return c.kind;
}

namespace {
ChildFailureProbe g_childFailureProbe = nullptr;
} // namespace

void setChildFailureProbe(ChildFailureProbe probe) {
    g_childFailureProbe = probe;
}

ChildFailureProbe childFailureProbe() { return g_childFailureProbe; }

} // namespace tpf::vmpi
