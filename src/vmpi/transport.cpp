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

bool parseTransportName(const std::string& name, TransportKind& out) {
    if (name == "thread") {
        out = TransportKind::Thread;
        return true;
    }
    if (name == "shm") {
        out = TransportKind::Shm;
        return true;
    }
    return false;
}

std::vector<TransportKind> allTransports() {
    return {TransportKind::Thread, TransportKind::Shm};
}

TransportKind defaultTransport() {
    const char* env = std::getenv("TPF_TRANSPORT");
    if (env == nullptr || env[0] == '\0') return TransportKind::Thread;
    TransportKind k = TransportKind::Thread;
    const bool known = parseTransportName(env, k);
    TPF_ASSERT(known, "TPF_TRANSPORT names an unknown transport");
    return k;
}

namespace {
ChildFailureProbe g_childFailureProbe = nullptr;
} // namespace

void setChildFailureProbe(ChildFailureProbe probe) {
    g_childFailureProbe = probe;
}

ChildFailureProbe childFailureProbe() { return g_childFailureProbe; }

} // namespace tpf::vmpi
