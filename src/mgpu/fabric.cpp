#include "mgpu/fabric.hpp"

#include <algorithm>
#include <utility>

#include "common/logging.hpp"

namespace crisp
{
namespace mgpu
{

namespace
{

/** Calls @p fn on every packet @p links hold: queued, on a wire, landed. */
template <typename Links, typename Fn>
void
forEachPacket(const Links &links, Fn fn)
{
    for (const auto &link : links) {
        for (const MemRequest &req : link.queue) {
            fn(req);
        }
        for (const auto &p : link.inFlight) {
            fn(p.req);
        }
        for (const MemRequest &req : link.landed) {
            fn(req);
        }
    }
}

} // namespace

InterGpuFabric::InterGpuFabric(const FabricConfig &cfg,
                               uint32_t num_devices, Addr window_bytes)
    : cfg_(cfg), numDevices_(num_devices), windowBytes_(window_bytes)
{
    fatal_if(numDevices_ < 2, "a fabric needs at least 2 devices");
    fatal_if(windowBytes_ == 0, "device heap window must be non-zero");
    fatal_if(cfg_.linkBytesPerCycle <= 0.0,
             "link bandwidth must be positive");
    fatal_if(cfg_.requestQueueCapacity == 0,
             "request queue capacity must be non-zero");
    fatal_if(cfg_.migrateAfter != 0 && cfg_.pageBytes == 0,
             "page migration needs a non-zero page size");
    devices_.assign(numDevices_, nullptr);
    requestLinks_.reserve(numDevices_ * numDevices_);
    responseLinks_.reserve(numDevices_ * numDevices_);
    for (uint32_t i = 0; i < numDevices_ * numDevices_; ++i) {
        requestLinks_.emplace_back(cfg_);
        responseLinks_.emplace_back(cfg_);
    }
}

void
InterGpuFabric::attachDevice(uint32_t id, Gpu *gpu)
{
    fatal_if(id >= numDevices_, "device id %u out of range", id);
    fatal_if(gpu == nullptr, "attaching a null device");
    devices_[id] = gpu;
}

uint32_t
InterGpuFabric::staticOwnerOf(Addr line) const
{
    const Addr w = line / windowBytes_;
    return w >= numDevices_ ? numDevices_ - 1 : static_cast<uint32_t>(w);
}

uint32_t
InterGpuFabric::ownerOf(Addr line) const
{
    if (!pageOwner_.empty()) {
        const auto it = pageOwner_.find(line / cfg_.pageBytes);
        if (it != pageOwner_.end()) {
            return it->second;
        }
    }
    return staticOwnerOf(line);
}

InterGpuFabric::Link &
InterGpuFabric::requestLink(uint32_t src, uint32_t dst)
{
    return requestLinks_[src * numDevices_ + dst];
}

const InterGpuFabric::Link &
InterGpuFabric::requestLink(uint32_t src, uint32_t dst) const
{
    return requestLinks_[src * numDevices_ + dst];
}

InterGpuFabric::Link &
InterGpuFabric::responseLink(uint32_t src, uint32_t dst)
{
    return responseLinks_[src * numDevices_ + dst];
}

const InterGpuFabric::Link &
InterGpuFabric::responseLink(uint32_t src, uint32_t dst) const
{
    return responseLinks_[src * numDevices_ + dst];
}

uint32_t
InterGpuFabric::requestBytes(const MemRequest &req) const
{
    // A store carries its line; a load request is header-only (the line
    // comes back on the response link).
    return req.write ? cfg_.headerBytes + kLineBytes : cfg_.headerBytes;
}

bool
InterGpuFabric::submitRemote(MemRequest req, Cycle now)
{
    const uint32_t src = req.srcDevice;
    const uint32_t dst = ownerOf(req.line);
    panic_if(src >= numDevices_, "remote submit from unknown device %u",
             src);
    panic_if(src == dst, "remote submit for a locally owned line");
    Link &link = requestLink(src, dst);
    if (link.queue.size() >= cfg_.requestQueueCapacity) {
        return false;
    }
    link.queue.push_back(std::move(req));
    ++requestsAccepted_;
    if (cfg_.migrateAfter != 0) {
        recordTouch(link.queue.back(), dst, now);
    }
    return true;
}

void
InterGpuFabric::recordTouch(const MemRequest &req, uint32_t owner,
                            Cycle now)
{
    const Addr page = req.line / cfg_.pageBytes;
    const uint32_t toucher = req.srcDevice;
    if (++touches_[{page, toucher}] < cfg_.migrateAfter) {
        return;
    }
    // K-th remote touch: the page moves to the toucher. The triggering
    // request still traverses remotely (it was routed above); the bulk
    // copy is charged on the owner → toucher response wire, delaying
    // fills behind it — migration is not free bandwidth.
    pageOwner_[page] = toucher;
    touches_.erase(touches_.lower_bound({page, 0}),
                   touches_.upper_bound({page, numDevices_}));
    ++pageMigrations_;
    migratedBytes_ += cfg_.pageBytes;
    bytesTransferred_ += cfg_.pageBytes;
    responseLink(owner, toucher)
        .wire.transfer(now, static_cast<uint32_t>(cfg_.pageBytes));
    if (devices_[toucher] != nullptr) {
        devices_[toucher]->stats().stream(req.stream).pageMigrations++;
    }
}

void
InterGpuFabric::submitRemoteResponse(MemRequest resp, uint32_t from_device,
                                     Cycle now)
{
    (void)now;
    panic_if(from_device >= numDevices_ ||
                 resp.srcDevice >= numDevices_ ||
                 resp.srcDevice == from_device,
             "bad response route %u -> %u", from_device, resp.srcDevice);
    responseLink(from_device, resp.srcDevice)
        .queue.push_back(std::move(resp));
    ++responsesAccepted_;
}

void
InterGpuFabric::pump(Link &link, Cycle now)
{
    // Admit queued packets onto the wire until it is booked at least one
    // cycle ahead: sustained throughput tracks linkBytesPerCycle while
    // every admission stays deterministic and main-thread-serial.
    while (!link.queue.empty() && link.wire.backlog(now) == 0) {
        MemRequest req = std::move(link.queue.front());
        link.queue.pop_front();
        const uint32_t bytes = requestBytes(req);
        const Cycle due = link.wire.transfer(now, bytes);
        bytesTransferred_ += bytes;
        link.inFlight.push_back({std::move(req), due});
    }
}

void
InterGpuFabric::step(Cycle now)
{
    if (idle()) {
        return;   // nothing queued, on a wire or landed
    }

    // 1. Land due request packets (wire → destination landing queue).
    for (Link &link : requestLinks_) {
        while (!link.inFlight.empty() &&
               link.inFlight.front().dueAt <= now) {
            link.landed.push_back(std::move(link.inFlight.front().req));
            link.inFlight.pop_front();
        }
    }

    // 2. Drain landing queues into destination L2s. Round-robin across
    //    source devices with a rotation start that is a pure function of
    //    the cycle, one grant per link per round — the PR-9 fairness
    //    scheme — so no source link can starve another under a saturated
    //    destination. A bank refusal blocks that link for this cycle
    //    (bank queues drain during the device tick, after this step).
    for (uint32_t dst = 0; dst < numDevices_; ++dst) {
        const uint32_t start =
            static_cast<uint32_t>(now % static_cast<Cycle>(numDevices_));
        bool progress = true;
        std::vector<uint8_t> &blocked = blockedScratch_;
        blocked.assign(numDevices_, 0);
        while (progress) {
            progress = false;
            for (uint32_t r = 0; r < numDevices_; ++r) {
                const uint32_t src = (start + r) % numDevices_;
                if (src == dst || blocked[src]) {
                    continue;
                }
                Link &link = requestLink(src, dst);
                if (link.landed.empty()) {
                    continue;
                }
                if (!devices_[dst]->acceptRemoteRequest(
                        link.landed.front(), now)) {
                    blocked[src] = 1;
                    continue;
                }
                link.landed.pop_front();
                ++requestsDelivered_;
                progress = true;
            }
        }
    }

    // 3. Deliver due response packets straight to the requesting SM
    //    (memResponse never refuses; the L1 fill path absorbs it).
    for (Link &link : responseLinks_) {
        while (!link.inFlight.empty() &&
               link.inFlight.front().dueAt <= now) {
            MemRequest resp = std::move(link.inFlight.front().req);
            link.inFlight.pop_front();
            devices_[resp.srcDevice]->deliverRemoteResponse(resp, now);
            ++responsesDelivered_;
        }
    }

    // 4. Pump admissions onto the wires. Doing this last gives every
    //    packet at least one full cycle of queue residency, matching the
    //    submit-then-step order of the in-device bank queues.
    for (Link &link : requestLinks_) {
        pump(link, now);
    }
    for (Link &link : responseLinks_) {
        // Responses carry the full line.
        while (!link.queue.empty() && link.wire.backlog(now) == 0) {
            MemRequest resp = std::move(link.queue.front());
            link.queue.pop_front();
            const uint32_t bytes = cfg_.headerBytes + kLineBytes;
            const Cycle due = link.wire.transfer(now, bytes);
            bytesTransferred_ += bytes;
            link.inFlight.push_back({std::move(resp), due});
        }
    }
}

bool
InterGpuFabric::idle() const
{
    // Every packet is counted once on acceptance and once on delivery
    // (the machine audit checks the pairing against the queues).
    return requestsAccepted_ == requestsDelivered_ &&
        responsesAccepted_ == responsesDelivered_;
}

uint64_t
InterGpuFabric::activityCount() const
{
    return requestsAccepted_ + requestsDelivered_ + responsesAccepted_ +
        responsesDelivered_ + bytesTransferred_;
}

Cycle
InterGpuFabric::nextEventCycle(Cycle now) const
{
    if (idle()) {
        return kNeverCycle;
    }
    // A landed request waits on a bank slot, which has no known time:
    // wake the next cycle. A queued packet waits for its wire to clear,
    // which pump() tests as backlog() == 0; waking one cycle before the
    // booked backlog runs out keeps float truncation from ever making
    // the wake late. Wires deliver in FIFO order, so each link's front
    // is its earliest delivery.
    Cycle wake = kNeverCycle;
    for (const std::vector<Link> *links : {&requestLinks_, &responseLinks_}) {
        for (const Link &link : *links) {
            if (!link.landed.empty()) {
                return now + 1;
            }
            if (!link.queue.empty()) {
                const Cycle backlog = link.wire.backlog(now);
                wake = std::min(wake, now + (backlog > 1 ? backlog - 1 : 1));
            }
            if (!link.inFlight.empty()) {
                wake = std::min(wake, link.inFlight.front().dueAt);
            }
        }
    }
    return wake == kNeverCycle ? wake : std::max(wake, now + 1);
}

uint64_t
InterGpuFabric::readsInFlight() const
{
    uint64_t n = responsesInFlight();
    forEachPacket(requestLinks_,
                  [&](const MemRequest &req) { n += !req.write; });
    return n;
}

bool
InterGpuFabric::lineInFlightFor(uint32_t device, uint32_t sm,
                                Addr line) const
{
    bool found = false;
    auto match = [&](const MemRequest &req) {
        found |= req.srcDevice == device && req.smId == sm &&
            req.line == line && !req.write;
    };
    forEachPacket(requestLinks_, match);
    forEachPacket(responseLinks_, match);
    // Delivered to the owner: queued, merged or answering in its L2. The
    // L2 keys requesters by SM id alone, so a same-numbered SM of a
    // third device can mask a leak here, never invent one.
    for (uint32_t peer = 0; peer < numDevices_ && !found; ++peer) {
        found = peer != device && devices_[peer] != nullptr &&
            devices_[peer]->l2().lineInFlightFor(sm, line);
    }
    return found;
}

uint64_t
InterGpuFabric::requestsInFlight() const
{
    uint64_t n = 0;
    for (const Link &link : requestLinks_) {
        n += link.queue.size() + link.inFlight.size() +
            link.landed.size();
    }
    return n;
}

uint64_t
InterGpuFabric::responsesInFlight() const
{
    uint64_t n = 0;
    for (const Link &link : responseLinks_) {
        n += link.queue.size() + link.inFlight.size();
    }
    return n;
}

void
InterGpuFabric::countInFlightByStream(
    SmallFlatMap<StreamId, uint64_t> &out) const
{
    forEachPacket(requestLinks_,
                  [&](const MemRequest &req) { out[req.stream]++; });
}

double
InterGpuFabric::totalBusyCycles() const
{
    double busy = 0.0;
    for (const Link &link : requestLinks_) {
        busy += link.wire.busyCycles();
    }
    for (const Link &link : responseLinks_) {
        busy += link.wire.busyCycles();
    }
    return busy;
}

} // namespace mgpu
} // namespace crisp
