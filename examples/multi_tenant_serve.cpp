/**
 * @file
 * Multi-tenant serving tour: four tenants, one RPU, cross-tenant
 * batching.
 *
 * Each tenant opens a Session — its own CKKS parameter set, keys,
 * and deterministic randomness derived from the tenant id — and
 * submits encrypt -> multiply -> rescale -> decrypt requests to the
 * shared HeServer. The server admits them through a bounded queue
 * with per-tenant fairness lanes, coalesces compatible requests from
 * *different tenants* into shared device dispatches, and splits the
 * device's counter deltas back into per-tenant ledgers.
 *
 * The walk-through shows the three serving claims on live output:
 * responses equal the per-tenant serial reference exactly, the
 * device ledger records far fewer launches than serial execution
 * would pay, and a full queue rejects with a status instead of
 * blocking.
 *
 * Build & run:   ./build/examples/multi_tenant_serve
 */

#include <cstdio>
#include <vector>

#include "rpu/device.hh"
#include "serve/server.hh"

using namespace rpu;
using serve::HeServer;
using serve::RequestOp;
using serve::ServeConfig;
using serve::ServeResponse;
using serve::Session;
using serve::SubmitStatus;

using Cplx = std::complex<double>;

int
main()
{
    // 1. One device, one server, four tenants with identical
    //    parameter sets (equal parameters => equal kernel class =>
    //    their launches can merge).
    CkksParams params;
    params.n = 1024;
    params.towers = 3;
    params.towerBits = 45;

    ServeConfig cfg;
    cfg.queueCapacity = 32;
    cfg.maxPerTenant = 2; // fairness: per tenant, per dispatch batch
    cfg.maxCoalesce = 8;
    cfg.startPaused = true; // queue first, dispatch later (for demo)

    auto device = std::make_shared<RpuDevice>();
    HeServer server(cfg, device);
    for (uint64_t id = 1; id <= 4; ++id)
        server.addTenant({id, params, 30});
    server.prewarm();
    std::printf("4 tenants on one RPU, kernel class %s...\n",
                server.tenant(1)->kernelClass().substr(0, 24).c_str());

    // 2. Every tenant submits two multiply-rescale requests. The
    //    paused server queues them all, so the dispatcher sees the
    //    full cross-tenant batch at once.
    struct Issued
    {
        uint64_t tenant, seq;
        std::vector<Cplx> a, b;
        std::future<ServeResponse> response;
    };
    std::vector<Issued> issued;
    for (uint64_t seq = 0; seq < 2; ++seq) {
        for (uint64_t id = 1; id <= 4; ++id) {
            Issued r;
            r.tenant = id;
            r.seq = seq;
            r.a = {Cplx(0.25 * double(id), -0.5), Cplx(1.5, 0.125)};
            r.b = {Cplx(2.0, 0.0), Cplx(0.5, double(seq))};
            auto sub = server.submit(id, RequestOp::MulPlainRescale,
                                     r.a, r.b);
            if (sub.status != SubmitStatus::Accepted)
                return 1;
            r.response = std::move(sub.response);
            issued.push_back(std::move(r));
        }
    }

    const DeviceStats before = device->stats();
    server.start();
    server.shutdown(); // graceful drain: every future resolves
    const DeviceStats window = device->statsSince(before);

    // 3. Responses are bit-identical to running each tenant alone —
    //    cross-tenant batching is invisible to tenants. The serial
    //    reruns go through the same device, so its ledger measures
    //    what serial execution pays.
    const DeviceStats serial_before = device->stats();
    for (auto &r : issued) {
        const ServeResponse resp = r.response.get();
        const Session *sess = server.tenant(r.tenant);
        if (resp.values !=
            sess->runSerial(RequestOp::MulPlainRescale, r.a, r.b, r.seq))
            return 1;
        if (r.tenant == 1)
            std::printf("tenant %llu seq %llu: chunk of %zu, "
                        "(%.3f, %.3f) ~ expected (%.3f, %.3f)\n",
                        (unsigned long long)r.tenant,
                        (unsigned long long)r.seq, resp.chunkRequests,
                        resp.values[0].real(), resp.values[0].imag(),
                        (r.a[0] * r.b[0]).real(),
                        (r.a[0] * r.b[0]).imag());
    }

    const DeviceStats serial = device->statsSince(serial_before);

    // 4. The ledger: the coalesced window against the serial reruns.
    std::printf("\ndevice window: %llu launches for 8 requests "
                "(serial execution pays %llu)\n",
                (unsigned long long)window.launches,
                (unsigned long long)serial.launches);
    for (uint64_t id = 1; id <= 4; ++id) {
        const auto acct = server.tenant(id)->accounting();
        std::printf("  tenant %llu: %llu completed, %llu coalesced, "
                    "%.2f launch share, %.0f cycle share\n",
                    (unsigned long long)id,
                    (unsigned long long)acct.completed,
                    (unsigned long long)acct.coalesced,
                    acct.launchShare, acct.cycleShare);
    }

    // 5. Backpressure: submits past the queue bound reject with a
    //    status instead of blocking the caller (the server is shut
    //    down, so this one reports the drain).
    auto late = server.submit(1, RequestOp::MulPlainRescale,
                              issued[0].a, issued[0].b);
    std::printf("\nsubmit after shutdown: %s\n",
                serve::submitStatusName(late.status));
    return 0;
}
