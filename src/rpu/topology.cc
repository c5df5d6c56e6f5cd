#include "rpu/topology.hh"

#include <algorithm>
#include <exception>
#include <thread>

#include "common/logging.hh"

namespace rpu {

RpuTopology::RpuTopology(size_t devices)
{
    rpu_assert(devices >= 1, "topology needs at least one device");
    auto caches = std::make_shared<DeviceCaches>();
    devices_.reserve(devices);
    for (size_t i = 0; i < devices; ++i) {
        devices_.push_back(std::make_shared<RpuDevice>(
            std::make_unique<FunctionalSimBackend>(), caches));
    }
}

std::shared_ptr<RpuTopology>
RpuTopology::adopt(std::vector<std::shared_ptr<RpuDevice>> devices)
{
    rpu_assert(!devices.empty(), "topology needs at least one device");
    for (const auto &d : devices)
        rpu_assert(d != nullptr, "topology device must not be null");
    auto topo = std::shared_ptr<RpuTopology>(new RpuTopology());
    topo->devices_ = std::move(devices);
    return topo;
}

RpuTopology::Snapshot
RpuTopology::snapshot() const
{
    Snapshot snap;
    snap.reserve(devices_.size());
    for (const auto &d : devices_)
        snap.push_back(d->stats());
    return snap;
}

RpuTopology::Snapshot
RpuTopology::since(const Snapshot &before) const
{
    rpu_assert(before.size() == devices_.size(),
               "snapshot spans %zu devices, topology has %zu",
               before.size(), devices_.size());
    Snapshot delta;
    delta.reserve(devices_.size());
    for (size_t i = 0; i < devices_.size(); ++i)
        delta.push_back(devices_[i]->stats() - before[i]);
    return delta;
}

DeviceStats
RpuTopology::aggregate(const Snapshot &snap)
{
    DeviceStats total;
    for (const DeviceStats &s : snap)
        total += s;
    return total;
}

uint64_t
RpuTopology::makespanCycles(const Snapshot &snap)
{
    uint64_t worst = 0;
    for (const DeviceStats &s : snap)
        worst = std::max(worst, s.busyCycleTotal());
    return worst;
}

TowerItems
RpuTopology::dispatch(const std::vector<size_t> &plan, RingOp op,
                      uint64_t n,
                      const std::vector<std::vector<u128>> &moduli,
                      TowerItems a, TowerItems b,
                      const NttCodegenOptions &opts)
{
    DispatchTiles tiles(op, moduli, std::move(a), std::move(b));
    rpu_assert(plan.size() == tiles.groups(),
               "plan covers %zu groups, chain tiles into %zu",
               plan.size(), tiles.groups());

    // Groups per device, in tile order.
    std::vector<std::vector<size_t>> by_device(devices_.size());
    for (size_t g = 0; g < plan.size(); ++g) {
        rpu_assert(plan[g] < devices_.size(),
                   "plan routes to device %zu of %zu", plan[g],
                   devices_.size());
        by_device[plan[g]].push_back(g);
    }
    std::vector<size_t> occupied;
    for (size_t d = 0; d < by_device.size(); ++d) {
        if (!by_device[d].empty())
            occupied.push_back(d);
    }

    // Occupied devices overlap on real threads; the caller's thread
    // runs the first. Every thread is joined before the first failure
    // is rethrown.
    std::vector<std::exception_ptr> errors(occupied.size());
    const auto runDevice = [&](size_t i) {
        try {
            tiles.launch(*devices_[occupied[i]], n,
                         by_device[occupied[i]], opts);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };
    std::vector<std::thread> threads;
    for (size_t i = 1; i < occupied.size(); ++i)
        threads.emplace_back(runDevice, i);
    if (!occupied.empty())
        runDevice(0);
    for (std::thread &t : threads)
        t.join();
    for (const std::exception_ptr &e : errors) {
        if (e)
            std::rethrow_exception(e);
    }
    return tiles.reassemble();
}

DispatchRoute::DispatchRoute(RpuTopology &topology, size_t home,
                             std::vector<StageShape> shapes,
                             std::vector<std::vector<size_t>> plans)
    : topology_(topology), home_(home), shapes_(std::move(shapes)),
      plans_(std::move(plans))
{
    rpu_assert(home_ < topology_.size(), "home device %zu of %zu", home_,
               topology_.size());
    rpu_assert(plans_.size() == shapes_.size(),
               "%zu stage plans for %zu declared stages", plans_.size(),
               shapes_.size());
}

TowerItems
DispatchRoute::dispatch(RingOp op, uint64_t n,
                        const std::vector<std::vector<u128>> &moduli,
                        TowerItems a, TowerItems b)
{
    rpu_assert(next_ < shapes_.size(),
               "batch issued dispatch %zu, declared %zu stages", next_,
               shapes_.size());
    rpu_assert(shapes_[next_].op == op && shapes_[next_].moduli == moduli,
               "dispatch %zu does not match its declared stage shape",
               next_);
    const size_t stage = next_++;
    return topology_.dispatch(plans_[stage], op, n, moduli, std::move(a),
                              std::move(b));
}

} // namespace rpu
