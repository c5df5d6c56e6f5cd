#include "serve/queue.hh"

#include "common/logging.hh"

namespace rpu {
namespace serve {

const char *
submitStatusName(SubmitStatus s)
{
    switch (s) {
      case SubmitStatus::Accepted:
        return "accepted";
      case SubmitStatus::RejectedFull:
        return "rejected-full";
      case SubmitStatus::RejectedShutdown:
        return "rejected-shutdown";
      case SubmitStatus::RejectedInvalid:
        return "rejected-invalid";
    }
    return "?";
}

BoundedRequestQueue::BoundedRequestQueue(size_t capacity)
    : capacity_(capacity)
{
    rpu_assert(capacity >= 1, "queue needs capacity >= 1");
}

SubmitStatus
BoundedRequestQueue::push(ServeRequest &req)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_)
        return SubmitStatus::RejectedShutdown;
    if (size_ >= capacity_)
        return SubmitStatus::RejectedFull;

    Lane *lane = nullptr;
    for (Lane &l : lanes_) {
        if (l.tenant == req.tenant) {
            lane = &l;
            break;
        }
    }
    if (!lane) {
        lanes_.push_back(Lane{req.tenant, {}});
        lane = &lanes_.back();
    }
    lane->q.push_back(std::move(req));
    ++size_;
    ready_.notify_one();
    return SubmitStatus::Accepted;
}

std::vector<ServeRequest>
BoundedRequestQueue::popBatch(size_t maxBatch, size_t maxPerTenant)
{
    rpu_assert(maxBatch >= 1 && maxPerTenant >= 1,
               "batch bounds must be positive");
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return size_ > 0 || closed_; });
    if (size_ == 0)
        return {}; // closed and drained: the consumer exit signal
    return sweepLocked(maxBatch, maxPerTenant);
}

std::vector<ServeRequest>
BoundedRequestQueue::popBatchFor(
    size_t maxBatch, size_t maxPerTenant,
    std::chrono::steady_clock::duration timeout, bool &closedOut)
{
    rpu_assert(maxBatch >= 1 && maxPerTenant >= 1,
               "batch bounds must be positive");
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait_for(lock, timeout,
                    [&] { return size_ > 0 || closed_; });
    closedOut = closed_ && size_ == 0;
    if (size_ == 0)
        return {};
    return sweepLocked(maxBatch, maxPerTenant);
}

std::vector<ServeRequest>
BoundedRequestQueue::sweepLocked(size_t maxBatch, size_t maxPerTenant)
{
    // One round-robin sweep from the rotating cursor: every lane
    // with pending work is visited exactly once and contributes at
    // most maxPerTenant requests, so no tenant waits more than one
    // batch behind a hog's flood.
    std::vector<ServeRequest> batch;
    const size_t lanes = lanes_.size();
    for (size_t k = 0; k < lanes && batch.size() < maxBatch; ++k) {
        Lane &lane = lanes_[(cursor_ + k) % lanes];
        for (size_t taken = 0; taken < maxPerTenant &&
                               !lane.q.empty() &&
                               batch.size() < maxBatch;
             ++taken) {
            batch.push_back(std::move(lane.q.front()));
            lane.q.pop_front();
            --size_;
        }
    }
    // Rotate the sweep's starting lane so batch priority circulates
    // instead of always favouring the first tenant to ever submit.
    cursor_ = lanes == 0 ? 0 : (cursor_ + 1) % lanes;

    // A producer blocked on a full queue has no wait path (push is
    // non-blocking), but a concurrent popBatch may be waiting for
    // work that another consumer just exposed — and close() needs
    // every consumer awake eventually.
    if (size_ > 0 || closed_)
        ready_.notify_all();
    return batch;
}

void
BoundedRequestQueue::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    ready_.notify_all();
}

size_t
BoundedRequestQueue::depth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return size_;
}

bool
BoundedRequestQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
}

} // namespace serve
} // namespace rpu
