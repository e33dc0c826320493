#include "trace/trace_source.hh"

#include <algorithm>

#include "obs/telemetry.hh"
#include "util/clock.hh"

namespace pmtest
{

std::string
SourceError::str() const
{
    return file + ": trace #" + std::to_string(traceIndex) + ": " +
           message;
}

PmOp *
TraceConsumer::window()
{
    if (window_.empty())
        window_.resize(kWindowOps);
    return window_.data();
}

// ---------------------------------------------------------------------------
// V2FileSource
// ---------------------------------------------------------------------------

V2FileSource::V2FileSource(
    std::shared_ptr<const TraceFileReader> reader, std::string path,
    uint32_t file_id)
    : V2FileSource(std::move(reader), std::move(path), file_id, 0, 0,
                   0, 1)
{
    end_ = reader_->traceCount();
    cursor_.store(begin_, std::memory_order_relaxed);
}

V2FileSource::V2FileSource(
    std::shared_ptr<const TraceFileReader> reader, std::string path,
    uint32_t file_id, size_t begin, size_t end, size_t shard,
    size_t shards)
    : reader_(std::move(reader)), path_(std::move(path)),
      fileId_(file_id), begin_(begin), end_(end), cursor_(begin)
{
    name_ = path_;
    if (shards > 1) {
        name_ += "[" + std::to_string(shard + 1) + "/" +
                 std::to_string(shards) + "]";
    }
}

uint64_t
V2FileSource::totalOps() const
{
    uint64_t total = 0;
    for (size_t i = begin_; i < end_; i++)
        total += reader_->opCount(i);
    return total;
}

uint64_t
V2FileSource::sizeBytes() const
{
    // A whole-file source accounts the full mapping (header, index
    // and footer included); a shard accounts only its frame bytes,
    // so sibling shards sum to less than one double-counted file.
    if (begin_ == 0 && end_ == reader_->traceCount())
        return reader_->sizeBytes();
    uint64_t total = 0;
    for (size_t i = begin_; i < end_; i++)
        total += reader_->frameBytes(i);
    return total;
}

void
V2FileSource::decodeError(size_t index, SourceError *error) const
{
    if (error) {
        error->file = path_;
        error->traceIndex = index;
        error->message = "corrupt trace body (decode failed)";
    }
}

void
V2FileSource::consumed(size_t index)
{
    consumedTraces_.fetch_add(1, std::memory_order_relaxed);
    consumedBytes_.fetch_add(reader_->frameBytes(index),
                             std::memory_order_relaxed);
}

TraceSource::Pull
V2FileSource::pull(size_t max, std::vector<Trace> *out,
                   SourceError *error)
{
    if (max == 0)
        return Pull::Items;
    const size_t first =
        cursor_.fetch_add(max, std::memory_order_relaxed);
    if (first >= end_)
        return Pull::End;
    const size_t last = std::min(end_, first + max);
    for (size_t i = first; i < last; i++) {
        DecodedTrace decoded;
        if (!reader_->decode(i, &decoded)) {
            decodeError(i, error);
            return Pull::Error;
        }
        decoded.trace.setFileId(fileId_);
        out->push_back(std::move(decoded.trace));
        consumed(i);
    }
    return Pull::Items;
}

TraceSource::Pull
V2FileSource::checkNext(TraceConsumer &consumer, SourceError *error)
{
    const size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= end_)
        return Pull::End;
    Timer timer;
    OpCursor ops;
    std::shared_ptr<std::deque<std::string>> strings;
    if (!reader_->openTrace(i, &ops, &strings)) {
        decodeError(i, error);
        return Pull::Error;
    }
    consumer.begin(ops.traceId(), fileId_);
    PmOp *window = consumer.window();
    while (ops.remaining() > 0) {
        size_t count;
        {
            obs::SpanScope span(obs::Stage::IngestDecode);
            if (!ops.next(window, TraceConsumer::kWindowOps, &count)) {
                decodeError(i, error);
                return Pull::Error;
            }
        }
        consumer.addDecodeNanos(timer.elapsedNs());
        consumer.feed(window, count);
        timer.reset();
    }
    consumer.addDecodeNanos(timer.elapsedNs());
    consumer.finish(std::move(strings));
    consumed(i);
    return Pull::Items;
}

// ---------------------------------------------------------------------------
// CaptureTraceSource
// ---------------------------------------------------------------------------

CaptureTraceSource::CaptureTraceSource(std::string name,
                                       uint32_t file_id)
    : name_(std::move(name)), fileId_(file_id)
{
}

void
CaptureTraceSource::push(Trace &&trace)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        trace.setFileId(fileId_);
        queue_.push_back(std::move(trace));
    }
    cv_.notify_one();
}

void
CaptureTraceSource::close()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    cv_.notify_all();
}

std::function<void(Trace &&)>
CaptureTraceSource::sink()
{
    return [this](Trace &&trace) { push(std::move(trace)); };
}

TraceSource::Pull
CaptureTraceSource::pull(size_t max, std::vector<Trace> *out,
                         SourceError *)
{
    if (max == 0)
        return Pull::Items;
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return head_ < queue_.size() || closed_; });
    if (head_ == queue_.size())
        return Pull::End; // closed and drained
    const size_t last = std::min(queue_.size(), head_ + max);
    pulled_ += last - head_;
    for (; head_ < last; head_++)
        out->push_back(std::move(queue_[head_]));
    if (head_ == queue_.size()) {
        // Fully drained: reclaim the moved-out prefix so a
        // long-running capture does not accumulate dead traces.
        queue_.clear();
        head_ = 0;
    }
    return Pull::Items;
}

TraceSource::Pull
CaptureTraceSource::checkNext(TraceConsumer &consumer, SourceError *error)
{
    std::vector<Trace> one;
    const Pull result = pull(1, &one, error);
    if (result == Pull::Items)
        consumer.consume(one.front());
    return result;
}

uint64_t
CaptureTraceSource::consumedTraces() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pulled_;
}

// ---------------------------------------------------------------------------
// MultiTraceSource
// ---------------------------------------------------------------------------

MultiTraceSource::MultiTraceSource(
    std::vector<std::unique_ptr<TraceSource>> children)
    : children_(std::move(children))
{
    name_ = "<" + std::to_string(children_.size()) + " sources>";
}

size_t
MultiTraceSource::traceCount() const
{
    size_t total = 0;
    for (const auto &c : children_) {
        if (c->traceCount() == kUnknownCount)
            return kUnknownCount;
        total += c->traceCount();
    }
    return total;
}

uint64_t
MultiTraceSource::totalOps() const
{
    uint64_t total = 0;
    for (const auto &c : children_)
        total += c->totalOps();
    return total;
}

uint64_t
MultiTraceSource::sizeBytes() const
{
    uint64_t total = 0;
    for (const auto &c : children_)
        total += c->sizeBytes();
    return total;
}

bool
MultiTraceSource::mmapBacked() const
{
    for (const auto &c : children_) {
        if (!c->mmapBacked())
            return false;
    }
    return !children_.empty();
}

size_t
MultiTraceSource::sourceCount() const
{
    size_t total = 0;
    for (const auto &c : children_)
        total += c->sourceCount();
    return total;
}

uint64_t
MultiTraceSource::consumedTraces() const
{
    uint64_t total = 0;
    for (const auto &c : children_)
        total += c->consumedTraces();
    return total;
}

uint64_t
MultiTraceSource::consumedBytes() const
{
    uint64_t total = 0;
    for (const auto &c : children_)
        total += c->consumedBytes();
    return total;
}

template <typename Call>
TraceSource::Pull
MultiTraceSource::route(const Call &call)
{
    size_t i = current_.load(std::memory_order_acquire);
    while (i < children_.size()) {
        const Pull result = call(*children_[i]);
        if (result != Pull::End)
            return result;
        // This child is exhausted: advance the shared cursor past it
        // (first caller to notice wins; losers just reload) and keep
        // claiming from the next one.
        current_.compare_exchange_strong(i, i + 1,
                                         std::memory_order_acq_rel);
        i = current_.load(std::memory_order_acquire);
    }
    return Pull::End;
}

TraceSource::Pull
MultiTraceSource::pull(size_t max, std::vector<Trace> *out,
                       SourceError *error)
{
    return route([&](TraceSource &child) {
        return child.pull(max, out, error);
    });
}

TraceSource::Pull
MultiTraceSource::checkNext(TraceConsumer &consumer, SourceError *error)
{
    return route([&](TraceSource &child) {
        return child.checkNext(consumer, error);
    });
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

std::unique_ptr<TraceSource>
openTraceSource(const std::string &path, IngestMode mode,
                uint32_t file_id, std::string *error)
{
    obs::SpanScope span(obs::Stage::SourceOpen);

    auto reader = TraceFileReader::open(path, mode, error);
    if (!reader)
        return nullptr;
    return std::make_unique<V2FileSource>(
        std::shared_ptr<const TraceFileReader>(std::move(reader)), path,
        file_id);
}

std::vector<std::unique_ptr<TraceSource>>
shardTraceSource(std::shared_ptr<const TraceFileReader> reader,
                 const std::string &path, uint32_t file_id,
                 size_t shards)
{
    const size_t count = reader->traceCount();
    const size_t n =
        std::max<size_t>(1, std::min(shards, std::max<size_t>(count, 1)));

    uint64_t total_bytes = 0;
    for (size_t i = 0; i < count; i++)
        total_bytes += reader->frameBytes(i);

    // Byte-balanced contiguous partition: shard s ends where the
    // cumulative frame bytes first reach s+1 shares of the total, so
    // a file of one huge trace and many small ones still splits into
    // comparable decode workloads.
    std::vector<std::unique_ptr<TraceSource>> out;
    out.reserve(n);
    size_t begin = 0;
    uint64_t cum = 0;
    for (size_t s = 0; s < n; s++) {
        size_t end = begin;
        if (s + 1 == n) {
            end = count;
        } else {
            const uint64_t target = total_bytes * (s + 1) / n;
            while (end < count && (cum < target || end == begin)) {
                cum += reader->frameBytes(end);
                end++;
            }
            // Leave at least one trace per remaining shard.
            const size_t remaining_shards = n - s - 1;
            end = std::min(end, count - remaining_shards);
            end = std::max(end, begin);
        }
        out.push_back(std::make_unique<V2FileSource>(
            reader, path, file_id, begin, end, s, n));
        begin = end;
    }
    return out;
}

} // namespace pmtest
