#include "trace/trace_source.hh"

#include <algorithm>
#include <tuple>

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
// ClaimSchedule
// ---------------------------------------------------------------------------

ClaimSchedule::ClaimSchedule(std::vector<Entry> entries)
    : entries_(std::move(entries))
{
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.ops != b.ops)
                      return a.ops > b.ops;
                  return std::tie(a.fileId, a.index) <
                         std::tie(b.fileId, b.index);
              });
}

const ClaimSchedule::Entry *
ClaimSchedule::claim()
{
    // A spent schedule is read, not bumped: the claims after it cost
    // no contended write.
    if (next_.load(std::memory_order_relaxed) >= entries_.size())
        return nullptr;
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    return i < entries_.size() ? &entries_[i] : nullptr;
}

// ---------------------------------------------------------------------------
// V2FileSource
// ---------------------------------------------------------------------------

namespace
{

/** The long traces in @p reader's index, as entries of @p source. */
std::vector<ClaimSchedule::Entry>
longTraces(const TraceFileReader &reader, uint32_t file_id,
           V2FileSource *source)
{
    std::vector<ClaimSchedule::Entry> entries;
    for (size_t i = 0; i < reader.traceCount(); i++) {
        if (ClaimSchedule::isLong(reader.opCount(i)))
            entries.push_back({reader.opCount(i), file_id, i, source});
    }
    return entries;
}

} // namespace

V2FileSource::V2FileSource(
    std::unique_ptr<const TraceFileReader> reader, std::string path,
    uint32_t file_id)
    : reader_(std::move(reader)), path_(std::move(path)),
      fileId_(file_id), schedule_(longTraces(*reader_, file_id, this))
{
}

uint64_t
V2FileSource::totalOps() const
{
    uint64_t total = 0;
    for (size_t i = 0; i < reader_->traceCount(); i++)
        total += reader_->opCount(i);
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
    const size_t count = reader_->traceCount();
    const size_t first =
        cursor_.fetch_add(max, std::memory_order_relaxed);
    if (first >= count)
        return Pull::End;
    const size_t last = std::min(count, first + max);
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
    if (const ClaimSchedule::Entry *entry = schedule_.claim())
        return checkTrace(entry->index, consumer, error);
    // The short traces in index order; the long ones belong to the
    // schedule (this file's, or a file set's that took them).
    const size_t count = reader_->traceCount();
    size_t i;
    do {
        i = cursor_.fetch_add(1, std::memory_order_relaxed);
        if (i >= count)
            return Pull::End;
    } while (ClaimSchedule::isLong(reader_->opCount(i)));
    return checkTrace(i, consumer, error);
}

TraceSource::Pull
V2FileSource::checkTrace(size_t i, TraceConsumer &consumer,
                         SourceError *error)
{
    Timer timer;
    OpCursor ops;
    std::shared_ptr<std::deque<std::string>> strings;
    if (!reader_->openTrace(i, &ops, &strings)) {
        decodeError(i, error);
        return Pull::Error;
    }
    consumer.begin(ops.traceId(), fileId_, i);
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
    uint64_t first;
    return claim(max, out, &first);
}

TraceSource::Pull
CaptureTraceSource::claim(size_t max, std::vector<Trace> *out,
                          uint64_t *first)
{
    if (max == 0)
        return Pull::Items;
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return head_ < queue_.size() || closed_; });
    if (head_ == queue_.size())
        return Pull::End; // closed and drained
    const size_t last = std::min(queue_.size(), head_ + max);
    *first = pulled_;
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
CaptureTraceSource::checkNext(TraceConsumer &consumer, SourceError *)
{
    std::vector<Trace> one;
    uint64_t index;
    const Pull result = claim(1, &one, &index);
    if (result == Pull::Items)
        consumer.consume(one.front(), index);
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

namespace
{

/** Every child's long traces, taken for one merged schedule. */
std::vector<ClaimSchedule::Entry>
mergeLongTraces(
    const std::vector<std::unique_ptr<TraceSource>> &children)
{
    std::vector<ClaimSchedule::Entry> entries;
    for (const auto &child : children) {
        std::vector<ClaimSchedule::Entry> own = child->takeLongTraces();
        entries.insert(entries.end(), own.begin(), own.end());
    }
    return entries;
}

} // namespace

MultiTraceSource::MultiTraceSource(
    std::vector<std::unique_ptr<TraceSource>> children)
    : children_(std::move(children)),
      schedule_(mergeLongTraces(children_))
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
    if (const ClaimSchedule::Entry *entry = schedule_.claim())
        return entry->source->checkTrace(entry->index, consumer, error);
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
    return std::make_unique<V2FileSource>(std::move(reader), path,
                                          file_id);
}

} // namespace pmtest
