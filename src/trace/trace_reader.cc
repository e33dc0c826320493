#include "trace/trace_reader.hh"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace pmtest
{

namespace
{

void
setError(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
}

/** Load a little-endian scalar from a validated offset. */
template <typename T>
T
load(const uint8_t *data, size_t offset)
{
    T value;
    std::memcpy(&value, data + offset, sizeof(T));
    return value;
}

} // namespace

std::unique_ptr<TraceFileReader>
TraceFileReader::open(const std::string &path, IngestMode mode,
                      std::string *error)
{
    std::unique_ptr<TraceFileReader> reader(new TraceFileReader());

    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        setError(error, path + (mode == IngestMode::Mmap
                                    ? ": cannot mmap"
                                    : ": cannot open"));
        return nullptr;
    }
    struct stat st{};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
        void *map = ::mmap(nullptr, static_cast<size_t>(st.st_size),
                           PROT_READ, MAP_PRIVATE, fd, 0);
        if (map != MAP_FAILED) {
            reader->data_ = static_cast<const uint8_t *>(map);
            reader->size_ = static_cast<size_t>(st.st_size);
            reader->mmapped_ = true;
        }
    }
    if (!reader->mmapped_ && mode == IngestMode::Mmap) {
        ::close(fd);
        setError(error, path + ": cannot mmap");
        return nullptr;
    }

    if (!reader->mmapped_) {
        // read() fallback: one buffered copy, read to EOF from the
        // descriptor already open, so unseekable inputs (pipes, FIFOs)
        // work too. Slower and not zero-copy, but the index/decode
        // machinery is identical.
        constexpr size_t kChunk = 1 << 16;
        std::vector<uint8_t> &buf = reader->buffer_;
        size_t used = 0;
        for (;;) {
            buf.resize(used + kChunk);
            const ssize_t got = ::read(fd, buf.data() + used, kChunk);
            if (got < 0 && errno == EINTR)
                continue;
            if (got < 0) {
                ::close(fd);
                setError(error, path + ": short read");
                return nullptr;
            }
            if (got == 0)
                break;
            used += static_cast<size_t>(got);
        }
        buf.resize(used);
        buf.shrink_to_fit();
        reader->data_ = buf.data();
        reader->size_ = buf.size();
    }
    ::close(fd);

    if (!reader->validate(error)) {
        if (error)
            *error = path + ": " + *error;
        return nullptr;
    }
    return reader;
}

TraceFileReader::~TraceFileReader()
{
    if (mmapped_ && data_)
        ::munmap(const_cast<uint8_t *>(data_), size_);
}

bool
TraceFileReader::validate(std::string *error)
{
    constexpr size_t header = TraceWire::kHeaderBytes;
    constexpr size_t footer = TraceWire::kFooterBytes;
    constexpr size_t entry = TraceWire::kIndexEntryBytes;

    if (size_ < header) {
        setError(error, "not a v2 trace file (too small)");
        return false;
    }
    if (load<uint64_t>(data_, 0) != TraceWire::kMagic) {
        setError(error, "not a PMTest trace file (bad magic)");
        return false;
    }
    const uint32_t version = load<uint32_t>(data_, 8);
    if (version == 1) {
        setError(error, "v1 trace file: format v1 is no longer "
                        "supported; re-record it as v2");
        return false;
    }
    if (version != TraceWire::kVersion) {
        setError(error, "unsupported trace format version " +
                            std::to_string(version));
        return false;
    }
    if (size_ < header + footer) {
        setError(error, "not a v2 trace file (too small)");
        return false;
    }
    const uint32_t count = load<uint32_t>(data_, 12);

    // Footer tail: index_offset u64, crc u32, count u32, magic u64.
    const size_t tail = size_ - footer;
    if (load<uint64_t>(data_, tail + 16) != TraceWire::kFooterMagic) {
        setError(error, "corrupt footer (bad index magic)");
        return false;
    }
    const uint64_t index_offset = load<uint64_t>(data_, tail);
    const uint32_t index_crc = load<uint32_t>(data_, tail + 8);
    const uint32_t index_count = load<uint32_t>(data_, tail + 12);
    if (index_count != count) {
        setError(error, "corrupt footer (trace count mismatch)");
        return false;
    }
    // Exact size accounting: header + frames + index + footer must
    // tile the file with no slack, so truncation or appended junk is
    // always caught.
    const uint64_t index_bytes = uint64_t{count} * entry;
    if (index_offset < header || index_bytes > size_ ||
        index_offset != size_ - footer - index_bytes) {
        setError(error, "corrupt footer (index offset out of range)");
        return false;
    }
    if (crc32(data_ + index_offset, static_cast<size_t>(index_bytes)) !=
        index_crc) {
        setError(error, "corrupt index (CRC mismatch)");
        return false;
    }
    indexOffset_ = index_offset;

    // Frames must chain exactly: entry i's frame ends where entry
    // i+1 begins, and the last frame ends at the index.
    index_.reserve(count);
    uint64_t expected = header;
    for (uint32_t i = 0; i < count; i++) {
        const size_t at = static_cast<size_t>(index_offset) + i * entry;
        IndexEntry e;
        e.offset = load<uint64_t>(data_, at);
        e.opCount = load<uint32_t>(data_, at + 8);
        e.threadId = load<uint32_t>(data_, at + 12);
        if (e.offset != expected ||
            e.offset + sizeof(uint64_t) > index_offset) {
            setError(error, "corrupt index (frame offsets do not "
                            "chain)");
            index_.clear();
            return false;
        }
        const uint64_t frame_len =
            load<uint64_t>(data_, static_cast<size_t>(e.offset));
        if (frame_len > index_offset - e.offset - sizeof(uint64_t)) {
            setError(error, "corrupt frame (length exceeds index)");
            index_.clear();
            return false;
        }
        expected = e.offset + sizeof(uint64_t) + frame_len;
        index_.push_back(e);
    }
    if (expected != index_offset) {
        setError(error, "corrupt index (frames do not reach the "
                        "index)");
        index_.clear();
        return false;
    }
    return true;
}

uint64_t
TraceFileReader::totalOps() const
{
    uint64_t total = 0;
    for (const auto &e : index_)
        total += e.opCount;
    return total;
}

bool
TraceFileReader::openTrace(
    size_t i, OpCursor *cursor,
    std::shared_ptr<std::deque<std::string>> *strings) const
{
    if (i >= index_.size())
        return false;
    const IndexEntry &e = index_[i];
    const size_t offset = static_cast<size_t>(e.offset);
    const uint64_t frame_len = load<uint64_t>(data_, offset);

    *strings = std::make_shared<std::deque<std::string>>();
    // Cross-check the body against the index: a mismatch means the
    // frame and the footer disagree — treat as corruption.
    return openTraceBody(data_ + offset + sizeof(uint64_t),
                         static_cast<size_t>(frame_len), cursor,
                         strings->get()) &&
           cursor->opCount() == e.opCount &&
           cursor->threadId() == e.threadId;
}

bool
TraceFileReader::decode(size_t i, DecodedTrace *out) const
{
    OpCursor cursor;
    if (!openTrace(i, &cursor, &out->strings) ||
        !cursor.decodeAll(&out->trace)) {
        return false;
    }
    // The trace co-owns its string arena, so a Report holding the
    // trace's arena stays valid after this reader is destroyed.
    out->trace.setArena(out->strings);
    return true;
}

} // namespace pmtest
