#include "workloads/clients.hh"

#include <atomic>

#include "baseline/pmemcheck.hh"
#include "util/random.hh"

namespace pmtest::workloads
{

namespace
{

std::string
keyFor(uint64_t index)
{
    return "key-" + std::to_string(index);
}

std::string
valueOf(size_t size, uint64_t salt)
{
    std::string v(size, 'v');
    for (size_t i = 0; i < v.size(); i++)
        v[i] = static_cast<char>('a' + ((salt + i) % 26));
    return v;
}

} // namespace

uint64_t
simulateRequestWork(const void *payload, size_t size, size_t rounds)
{
    // FNV-1a over the payload, `rounds` times; the result is returned
    // so the optimizer cannot elide the loop.
    uint64_t h = 0xcbf29ce484222325ULL;
    const auto *bytes = static_cast<const uint8_t *>(payload);
    for (size_t r = 0; r < rounds; r++) {
        for (size_t i = 0; i < size; i++) {
            h ^= bytes[i];
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

namespace
{

/** Per-op request-processing sink; every client thread stores. */
std::atomic<uint64_t> g_request_sink;

void
requestWork(const ClientConfig &config, const std::string &payload)
{
    if (config.requestWork == 0)
        return;
    size_t rounds = config.requestWork;
    if (baseline::dbiActive()) {
        // Under the pmemcheck stand-in, model Valgrind's whole-
        // program instrumentation tax on the non-PM compute.
        rounds *= baseline::dbiSlowdownFactor();
    }
    g_request_sink.store(
        simulateRequestWork(payload.data(), payload.size(), rounds),
        std::memory_order_relaxed);
}

} // namespace

void
runMemslapClient(MemcachedLite &server, const ClientConfig &config)
{
    Rng rng(config.seed);
    std::string out;
    for (size_t i = 0; i < config.ops; i++) {
        const uint64_t k = rng.below(config.keySpace);
        if (rng.chance(5, 100)) {
            const std::string value = valueOf(config.valueSize, k + i);
            requestWork(config, value);
            server.set(keyFor(k), value);
        } else {
            server.get(keyFor(k), &out);
            requestWork(config, out);
        }
    }
}

void
runYcsbClient(MemcachedLite &server, const ClientConfig &config)
{
    Rng rng(config.seed);
    std::string out;
    for (size_t i = 0; i < config.ops; i++) {
        const uint64_t k = rng.below(config.keySpace);
        if (rng.chance(50, 100)) {
            const std::string value = valueOf(config.valueSize, k + i);
            requestWork(config, value);
            server.set(keyFor(k), value);
        } else {
            server.get(keyFor(k), &out);
            requestWork(config, out);
        }
    }
}

void
runRedisLruClient(RedisLite &server, const ClientConfig &config)
{
    Rng rng(config.seed);
    std::string out;
    for (size_t i = 0; i < config.ops; i++) {
        const uint64_t k = rng.below(config.keySpace);
        if (rng.chance(80, 100)) {
            const std::string value = valueOf(config.valueSize, k + i);
            requestWork(config, value);
            server.set(keyFor(k), value);
        } else {
            server.get(keyFor(k), &out);
            requestWork(config, out);
        }
    }
}

void
runFilebenchClient(pmfs::Pmfs &fs, const ClientConfig &config,
                   uint32_t client_id)
{
    Rng rng(config.seed + client_id);
    const std::string prefix =
        "c" + std::to_string(client_id) + "-f";
    const std::string payload = valueOf(config.valueSize, client_id);
    std::vector<char> buf(config.valueSize);

    // File-server mix: 30% create+write, 40% read, 20% append,
    // 10% delete, over a bounded working set of files per client.
    const size_t working_set = 16;
    for (size_t i = 0; i < config.ops; i++) {
        requestWork(config, payload);
        const std::string name =
            prefix + std::to_string(rng.below(working_set));
        const uint64_t dice = rng.below(100);
        int ino = fs.lookup(name);
        if (dice < 30) {
            if (ino < 0)
                ino = fs.create(name);
            if (ino >= 0)
                fs.write(ino, 0, payload.data(), payload.size());
        } else if (dice < 70) {
            if (ino >= 0)
                fs.read(ino, 0, buf.data(), buf.size());
        } else if (dice < 90) {
            if (ino >= 0) {
                const uint64_t size = fs.fileSize(ino);
                if (size + payload.size() <=
                    pmfs::kDirectBlocks * pmfs::kBlockSize) {
                    fs.write(ino, size, payload.data(),
                             payload.size());
                }
            }
        } else {
            if (ino >= 0)
                fs.unlink(name);
        }
    }
}

void
runOltpClient(pmfs::Pmfs &fs, const ClientConfig &config,
              uint32_t client_id)
{
    // One table file per client; records are fixed-size rows that get
    // read-modify-written in place (OLTP-complex style).
    Rng rng(config.seed + client_id);
    const std::string table = "table-" + std::to_string(client_id);
    int ino = fs.lookup(table);
    if (ino < 0)
        ino = fs.create(table);

    constexpr size_t kRecord = 128;
    const size_t n_records =
        pmfs::kDirectBlocks * pmfs::kBlockSize / kRecord;
    std::vector<char> record(kRecord, 0);

    // Seed the table.
    for (size_t r = 0; r < n_records; r++)
        fs.write(ino, r * kRecord, record.data(), kRecord);

    for (size_t i = 0; i < config.ops; i++) {
        requestWork(config,
                    std::string(record.begin(), record.end()));
        const uint64_t r = rng.below(n_records);
        fs.read(ino, r * kRecord, record.data(), kRecord);
        record[rng.below(kRecord)] =
            static_cast<char>(rng.below(256));
        fs.write(ino, r * kRecord, record.data(), kRecord);
    }
}

} // namespace pmtest::workloads
