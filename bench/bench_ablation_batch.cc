/**
 * @file
 * Ablation A3: trace batching granularity. PMTest_SEND_TRACE lets the
 * programmer divide the program into independent sections (paper
 * §4.2, "for better testing speed"). This harness emits the same
 * synthetic transaction stream and seals a trace every K
 * transactions, sweeping K: tiny traces pay dispatch overhead per
 * trace, huge traces serialize poorly against the worker pool and
 * grow the shadow memory.
 */

#include "bench/bench_util.hh"
#include "core/api.hh"
#include "util/clock.hh"

namespace
{

using namespace pmtest;

/** One synthetic transaction: undo-log-shaped op pattern. */
void
emitTransaction(uint8_t *heap, size_t tx_index)
{
    uint8_t *log = heap + (tx_index % 64) * 256;
    uint8_t *data = heap + 64 * 256 + (tx_index % 64) * 256;
    uint8_t bytes[128] = {};

    pmTxBegin();
    pmTxAdd(data, 128);
    pmStore(log, bytes, 128, PMTEST_HERE);
    pmClwb(log, 128, PMTEST_HERE);
    pmSfence(PMTEST_HERE);
    pmStore(data, bytes, 128, PMTEST_HERE);
    pmClwb(data, 128, PMTEST_HERE);
    pmSfence(PMTEST_HERE);
    pmTxEnd();
}

double
run(size_t n_tx, size_t batch)
{
    std::vector<uint8_t> heap(1 << 20, 0);

    pmtestInit(Config{});
    pmtestThreadInit();
    pmtestStart();

    Timer timer;
    for (size_t i = 0; i < n_tx; i++) {
        emitTransaction(heap.data(), i);
        if ((i + 1) % batch == 0)
            pmtestSendTrace();
    }
    pmtestSendTrace();
    pmtestGetResult();
    const double seconds = timer.elapsedSec();

    pmtestExit();
    return seconds;
}

} // namespace

int
main()
{
    bench::banner("Ablation A3",
                  "trace batching: transactions per SEND_TRACE");

    const size_t n_tx = 20000 * bench::scale();
    const size_t batches[] = {1, 4, 16, 64, 256, 1024};

    TextTable table;
    table.header({"tx/trace", "time(s)", "ktx/s"});
    for (size_t batch : batches) {
        const double sec = run(n_tx, batch);
        table.row({std::to_string(batch), fmtDouble(sec, 4),
                   fmtDouble(n_tx / sec / 1e3, 1)});
    }
    std::printf("%s\n", table.str().c_str());
    std::printf("Expected shape: a moderate batch is fastest; "
                "per-transaction traces pay dispatch cost, giant "
                "traces lose pipelining.\n");
    return 0;
}
