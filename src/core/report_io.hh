/**
 * @file
 * Report serialization: the `pmtest-report-v2` wire format that lets
 * a checking session's canonical Report leave the process.
 * `pmtest_check --report-out=FILE` serializes its report with
 * saveReportFile; a reader (bench_pipeline, tests) parses it back
 * with loadReportFile into the exact Report the run printed.
 *
 * Wire format (little-endian, versioned, CRC-checked like trace v2):
 *
 *   file   := magic u64, version u32 (=2), reserved u32,
 *             body_len u64, body[body_len], body_crc32 u32,
 *             footer_magic u64
 *   body   := meta, string_table, finding_count u64, finding*
 *   meta   := worker_index u32, worker_count u32, trace_count u64,
 *             total_ops u64, source_count u64, model u32,
 *             reserved u32
 *   string_table := count u32, (len u32, bytes)*
 *   finding := severity u8, kind u8, cause u8, op u8, file_id u32,
 *              loc_file_idx u32, loc_line u32,
 *              trace_id u64, op_index u64,
 *              range_a_addr u64, range_a_size u64,
 *              range_b_addr u64, range_b_size u64,
 *              epoch_a u64, epoch_b u64,
 *              hint_addr u64, hint_size u64, hint_addr_b u64,
 *              hint_size_b u64, hint_op_index u64, hint_count u32,
 *              hint_action u8, hint_flush_op u8, hint_fence_op u8,
 *              hint_flags u8                       (128 bytes)
 *
 * A finding is its fixed-size evidence (Finding, Evidence in
 * core/report.hh), not prose: the cause names the message template
 * and the ranges and epochs fill it, so readers render the text with
 * findingMessage. For an IncompleteTx finding (cause
 * tx-update-not-persisted) range B's 16 bytes hold the unpersisted
 * write's location instead: write_file_idx u32, reserved u32,
 * write_line u32, reserved u32. The op byte is set only for the
 * op-not-in-<model> causes. The string table holds source-file names
 * only; kNoString marks an absent one. hint_flags packs withFlush
 * (bit 0) and verified (bit 1).
 *
 * Fail-closed parsing: decodeReport validates the magics, the exact
 * length accounting (body_len must match the input size to the
 * byte — no trailing junk), the body CRC32, every enum value, that
 * each cause belongs to its finding's kind, every string index, and
 * that every reserved word, unused op byte and unused flag bit is
 * zero — all before anything is visible to the caller; a truncated
 * or bit-flipped file never produces a partial Report. Version 1
 * files (which carried rendered messages) are rejected as an
 * unsupported version. Parsed findings' file names live in an arena
 * the Report co-owns (holdArena), so a loaded report is
 * self-contained exactly like one produced by the live pipeline.
 */

#ifndef PMTEST_CORE_REPORT_IO_HH
#define PMTEST_CORE_REPORT_IO_HH

#include <cstdint>
#include <string>

#include "core/persistency_model.hh"
#include "core/report.hh"

namespace pmtest::core
{

/** Wire-format constants shared by the writer, parser and tests. */
struct ReportWire
{
    /** Leading file magic ("PMREPORT"). */
    static constexpr uint64_t kMagic = 0x54524f5045524d50ULL;
    /** Trailing footer magic ("PMR2END."). */
    static constexpr uint64_t kFooterMagic = 0x2e444e4532524d50ULL;
    /** The only version this build writes and reads. */
    static constexpr uint32_t kVersion = 2;
    /** magic u64 + version u32 + reserved u32 + body_len u64. */
    static constexpr size_t kHeaderBytes = 24;
    /** body_crc32 u32 + footer_magic u64. */
    static constexpr size_t kFooterBytes = 12;
    /** String-table index marking an absent file name. */
    static constexpr uint32_t kNoString = 0xffffffffu;
};

/**
 * Run totals carried alongside the findings, so a reader can hold
 * the report against its run (traces, ops, sources) without
 * reopening any input.
 */
struct ReportMeta
{
    uint32_t workerIndex = 0; ///< always 0; kept for wire compatibility
    uint32_t workerCount = 0; ///< always 0; kept for wire compatibility
    uint64_t traceCount = 0;
    uint64_t totalOps = 0;
    uint64_t sourceCount = 0;
    ModelKind model = ModelKind::X86;
};

/** Serialize @p report + @p meta, appending the framed bytes to @p out. */
void encodeReport(const Report &report, const ReportMeta &meta,
                  std::string *out);

/**
 * Parse one wire report. All-or-nothing: on any validation failure
 * @p report and @p meta are left untouched, @p error (when provided)
 * describes the first violation, and false is returned.
 */
bool decodeReport(const void *data, size_t len, Report *report,
                  ReportMeta *meta, std::string *error = nullptr);

/** encodeReport to @p path. @return false with @p error set on IO failure. */
bool saveReportFile(const std::string &path, const Report &report,
                    const ReportMeta &meta,
                    std::string *error = nullptr);

/**
 * Read and decodeReport @p path (fail-closed; see decodeReport).
 * @return false with @p error set ("<path>: <reason>") on failure.
 */
bool loadReportFile(const std::string &path, Report *report,
                    ReportMeta *meta, std::string *error = nullptr);

} // namespace pmtest::core

#endif // PMTEST_CORE_REPORT_IO_HH
