/**
 * @file
 * The pmtest-report-v2 wire format: lossless round-trips for every
 * finding kind, evidence shape and fix-hint shape, a pinned golden
 * encoding, fail-closed parsing under every truncation and every
 * single-bit flip, rejection of v1 files, nonzero reserved bytes and
 * causes that do not belong to their kind — the properties a
 * reader of `pmtest_check --report-out` leans on.
 */

#include "core/report_io.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "trace/trace_io.hh"

namespace pmtest::core
{
namespace
{

FixHint
hint(FixAction action, uint64_t addr = 0x1000, uint64_t size = 64,
     uint64_t op_index = 3)
{
    FixHint h;
    h.action = action;
    h.addr = addr;
    h.size = size;
    h.opIndex = op_index;
    return h;
}

Evidence
evidence(AddrRange a, Epoch epoch_a = 0, AddrRange b = {},
         Epoch epoch_b = 0)
{
    Evidence e;
    e.rangeA = a;
    e.rangeB = b;
    e.epochA = epoch_a;
    e.epochB = epoch_b;
    return e;
}

Finding
finding(Severity severity, Cause cause, const char *file, uint32_t line,
        Evidence e, uint32_t file_id, uint64_t trace_id, size_t op_index,
        FixHint h = {})
{
    Finding f;
    f.severity = severity;
    f.kind = causeKind(cause);
    f.cause = cause;
    f.loc = SourceLocation(file, line);
    f.evidence = e;
    f.fileId = file_id;
    f.traceId = trace_id;
    f.opIndex = op_index;
    f.hint = h;
    return f;
}

/**
 * A report exercising every finding kind, both ordering rules, every
 * fix action, both hint flags, non-x86 op vocabulary, an open
 * (never-closing) epoch, a write location that is the only use of
 * its file name, an undefined-op finding and a missing source
 * location.
 */
Report
sampleReport()
{
    Report r;
    FixHint ordering = hint(FixAction::InsertOrdering, 0x2000, 8, 5);
    ordering.addrB = 0x3000;
    ordering.sizeB = 16;
    ordering.withFlush = true;
    ordering.verified = true;
    FixHint arm = hint(FixAction::InsertFlushFence, 0x4000, 64, 7);
    arm.flushOp = OpType::DcCvap;
    arm.fenceOp = OpType::Dsb;
    FixHint tx_end = hint(FixAction::InsertTxEnd, 0, 0, 9);
    tx_end.count = 3;
    Finding incomplete =
        finding(Severity::Fail, Cause::TxUpdateNotPersisted, "b.cc", 21,
                evidence(AddrRange(0x4000, 64), 4), 1, 3, 6, arm);
    incomplete.evidence.writeLoc = SourceLocation("w.cc", 77);
    Finding undefined =
        finding(Severity::Fail, Cause::OpNotInHops, nullptr, 0, {}, 3,
                7, 0, hint(FixAction::None));
    undefined.op = OpType::Clwb;

    r.add(finding(Severity::Fail, Cause::PersistOpen, "a.cc", 10,
                  evidence(AddrRange(0x1000, 64), 3), 0, 1, 2,
                  hint(FixAction::InsertFlushFence)));
    r.add(finding(Severity::Fail, Cause::PersistNotBefore, "a.cc", 11,
                  evidence(AddrRange(0x2000, 8), kInfEpoch,
                           AddrRange(0x3000, 16), 2),
                  0, 1, 3, ordering));
    r.add(finding(Severity::Fail, Cause::WriteNotFenced, "a.cc", 12,
                  evidence(AddrRange(0x2000, 8), 1, AddrRange(0x3000, 8),
                           1),
                  0, 1, 4));
    r.add(finding(Severity::Fail, Cause::WriteWithoutLog, "b.cc", 20,
                  evidence(AddrRange(0x5000, 32)), 0, 2, 1,
                  hint(FixAction::InsertTxAdd, 0x5000, 32, 4)));
    r.add(incomplete);
    r.add(finding(Severity::Fail, Cause::TxOpenAtTraceEnd, "c.cc", 30,
                  evidence({}, 3), 1, 4, 8, tx_end));
    r.add(finding(Severity::Warn, Cause::CvapRedundant, "d.cc", 40,
                  evidence(AddrRange(0x6000, 64)), 2, 5, 2,
                  hint(FixAction::DeleteFlush, 0x6000, 64, 2)));
    r.add(finding(Severity::Warn, Cause::WritebackUnmodified, "d.cc", 41,
                  evidence(AddrRange(0x6040, 64)), 2, 5, 4,
                  hint(FixAction::InsertFence, 0, 0, 4)));
    r.add(finding(Severity::Warn, Cause::LogDuplicate, "e.cc", 50,
                  evidence(AddrRange(0x7000, 16)), 3, 6, 1,
                  hint(FixAction::DeleteTxAdd, 0x7000, 16, 1)));
    r.add(undefined);
    return r;
}

ReportMeta
sampleMeta()
{
    ReportMeta m;
    m.workerIndex = 2;
    m.workerCount = 4;
    m.traceCount = 11;
    m.totalOps = 48;
    m.sourceCount = 3;
    m.model = ModelKind::Arm;
    return m;
}

void
expectSameFindings(const Report &got, const Report &want)
{
    ASSERT_EQ(got.findings().size(), want.findings().size());
    for (size_t i = 0; i < want.findings().size(); i++) {
        const Finding &a = want.findings()[i];
        const Finding &b = got.findings()[i];
        EXPECT_EQ(b.severity, a.severity) << "finding " << i;
        EXPECT_EQ(b.kind, a.kind) << "finding " << i;
        EXPECT_EQ(b.cause, a.cause) << "finding " << i;
        EXPECT_EQ(b.op, a.op) << "finding " << i;
        EXPECT_EQ(b.loc.str(), a.loc.str()) << "finding " << i;
        EXPECT_EQ(b.fileId, a.fileId) << "finding " << i;
        EXPECT_EQ(b.traceId, a.traceId) << "finding " << i;
        EXPECT_EQ(b.opIndex, a.opIndex) << "finding " << i;
        const Evidence &ea = a.evidence, &eb = b.evidence;
        EXPECT_EQ(eb.rangeA.addr, ea.rangeA.addr) << "finding " << i;
        EXPECT_EQ(eb.rangeA.size, ea.rangeA.size) << "finding " << i;
        if (a.cause == Cause::TxUpdateNotPersisted) {
            EXPECT_EQ(eb.writeLoc.str(), ea.writeLoc.str())
                << "finding " << i;
        } else {
            EXPECT_EQ(eb.rangeB.addr, ea.rangeB.addr) << "finding " << i;
            EXPECT_EQ(eb.rangeB.size, ea.rangeB.size) << "finding " << i;
        }
        EXPECT_EQ(eb.epochA, ea.epochA) << "finding " << i;
        EXPECT_EQ(eb.epochB, ea.epochB) << "finding " << i;
        EXPECT_TRUE(b.hint.sameEdit(a.hint)) << "finding " << i;
        EXPECT_EQ(b.hint.verified, a.hint.verified) << "finding " << i;
        EXPECT_EQ(findingMessage(b), findingMessage(a)) << "finding " << i;
        EXPECT_EQ(b.str(), a.str()) << "finding " << i;
    }
}

/** The pinned v2 encoding of sampleReport() + sampleMeta(). */
std::string
goldenV2()
{
    static const unsigned char kGolden[] = {
#include "report_v2_golden.inc"
    };
    return std::string(reinterpret_cast<const char *>(kGolden),
                       sizeof kGolden);
}

/** Byte offset of finding @p i's record in @p wire (one frame). */
size_t
findingOffset(const std::string &wire, size_t i)
{
    size_t pos = ReportWire::kHeaderBytes + 40; // header + meta
    uint32_t strings = 0;
    std::memcpy(&strings, wire.data() + pos, 4);
    pos += 4;
    for (uint32_t s = 0; s < strings; s++) {
        uint32_t len = 0;
        std::memcpy(&len, wire.data() + pos, 4);
        pos += 4 + len;
    }
    return pos + 8 + 128 * i; // finding count, then the records
}

/** Re-seal @p wire's body CRC after a deliberate edit. */
void
resealCrc(std::string *wire)
{
    const size_t body_len = wire->size() - ReportWire::kHeaderBytes -
                            ReportWire::kFooterBytes;
    const uint32_t crc =
        crc32(wire->data() + ReportWire::kHeaderBytes, body_len);
    std::memcpy(wire->data() + ReportWire::kHeaderBytes + body_len, &crc,
                4);
}

/** decodeReport's error for @p wire ("" when it decodes). */
std::string
decodeError(const std::string &wire)
{
    Report sink;
    std::string error;
    if (decodeReport(wire.data(), wire.size(), &sink, nullptr, &error))
        return "";
    EXPECT_TRUE(sink.clean());
    return error;
}

TEST(ReportIoTest, RoundTripEveryKindAndHint)
{
    const Report original = sampleReport();
    const ReportMeta meta = sampleMeta();
    std::string wire;
    encodeReport(original, meta, &wire);

    Report decoded;
    ReportMeta decoded_meta;
    std::string error;
    ASSERT_TRUE(decodeReport(wire.data(), wire.size(), &decoded,
                             &decoded_meta, &error))
        << error;
    expectSameFindings(decoded, original);
    EXPECT_EQ(decoded_meta.workerIndex, meta.workerIndex);
    EXPECT_EQ(decoded_meta.workerCount, meta.workerCount);
    EXPECT_EQ(decoded_meta.traceCount, meta.traceCount);
    EXPECT_EQ(decoded_meta.totalOps, meta.totalOps);
    EXPECT_EQ(decoded_meta.sourceCount, meta.sourceCount);
    EXPECT_EQ(decoded_meta.model, meta.model);
}

TEST(ReportIoTest, EncoderReproducesGoldenBytes)
{
    // Round trips alone cannot catch an encoder and decoder that drift
    // together; these bytes pin the wire format itself.
    ASSERT_EQ(ReportWire::kVersion, 2u);
    std::string wire;
    encodeReport(sampleReport(), sampleMeta(), &wire);
    EXPECT_EQ(wire, goldenV2());
}

TEST(ReportIoTest, GoldenDecodesToTheSampleReport)
{
    const std::string wire = goldenV2();
    Report decoded;
    std::string error;
    ASSERT_TRUE(decodeReport(wire.data(), wire.size(), &decoded, nullptr,
                             &error))
        << error;
    expectSameFindings(decoded, sampleReport());
}

TEST(ReportIoTest, VersionOneReportIsRejected)
{
    // The v1 wire carried rendered messages; its bytes stay as a
    // fixture that this build must refuse, never misread.
    static const unsigned char kV1[] = {
#include "report_v1_golden.inc"
    };
    const std::string wire(reinterpret_cast<const char *>(kV1),
                           sizeof kV1);
    EXPECT_EQ(decodeError(wire), "unsupported report version");
}

TEST(ReportIoTest, ReservedBytesMustBeZero)
{
    const std::string wire = goldenV2();
    ASSERT_EQ(decodeError(wire), "");
    const Report sample = sampleReport();
    size_t incomplete = 0, persist = 0;
    for (size_t i = 0; i < sample.findings().size(); i++) {
        if (sample.findings()[i].cause == Cause::TxUpdateNotPersisted)
            incomplete = i;
    }
    ASSERT_EQ(sample.findings()[persist].cause, Cause::PersistOpen);

    const auto with_byte = [&](size_t offset, uint8_t value) {
        std::string edited = wire;
        edited[offset] = static_cast<char>(value);
        resealCrc(&edited);
        return decodeError(edited);
    };
    const std::string reserved = "nonzero reserved bytes in report";
    // The meta's reserved word.
    EXPECT_EQ(with_byte(ReportWire::kHeaderBytes + 36, 1), reserved);
    EXPECT_EQ(with_byte(ReportWire::kHeaderBytes + 39, 0x80), reserved);
    // The op byte of a finding whose cause names no op.
    EXPECT_EQ(with_byte(findingOffset(wire, persist) + 3, 1), reserved);
    // Unused hint flag bits.
    EXPECT_EQ(with_byte(findingOffset(wire, persist) + 127, 0x04),
              reserved);
    // The two reserved words inside IncompleteTx's write location.
    const size_t write_loc = findingOffset(wire, incomplete) + 48;
    EXPECT_EQ(with_byte(write_loc + 4, 1), reserved);
    EXPECT_EQ(with_byte(write_loc + 15, 1), reserved);
    // A write-location file index past the string table.
    EXPECT_EQ(with_byte(write_loc, 0x7f), "bad string index in report");
}

TEST(ReportIoTest, CauseMustBelongToItsKind)
{
    const std::string wire = goldenV2();
    const size_t cause_byte = findingOffset(wire, 0) + 2;
    for (uint8_t c = 0; c <= static_cast<uint8_t>(kLastCause) + 1; c++) {
        std::string edited = wire;
        edited[cause_byte] = static_cast<char>(c);
        resealCrc(&edited);
        const std::string error = decodeError(edited);
        if (c > static_cast<uint8_t>(kLastCause)) {
            EXPECT_EQ(error, "bad enum value in report");
        } else if (causeKind(static_cast<Cause>(c)) ==
                   FindingKind::NotPersisted) {
            EXPECT_EQ(error, "") << causeName(static_cast<Cause>(c));
        } else {
            EXPECT_EQ(error,
                      "finding cause does not match its kind in report")
                << causeName(static_cast<Cause>(c));
        }
    }
}

TEST(ReportIoTest, EncodeAppendsAfterExistingBytes)
{
    std::string alone;
    encodeReport(sampleReport(), sampleMeta(), &alone);
    std::string wire = "prefix";
    encodeReport(sampleReport(), sampleMeta(), &wire);
    EXPECT_EQ(wire, "prefix" + alone);
}

TEST(ReportIoTest, DecodedReportIsSelfContained)
{
    std::string wire;
    {
        // The encoded report dies before the decoded one is read:
        // decoded locations must point into the report's own arena.
        const Report original = sampleReport();
        encodeReport(original, sampleMeta(), &wire);
    }
    Report decoded;
    ASSERT_TRUE(
        decodeReport(wire.data(), wire.size(), &decoded, nullptr));
    wire.assign(wire.size(), '\0'); // scramble the source bytes
    EXPECT_EQ(decoded.findings()[0].loc.str(), "a.cc:10");
    EXPECT_FALSE(decoded.str().empty());
}

TEST(ReportIoTest, EmptyReportRoundTrips)
{
    std::string wire;
    encodeReport(Report{}, ReportMeta{}, &wire);
    Report decoded;
    ReportMeta meta;
    std::string error;
    ASSERT_TRUE(decodeReport(wire.data(), wire.size(), &decoded,
                             &meta, &error))
        << error;
    EXPECT_TRUE(decoded.clean());
    EXPECT_EQ(meta.workerCount, 0u);
}

TEST(ReportIoTest, TxCheckerOpenAtTraceEndRoundTrips)
{
    // The newest cause is appended after the golden sample's, so the
    // pinned bytes stay v2; it must still survive the wire.
    Report original;
    original.add(finding(Severity::Fail, Cause::TxCheckerOpenAtTraceEnd,
                         nullptr, 0, {}, 2, 9, 14));
    std::string wire;
    encodeReport(original, sampleMeta(), &wire);
    Report decoded;
    std::string error;
    ASSERT_TRUE(decodeReport(wire.data(), wire.size(), &decoded, nullptr,
                             &error))
        << error;
    expectSameFindings(decoded, original);
    EXPECT_EQ(findingMessage(decoded.findings()[0]),
              "trace ends inside a TX_CHECKER region");
    EXPECT_EQ(decoded.findings()[0].kind, FindingKind::Malformed);
}

TEST(ReportIoTest, ReencodeOfDecodeIsByteIdentical)
{
    std::string wire;
    encodeReport(sampleReport(), sampleMeta(), &wire);
    Report decoded;
    ReportMeta meta;
    ASSERT_TRUE(
        decodeReport(wire.data(), wire.size(), &decoded, &meta));
    std::string rewire;
    encodeReport(decoded, meta, &rewire);
    EXPECT_EQ(wire, rewire);
}

TEST(ReportIoTest, EveryTruncationFailsClosed)
{
    const std::string wire = goldenV2();
    Report sentinel;
    sentinel.add(finding(Severity::Warn, Cause::LogDuplicate,
                         "sentinel.cc", 1, evidence(AddrRange(0x99, 1)),
                         0, 0, 0));
    for (size_t len = 0; len < wire.size(); len++) {
        Report sink = sentinel;
        ReportMeta meta;
        meta.traceCount = 999;
        std::string error;
        EXPECT_FALSE(
            decodeReport(wire.data(), len, &sink, &meta, &error))
            << "prefix of " << len << " bytes decoded";
        EXPECT_FALSE(error.empty()) << "at " << len;
        // All-or-nothing: a failed decode must not touch the outputs.
        ASSERT_EQ(sink.findings().size(), 1u) << "at " << len;
        EXPECT_EQ(sink.findings()[0].str(), sentinel.findings()[0].str());
        EXPECT_EQ(meta.traceCount, 999u) << "at " << len;
    }
}

TEST(ReportIoTest, EveryFlippedByteFailsClosed)
{
    // Every single-bit flip of the golden, plus whole-byte inversion.
    const std::string wire = goldenV2();
    for (size_t i = 0; i < wire.size(); i++) {
        for (const uint8_t mask :
             {uint8_t{0x01}, uint8_t{0x02}, uint8_t{0x04}, uint8_t{0x08},
              uint8_t{0x10}, uint8_t{0x20}, uint8_t{0x40}, uint8_t{0x80},
              uint8_t{0xff}}) {
            std::string corrupt = wire;
            corrupt[i] = static_cast<char>(
                static_cast<uint8_t>(corrupt[i]) ^ mask);
            Report sink;
            ReportMeta meta;
            std::string error;
            EXPECT_FALSE(decodeReport(corrupt.data(), corrupt.size(),
                                      &sink, &meta, &error))
                << "byte " << i << " ^ " << int(mask) << " decoded";
            EXPECT_TRUE(sink.clean()) << "byte " << i;
        }
    }
}

TEST(ReportIoTest, TrailingBytesRejected)
{
    std::string wire;
    encodeReport(sampleReport(), sampleMeta(), &wire);
    wire.push_back('\0');
    Report sink;
    std::string error;
    EXPECT_FALSE(
        decodeReport(wire.data(), wire.size(), &sink, nullptr, &error));
    EXPECT_EQ(error, "report length mismatch");
}

TEST(ReportIoTest, ForeignBytesRejectedWithReason)
{
    const std::string junk(64, 'x');
    Report sink;
    std::string error;
    EXPECT_FALSE(decodeReport(junk.data(), junk.size(), &sink,
                              nullptr, &error));
    EXPECT_EQ(error, "not a pmtest report (bad magic)");
}

TEST(ReportIoTest, SaveLoadFileRoundTrips)
{
    const std::string path =
        testing::TempDir() + "report_io_roundtrip.bin";
    const Report original = sampleReport();
    std::string error;
    ASSERT_TRUE(saveReportFile(path, original, sampleMeta(), &error))
        << error;
    Report loaded;
    ReportMeta meta;
    ASSERT_TRUE(loadReportFile(path, &loaded, &meta, &error)) << error;
    expectSameFindings(loaded, original);
    EXPECT_EQ(meta.workerIndex, 2u);
    std::remove(path.c_str());
}

TEST(ReportIoTest, SavedFileIsTheEncodedFrame)
{
    // saveReportFile streams the records in bounded runs; over several
    // runs and a partial last one, the file must hold encodeReport's
    // bytes exactly.
    Report big;
    const Report sample = sampleReport();
    for (size_t i = 0; i < 1500; i++) {
        Finding f = sample.findings()[i % sample.findings().size()];
        f.opIndex = i;
        big.add(f);
    }
    std::string wire;
    encodeReport(big, sampleMeta(), &wire);
    const std::string path = testing::TempDir() + "report_io_stream.bin";
    std::string error;
    ASSERT_TRUE(saveReportFile(path, big, sampleMeta(), &error)) << error;
    std::string saved;
    if (std::FILE *f = std::fopen(path.c_str(), "rb")) {
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
            saved.append(buf, n);
        std::fclose(f);
    }
    EXPECT_EQ(saved, wire);
    std::remove(path.c_str());
}

TEST(ReportIoTest, LoadErrorsNameThePath)
{
    const std::string missing =
        testing::TempDir() + "no_such_report.bin";
    Report sink;
    std::string error;
    EXPECT_FALSE(loadReportFile(missing, &sink, nullptr, &error));
    EXPECT_NE(error.find(missing), std::string::npos);

    const std::string garbage =
        testing::TempDir() + "garbage_report.bin";
    std::FILE *f = std::fopen(garbage.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    for (int i = 0; i < 64; i++)
        std::fputc('x', f); // long enough to get past the length check
    std::fclose(f);
    EXPECT_FALSE(loadReportFile(garbage, &sink, nullptr, &error));
    EXPECT_NE(error.find(garbage), std::string::npos);
    EXPECT_NE(error.find("bad magic"), std::string::npos);
    std::remove(garbage.c_str());

    // A v1 report on disk fails closed the same way, naming the file.
    static const unsigned char kV1[] = {
#include "report_v1_golden.inc"
    };
    const std::string v1 = testing::TempDir() + "v1_report.bin";
    f = std::fopen(v1.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(kV1, 1, sizeof kV1, f), sizeof kV1);
    std::fclose(f);
    EXPECT_FALSE(loadReportFile(v1, &sink, nullptr, &error));
    EXPECT_NE(error.find(v1 + ": unsupported report version"),
              std::string::npos)
        << error;
    std::remove(v1.c_str());
}

} // namespace
} // namespace pmtest::core
