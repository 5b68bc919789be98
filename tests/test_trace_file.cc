/**
 * @file
 * Persistent trace store tests: a saved file round-trips every record
 * byte-identically at no more than 8 B/record of columns and loads
 * zero-copy, a disk-loaded trace replays to the same results as the
 * live capture on all three system families, every corruption class
 * (bad magic, foreign version, truncation, flipped byte, wrong key,
 * stale digest, inconsistent or undecodable columns) is rejected
 * before a record is trusted, a mutated file either fails to load or
 * loads the original records, and the TraceCache disk path survives
 * corrupt files, old-format files and concurrent writers racing the
 * same key. Carries the trace-store label so the mmap/validation
 * paths also run under the sanitizer presets.
 */

#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "driver/run_request.hh"
#include "driver/trace_cache.hh"
#include "func/inst_trace.hh"
#include "func/trace_file.hh"
#include "isa/instruction.hh"

namespace dscalar {
namespace {

constexpr InstSeq kBudget = 6000; // > 1 chunk (4096 records)
constexpr char kKey[] = "compress_s/s1/m6000";

std::string
tempPath(const std::string &leaf)
{
    return ::testing::TempDir() + leaf;
}

std::string
tempDir(const std::string &leaf)
{
    // Pid-suffixed so a rerun never starts with a warm store left
    // behind by a previous test process.
    std::string dir = ::testing::TempDir() + leaf + "." +
                      std::to_string(::getpid());
    ::mkdir(dir.c_str(), 0777);
    return dir;
}

/** A captured trace plus the digest a store stamps it with. */
struct Captured
{
    std::shared_ptr<const prog::Program> program;
    std::shared_ptr<const func::InstTrace> trace;
    std::uint64_t digest = 0;
};

Captured
captureCompress()
{
    driver::TraceCache cache;
    Captured c;
    c.program = cache.program("compress_s", 1);
    c.trace = func::InstTrace::capture(*c.program, kBudget);
    c.digest = c.program->imageDigest();
    return c;
}

void
expectTracesIdentical(const func::InstTrace &a, const func::InstTrace &b)
{
    ASSERT_EQ(a.length(), b.length());
    EXPECT_EQ(a.programHalted(), b.programHalted());
    EXPECT_EQ(a.output(), b.output());
    ASSERT_EQ(a.outputMarks().size(), b.outputMarks().size());
    for (std::size_t i = 0; i < a.outputMarks().size(); ++i) {
        EXPECT_EQ(a.outputMarks()[i].seq, b.outputMarks()[i].seq);
        EXPECT_EQ(a.outputMarks()[i].bytes, b.outputMarks()[i].bytes);
    }
    ASSERT_EQ(a.numChunks(), b.numChunks());
    InstSeq s = 0;
    func::DynInst ra, rb;
    for (std::size_t ci = 0; ci < a.numChunks(); ++ci) {
        ASSERT_EQ(a.chunk(ci)->size(), b.chunk(ci)->size());
        func::InstTrace::Chunk::Cursor ca(*a.chunk(ci));
        func::InstTrace::Chunk::Cursor cb(*b.chunk(ci));
        for (std::size_t i = 0; i < a.chunk(ci)->size(); ++i, ++s) {
            ca.next(s, ra);
            cb.next(s, rb);
            ASSERT_EQ(ra.pc, rb.pc) << "record " << s;
            ASSERT_EQ(isa::encode(ra.inst), isa::encode(rb.inst))
                << "record " << s;
            ASSERT_EQ(ra.effAddr, rb.effAddr) << "record " << s;
            ASSERT_EQ(ra.memSize, rb.memSize) << "record " << s;
            ASSERT_EQ(ra.nextPc, rb.nextPc) << "record " << s;
        }
    }
    ASSERT_EQ(s, a.length());
}

/** Overwrite @p count bytes of @p path at @p offset. */
void
patchFile(const std::string &path, std::uint64_t offset,
          const void *bytes, std::size_t count)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(static_cast<const char *>(bytes),
            static_cast<std::streamsize>(count));
    ASSERT_TRUE(f.good());
}

std::uint64_t
fileSize(const std::string &path)
{
    struct stat st{};
    EXPECT_EQ(::stat(path.c_str(), &st), 0);
    return static_cast<std::uint64_t>(st.st_size);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
}

/** Save a one-chunk trace of @p chunk and return what loading it
 *  back reports (nullptr expected). */
std::string
saveAndLoadError(std::shared_ptr<const func::InstTrace::Chunk> chunk,
                 const std::string &leaf)
{
    func::InstTrace::Parts parts;
    parts.length = chunk->size();
    parts.chunks.push_back(std::move(chunk));
    parts.halted = true;
    auto trace = func::InstTrace::fromParts(std::move(parts));
    std::string path = tempPath(leaf);
    std::string error;
    EXPECT_TRUE(func::saveTraceFile(path, *trace, "synthetic", 1, error))
        << error;
    EXPECT_EQ(func::loadTraceFile(path, "synthetic", 1, error), nullptr);
    ::unlink(path.c_str());
    return error;
}

TEST(TraceFile, RoundTripPreservesEveryRecord)
{
    Captured c = captureCompress();
    ASSERT_EQ(c.trace->length(), kBudget);
    ASSERT_GT(c.trace->numChunks(), 1u);

    std::string path = tempPath("rt.dstrace");
    std::string error;
    ASSERT_TRUE(
        func::saveTraceFile(path, *c.trace, kKey, c.digest, error))
        << error;

    func::TraceFileInfo info;
    auto loaded = func::loadTraceFile(path, kKey, c.digest, error, &info);
    ASSERT_NE(loaded, nullptr) << error;
    expectTracesIdentical(*c.trace, *loaded);

    EXPECT_EQ(info.version, func::kTraceFileVersion);
    EXPECT_EQ(info.records, kBudget);
    EXPECT_EQ(info.imageDigest, c.digest);
    EXPECT_EQ(info.key, kKey);
    EXPECT_EQ(info.fileBytes, fileSize(path));
    EXPECT_GT(info.payloadBytes, 0u);
    // The file stores the compact in-memory layout verbatim.
    EXPECT_LE(static_cast<double>(info.payloadBytes) /
                  static_cast<double>(info.records),
              8.0);

    // Zero-copy: every loaded chunk borrows its block from the
    // mapping and owns no column storage.
    for (std::size_t i = 0; i < loaded->numChunks(); ++i) {
        EXPECT_TRUE(loaded->chunk(i)->borrowed()) << "chunk " << i;
        EXPECT_EQ(loaded->chunk(i)->owned, nullptr) << "chunk " << i;
        EXPECT_EQ(loaded->chunk(i)->bytes(), 0u) << "chunk " << i;
    }
    EXPECT_LT(loaded->memoryBytes(), c.trace->memoryBytes() / 4);

    ASSERT_EQ(::unlink(path.c_str()), 0);
}

TEST(TraceFile, ReplayedLoadMatchesLiveRunOnEverySystem)
{
    // The acceptance bar for the store: a disk-loaded trace must
    // drive all three system families to results byte-identical to
    // replaying the in-memory capture.
    Captured c = captureCompress();
    std::string path = tempPath("replay.dstrace");
    std::string error;
    ASSERT_TRUE(
        func::saveTraceFile(path, *c.trace, kKey, c.digest, error))
        << error;
    auto loaded = func::loadTraceFile(path, kKey, c.digest, error);
    ASSERT_NE(loaded, nullptr) << error;

    for (driver::SystemKind kind : {driver::SystemKind::Perfect,
                                    driver::SystemKind::DataScalar,
                                    driver::SystemKind::Traditional}) {
        SCOPED_TRACE(driver::systemKindName(kind));
        driver::RunRequest req;
        req.workload = "compress_s";
        req.system = kind;
        req.config.maxInsts = kBudget;
        req.config.numNodes = 2;

        req.trace = c.trace;
        driver::RunResponse live = driver::runOne(req);
        ASSERT_TRUE(live.ok()) << live.error;

        req.trace = loaded;
        driver::RunResponse disk = driver::runOne(req);
        ASSERT_TRUE(disk.ok()) << disk.error;

        EXPECT_EQ(disk.statsJson(), live.statsJson());
        EXPECT_EQ(disk.output, live.output);
    }
    ASSERT_EQ(::unlink(path.c_str()), 0);
}

TEST(TraceFile, EmptyExpectKeySkipsIdentityChecks)
{
    Captured c = captureCompress();
    std::string path = tempPath("anykey.dstrace");
    std::string error;
    ASSERT_TRUE(
        func::saveTraceFile(path, *c.trace, kKey, c.digest, error))
        << error;
    // Inspection tools pass an empty key: the file must load without
    // knowing what program it belongs to.
    auto loaded = func::loadTraceFile(path, "", 0, error);
    ASSERT_NE(loaded, nullptr) << error;
    EXPECT_EQ(loaded->length(), kBudget);
    ASSERT_EQ(::unlink(path.c_str()), 0);
}

TEST(TraceFile, RejectsEveryCorruptionClass)
{
    Captured c = captureCompress();
    std::string good = tempPath("good.dstrace");
    std::string error;
    ASSERT_TRUE(
        func::saveTraceFile(good, *c.trace, kKey, c.digest, error))
        << error;
    std::uint64_t bytes = fileSize(good);

    auto freshCopy = [&](const char *leaf) {
        std::string path = tempPath(leaf);
        std::ifstream in(good, std::ios::binary);
        std::ofstream out(path, std::ios::binary);
        out << in.rdbuf();
        return path;
    };

    { // Bad magic: first byte flipped.
        std::string path = freshCopy("badmagic.dstrace");
        char zero = 0;
        patchFile(path, 0, &zero, 1);
        EXPECT_EQ(func::loadTraceFile(path, kKey, c.digest, error),
                  nullptr);
        EXPECT_NE(error.find("bad magic"), std::string::npos) << error;
    }
    { // Foreign format version (u32 at offset 8).
        std::string path = freshCopy("badversion.dstrace");
        std::uint32_t version = 999;
        patchFile(path, 8, &version, sizeof(version));
        EXPECT_EQ(func::loadTraceFile(path, kKey, c.digest, error),
                  nullptr);
        EXPECT_NE(error.find("unsupported version"), std::string::npos)
            << error;
    }
    { // Truncated mid-payload.
        std::string path = freshCopy("short.dstrace");
        ASSERT_EQ(::truncate(path.c_str(),
                             static_cast<off_t>(bytes - 64)),
                  0);
        EXPECT_EQ(func::loadTraceFile(path, kKey, c.digest, error),
                  nullptr);
        EXPECT_NE(error.find("truncated"), std::string::npos) << error;
    }
    { // One flipped payload byte must fail the checksum.
        std::string path = freshCopy("flipped.dstrace");
        std::uint64_t offset = bytes / 2;
        std::ifstream in(path, std::ios::binary);
        in.seekg(static_cast<std::streamoff>(offset));
        char byte = 0;
        in.read(&byte, 1);
        in.close();
        byte = static_cast<char>(byte ^ 0x40);
        patchFile(path, offset, &byte, 1);
        EXPECT_EQ(func::loadTraceFile(path, kKey, c.digest, error),
                  nullptr);
        EXPECT_NE(error.find("checksum"), std::string::npos) << error;
    }
    { // A different workload's file.
        EXPECT_EQ(func::loadTraceFile(good, "go_s/s1/m6000", c.digest,
                                      error),
                  nullptr);
        EXPECT_NE(error.find("key mismatch"), std::string::npos)
            << error;
    }
    { // Same key, recompiled program (stale digest).
        EXPECT_EQ(func::loadTraceFile(good, kKey, c.digest + 1, error),
                  nullptr);
        EXPECT_NE(error.find("digest"), std::string::npos) << error;
    }
    { // Missing file.
        EXPECT_EQ(func::loadTraceFile(tempPath("absent.dstrace"), kKey,
                                      c.digest, error),
                  nullptr);
        EXPECT_FALSE(error.empty());
    }
    // The pristine file still loads after all of the above.
    auto loaded = func::loadTraceFile(good, kKey, c.digest, error);
    ASSERT_NE(loaded, nullptr) << error;
    ASSERT_EQ(::unlink(good.c_str()), 0);
}

TEST(TraceFile, MutatedBytesAreRejectedOrLoadTheOriginal)
{
    Captured c = captureCompress();
    std::string good = tempPath("mutate_src.dstrace");
    std::string error;
    ASSERT_TRUE(
        func::saveTraceFile(good, *c.trace, kKey, c.digest, error))
        << error;
    const std::string orig = readFile(good);
    ASSERT_EQ(orig.size(), fileSize(good));

    // Every column boundary: the file stores each chunk's block
    // verbatim, so find it and add its column offsets. The chunk
    // directory follows the last block; every one of its 8-byte
    // fields starts a boundary too. Every header byte is mutated.
    std::set<std::size_t> boundaries;
    std::size_t blocks_end = 0;
    for (std::size_t ci = 0; ci < c.trace->numChunks(); ++ci) {
        const func::InstTrace::Chunk &chunk = *c.trace->chunk(ci);
        func::InstTrace::Chunk::Layout l = chunk.layout();
        const char *block = reinterpret_cast<const char *>(chunk.word);
        auto at = std::search(orig.begin(), orig.end(), block,
                              block + l.bytes);
        ASSERT_NE(at, orig.end()) << "chunk " << ci << " not stored";
        std::size_t off = static_cast<std::size_t>(at - orig.begin());
        for (std::size_t b : {std::size_t(0), l.nonSeq, l.nextPc,
                              l.effAddr, l.bytes})
            boundaries.insert(off + b);
        blocks_end = std::max(blocks_end, off + l.bytes);
    }
    ASSERT_LT(blocks_end, orig.size());
    for (std::size_t b = blocks_end; b < orig.size(); b += 8)
        boundaries.insert(b);
    std::set<std::size_t> flips;
    for (std::size_t b = 0; b < 112; ++b)
        flips.insert(b);
    for (std::size_t b : boundaries) {
        for (std::size_t d : {b - 1, b, b + 1}) {
            if (d < orig.size())
                flips.insert(d);
        }
    }

    std::string path = tempPath("mutate.dstrace");
    auto loadsOriginalOrNothing = [&](const std::string &bytes,
                                      const std::string &what) {
        writeFile(path, bytes);
        std::string err;
        auto t = func::loadTraceFile(path, kKey, c.digest, err);
        if (t) {
            SCOPED_TRACE(what);
            expectTracesIdentical(*c.trace, *t);
        } else {
            EXPECT_FALSE(err.empty()) << what;
        }
        return t != nullptr;
    };
    std::size_t loaded = 0;
    for (std::size_t at : flips) {
        for (unsigned char mask : {0x01, 0x80}) {
            std::string bytes = orig;
            bytes[at] = static_cast<char>(bytes[at] ^ mask);
            loaded += loadsOriginalOrNothing(
                bytes, "flip " + std::to_string(mask) + " at " +
                           std::to_string(at));
        }
    }
    EXPECT_EQ(loaded, 0u) << "the checksum covers every byte";
    boundaries.insert({0, 1, 111, 112, orig.size() - 1});
    for (std::size_t len : boundaries) {
        if (len < orig.size()) {
            EXPECT_FALSE(loadsOriginalOrNothing(
                orig.substr(0, len),
                "truncated to " + std::to_string(len)));
        }
    }
    ::unlink(path.c_str());
    ::unlink(good.c_str());
}

TEST(TraceFile, RejectsUndecodableWord)
{
    // Opcode field 63 names no opcode. The builder stores any word,
    // and the file's checksum is valid, so only the loader's column
    // check keeps the record from aborting isa::decode() in replay.
    func::InstTrace::Chunk::Builder b;
    ASSERT_EQ(b.append(0x1000, 0xfc000000u, invalidAddr, 0, 0x1004),
              nullptr);
    std::string error = saveAndLoadError(b.finish(), "badword.dstrace");
    EXPECT_NE(error.find("invalid instruction word"), std::string::npos)
        << error;
}

TEST(TraceFile, RejectsSparseColumnsTheirMasksDisagreeWith)
{
    // Hand-built chunks whose stored counts disagree with the
    // bitmask or the words: replaying them would read past a sparse
    // column, so the loader must refuse them.
    auto forged = [](std::size_t next_pcs, std::size_t eff_addrs) {
        auto c = std::make_shared<func::InstTrace::Chunk>();
        c->count = 1; // one NOP (word 0), sequential (mask 0)
        c->nextPcCount = next_pcs;
        c->effAddrCount = eff_addrs;
        c->owned =
            std::make_unique<unsigned char[]>(c->layout().bytes);
        c->bind(c->owned.get());
        return c;
    };
    std::string error = saveAndLoadError(forged(1, 0), "mask.dstrace");
    EXPECT_NE(error.find("nextPc column"), std::string::npos) << error;
    error = saveAndLoadError(forged(0, 1), "mem.dstrace");
    EXPECT_NE(error.find("effAddr column"), std::string::npos) << error;
}

TEST(TraceStore, SecondCacheWarmsFromDiskByteIdentically)
{
    std::string dir = tempDir("store_warm");

    driver::TraceCache cold;
    cold.setTraceDir(dir);
    auto captured = cold.acquire("compress_s", 1, kBudget);
    ASSERT_NE(captured, nullptr);
    EXPECT_EQ(cold.captures(), 1u);
    EXPECT_EQ(cold.diskHits(), 0u);
    EXPECT_EQ(cold.diskWrites(), 1u);

    // A fresh cache over the same directory — the restarted-process
    // case — must serve the key from disk without any capture.
    driver::TraceCache warm;
    warm.setTraceDir(dir);
    auto loaded = warm.acquire("compress_s", 1, kBudget);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(warm.captures(), 0u);
    EXPECT_EQ(warm.diskHits(), 1u);
    EXPECT_EQ(warm.diskWrites(), 0u);
    expectTracesIdentical(*captured, *loaded);
}

TEST(TraceStore, CorruptStoredFileFallsBackToCapture)
{
    std::string dir = tempDir("store_corrupt");
    std::uint64_t digest = 0;
    {
        driver::TraceCache cache;
        cache.setTraceDir(dir);
        cache.acquire("compress_s", 1, kBudget);
        digest = cache.program("compress_s", 1)->imageDigest();
    }
    std::string path =
        dir + "/" +
        driver::TraceCache::traceFileName("compress_s", 1, kBudget,
                                          digest);
    std::uint64_t offset = fileSize(path) / 2;
    char byte = 0x7f;
    patchFile(path, offset, &byte, 1);

    driver::TraceCache cache;
    cache.setTraceDir(dir);
    auto trace = cache.acquire("compress_s", 1, kBudget);
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(trace->length(), kBudget);
    EXPECT_EQ(cache.captures(), 1u) << "corrupt file must re-capture";
    EXPECT_EQ(cache.diskHits(), 0u);
    // The re-capture rewrote a valid file over the corrupt one.
    EXPECT_EQ(cache.diskWrites(), 1u);
    std::string error;
    EXPECT_NE(func::loadTraceFile(path, "", 0, error), nullptr)
        << error;
}

TEST(TraceStore, OldFormatFileIsRecapturedAndOverwritten)
{
    std::string dir = tempDir("store_v1");
    std::uint64_t digest = 0;
    {
        driver::TraceCache cache;
        cache.setTraceDir(dir);
        cache.acquire("compress_s", 1, kBudget);
        digest = cache.program("compress_s", 1)->imageDigest();
    }
    std::string path =
        dir + "/" +
        driver::TraceCache::traceFileName("compress_s", 1, kBudget,
                                          digest);
    // A file written by format version 1 (u32 at offset 8).
    std::uint32_t v1 = 1;
    patchFile(path, 8, &v1, sizeof(v1));
    std::string error;
    EXPECT_EQ(func::loadTraceFile(path, "", 0, error), nullptr);
    EXPECT_NE(error.find("unsupported version 1"), std::string::npos)
        << error;

    driver::TraceCache cache;
    cache.setTraceDir(dir);
    auto trace = cache.acquire("compress_s", 1, kBudget);
    ASSERT_NE(trace, nullptr);
    EXPECT_EQ(cache.captures(), 1u);
    EXPECT_EQ(cache.diskHits(), 0u);
    EXPECT_EQ(cache.diskWrites(), 1u);
    func::TraceFileInfo info;
    auto reloaded = func::loadTraceFile(path, "", 0, error, &info);
    ASSERT_NE(reloaded, nullptr) << error;
    EXPECT_EQ(info.version, func::kTraceFileVersion);
    expectTracesIdentical(*trace, *reloaded);
}

TEST(TraceStore, ConcurrentWritersPublishOneCompleteFile)
{
    // Separate caches (distinct processes in miniature) racing the
    // same key: atomic tmp+rename publication means whoever wins, the
    // stored file is complete and every racer gets a valid trace.
    std::string dir = tempDir("store_race");
    constexpr unsigned kWriters = 6;
    std::vector<std::shared_ptr<const func::InstTrace>> got(kWriters);
    std::vector<std::thread> writers;
    for (unsigned i = 0; i < kWriters; ++i) {
        writers.emplace_back([&dir, &got, i] {
            driver::TraceCache cache;
            cache.setTraceDir(dir);
            got[i] = cache.acquire("compress_s", 1, kBudget);
        });
    }
    for (auto &w : writers)
        w.join();

    for (unsigned i = 0; i < kWriters; ++i) {
        ASSERT_NE(got[i], nullptr) << "writer " << i;
        expectTracesIdentical(*got[0], *got[i]);
    }

    driver::TraceCache reader;
    reader.setTraceDir(dir);
    auto loaded = reader.acquire("compress_s", 1, kBudget);
    ASSERT_NE(loaded, nullptr);
    EXPECT_EQ(reader.captures(), 0u);
    EXPECT_EQ(reader.diskHits(), 1u);
    expectTracesIdentical(*got[0], *loaded);
}

TEST(TraceStore, RunOneTraceDirWarmsAcrossCacheLessCalls)
{
    // The dsrun path: no shared TraceCache, just `trace_dir` on the
    // request. The first call captures and stores; the second —
    // a brand-new private cache — must replay from disk with the
    // same stats document.
    std::string dir = tempDir("store_runone");
    driver::RunRequest req;
    req.workload = "compress_s";
    req.system = driver::SystemKind::DataScalar;
    req.config.maxInsts = kBudget;
    req.config.numNodes = 2;
    req.traceDir = dir;

    driver::RunResponse cold = driver::runOne(req);
    ASSERT_TRUE(cold.ok()) << cold.error;
    EXPECT_FALSE(cold.cacheHit);

    driver::RunResponse warm = driver::runOne(req);
    ASSERT_TRUE(warm.ok()) << warm.error;
    EXPECT_TRUE(warm.cacheHit) << "second run must warm from disk";
    EXPECT_EQ(warm.statsJson(), cold.statsJson());
    EXPECT_EQ(warm.output, cold.output);
}

} // namespace
} // namespace dscalar
