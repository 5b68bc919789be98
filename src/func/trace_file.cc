#include "func/trace_file.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "isa/instruction.hh"

namespace dscalar {
namespace func {

namespace {

constexpr char kMagic[8] = {'d', 's', 't', 'r', 'a', 'c', 'e', '\n'};
constexpr std::uint32_t kEndianTag = 0x01020304;

/** Fixed file header; every multi-byte field is host (little)
 *  endian, guarded by the endian tag. */
struct RawHeader
{
    char magic[8];
    std::uint32_t version;
    std::uint32_t endian;
    std::uint32_t halted;
    std::uint32_t reserved; ///< zero
    std::uint64_t records;
    std::uint64_t imageDigest;
    std::uint64_t keyOffset;
    std::uint64_t keyBytes;
    std::uint64_t outputOffset;
    std::uint64_t outputBytes;
    std::uint64_t marksOffset;
    std::uint64_t markCount;
    std::uint64_t chunkDirOffset;
    std::uint64_t fileBytes;
    std::uint64_t checksum; ///< whole file, this field read as zero
};
static_assert(sizeof(RawHeader) == 112, "header layout drifted");
static_assert(sizeof(RawHeader) % 8 == 0,
              "payload base must stay 8-aligned for borrowed blocks");

/** One chunk's directory entry; its record count follows from the
 *  header's record total. */
struct DirEntry
{
    std::uint64_t offset; ///< the chunk's column block
    std::uint64_t firstPc;
    std::uint64_t nextPcCount;
    std::uint64_t effAddrCount;
};
static_assert(sizeof(DirEntry) == 32, "dir entry layout drifted");

/** Four interleaved FNV-1a lanes over 64-bit little-endian words
 *  (tail bytes zero-padded into a final word), folded into one value
 *  at the end. A byte-serial FNV is a strict dependency chain (~1
 *  byte/cycle) and would dominate warm loads; word-wide independent
 *  lanes validate at memory speed. Any single-word corruption still
 *  flips its lane deterministically — (h ^ w) * prime is invertible
 *  in 2^64. */
std::uint64_t
fnv1a(const std::uint8_t *p, std::size_t n)
{
    constexpr std::uint64_t kOffset = 14695981039346656037ull;
    constexpr std::uint64_t kPrime = 1099511628211ull;
    std::uint64_t lane[4] = {kOffset, kOffset + 1, kOffset + 2,
                             kOffset + 3};
    std::size_t words = n / 8;
    std::size_t i = 0;
    for (; i + 4 <= words; i += 4) {
        for (unsigned l = 0; l < 4; ++l) {
            std::uint64_t w;
            std::memcpy(&w, p + (i + l) * 8, 8);
            lane[l] = (lane[l] ^ w) * kPrime;
        }
    }
    for (; i < words; ++i) {
        std::uint64_t w;
        std::memcpy(&w, p + i * 8, 8);
        lane[0] = (lane[0] ^ w) * kPrime;
    }
    if (n % 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + words * 8, n % 8);
        lane[1] = (lane[1] ^ w) * kPrime;
    }
    std::uint64_t h = kOffset;
    for (unsigned l = 0; l < 4; ++l)
        h = (h ^ lane[l]) * kPrime;
    return h;
}

/** Checksum of a whole file: @p hdr with its checksum field zeroed,
 *  then the @p n payload bytes at @p payload. */
std::uint64_t
fileChecksum(RawHeader hdr, const std::uint8_t *payload, std::size_t n)
{
    hdr.checksum = 0;
    std::uint64_t h =
        fnv1a(reinterpret_cast<const std::uint8_t *>(&hdr), sizeof(hdr));
    return (h ^ fnv1a(payload, n)) * 1099511628211ull;
}

void
appendRaw(std::string &buf, const void *data, std::size_t n)
{
    buf.append(static_cast<const char *>(data), n);
}

/** Pad @p buf to the next 8-byte payload boundary and return the
 *  absolute file offset of the byte that follows. */
std::uint64_t
alignPayload(std::string &buf)
{
    while ((sizeof(RawHeader) + buf.size()) % 8 != 0)
        buf.push_back('\0');
    return sizeof(RawHeader) + buf.size();
}

std::string
tmpPathFor(const std::string &path)
{
    static std::atomic<std::uint64_t> seq{0};
    return path + ".tmp." + std::to_string(::getpid()) + "." +
           std::to_string(seq.fetch_add(1));
}

std::uint64_t
chunkCount(const RawHeader &hdr)
{
    return (hdr.records >> InstTrace::kChunkShift) +
           ((hdr.records & InstTrace::kChunkMask) != 0);
}

/** Read-only whole-file mapping; unmapped when the last borrowed
 *  chunk (and the loader) lets go. */
struct Mapping
{
    const std::uint8_t *base = nullptr;
    std::size_t len = 0;

    ~Mapping()
    {
        if (base)
            ::munmap(const_cast<std::uint8_t *>(base), len);
    }
};

/** Map @p path and run the structural header checks (magic,
 *  endianness, version, size, section ranges and alignment).
 *  @return nullptr with @p error set on the first failed check. */
std::shared_ptr<Mapping>
mapAndValidate(const std::string &path, RawHeader &hdr,
               std::string &key, std::string &error)
{
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        error = "cannot open: " + std::string(std::strerror(errno));
        return nullptr;
    }
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        error = "cannot stat: " + std::string(std::strerror(errno));
        ::close(fd);
        return nullptr;
    }
    auto size = static_cast<std::size_t>(st.st_size);
    if (size < sizeof(RawHeader)) {
        error = "file smaller than header";
        ::close(fd);
        return nullptr;
    }
    // MAP_POPULATE batches the page-table setup in-kernel: the
    // checksum pass reads every payload page anyway, and one populate
    // is much cheaper than ~size/4K soft faults taken one at a time.
    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    flags |= MAP_POPULATE;
#endif
    void *base = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
    ::close(fd);
    if (base == MAP_FAILED) {
        error = "mmap failed: " + std::string(std::strerror(errno));
        return nullptr;
    }
    auto map = std::make_shared<Mapping>();
    map->base = static_cast<const std::uint8_t *>(base);
    map->len = size;

    std::memcpy(&hdr, map->base, sizeof(hdr));
    if (std::memcmp(hdr.magic, kMagic, sizeof(kMagic)) != 0) {
        error = "bad magic (not a dstrace file)";
        return nullptr;
    }
    if (hdr.endian != kEndianTag) {
        error = "endianness mismatch";
        return nullptr;
    }
    if (hdr.version != kTraceFileVersion) {
        error = "unsupported version " + std::to_string(hdr.version);
        return nullptr;
    }
    if (hdr.fileBytes != size) {
        error = "truncated file (header claims " +
                std::to_string(hdr.fileBytes) + " bytes, file has " +
                std::to_string(size) + ")";
        return nullptr;
    }

    auto in_range = [&](std::uint64_t off, std::uint64_t len) {
        return off >= sizeof(RawHeader) && off <= size &&
               len <= size - off;
    };
    auto aligned_array = [&](std::uint64_t off, std::uint64_t count,
                             std::uint64_t width) {
        return off % 8 == 0 && count <= size / width &&
               in_range(off, count * width);
    };
    if (hdr.reserved != 0) {
        error = "malformed header";
        return nullptr;
    }
    if (!in_range(hdr.keyOffset, hdr.keyBytes) ||
        !in_range(hdr.outputOffset, hdr.outputBytes) ||
        !aligned_array(hdr.marksOffset, hdr.markCount,
                       2 * sizeof(std::uint64_t)) ||
        !aligned_array(hdr.chunkDirOffset, chunkCount(hdr),
                       sizeof(DirEntry))) {
        error = "section out of range";
        return nullptr;
    }
    key.assign(reinterpret_cast<const char *>(map->base) +
                   hdr.keyOffset,
               hdr.keyBytes);
    return map;
}

/** The checks that make a borrowed chunk safe to replay: the sparse
 *  columns are exactly as long as the bitmask and the memory-op words
 *  say, and every word decodes. @return nullptr or what failed. */
const char *
checkColumns(const InstTrace::Chunk &c)
{
    std::size_t masks = (c.count + 63) / 64;
    std::size_t jumps = 0;
    for (std::size_t m = 0; m < masks; ++m)
        jumps += static_cast<std::size_t>(std::popcount(c.nonSeq[m]));
    if (c.count % 64 != 0 && (c.nonSeq[masks - 1] >> (c.count % 64)))
        return "non-sequential bit past the last record";
    if (jumps != c.nextPcCount)
        return "non-sequential bitmask does not match the nextPc column";
    std::size_t mem = 0;
    for (std::size_t i = 0; i < c.count; ++i) {
        if (!isa::validWord(c.word[i]))
            return "invalid instruction word";
        mem += isa::memWidth(c.word[i]) != 0;
    }
    if (mem != c.effAddrCount)
        return "memory-op count does not match the effAddr column";
    return nullptr;
}

} // namespace

bool
saveTraceFile(const std::string &path, const InstTrace &trace,
              const std::string &key, std::uint64_t image_digest,
              std::string &error)
{
    RawHeader hdr;
    std::memset(&hdr, 0, sizeof(hdr));
    std::memcpy(hdr.magic, kMagic, sizeof(kMagic));
    hdr.version = kTraceFileVersion;
    hdr.endian = kEndianTag;
    hdr.halted = trace.programHalted() ? 1 : 0;
    hdr.records = trace.length();
    hdr.imageDigest = image_digest;

    std::string buf; // payload, file offset sizeof(RawHeader)+i
    hdr.keyOffset = alignPayload(buf);
    hdr.keyBytes = key.size();
    appendRaw(buf, key.data(), key.size());

    hdr.outputOffset = alignPayload(buf);
    hdr.outputBytes = trace.output().size();
    appendRaw(buf, trace.output().data(), trace.output().size());

    hdr.marksOffset = alignPayload(buf);
    hdr.markCount = trace.outputMarks().size();
    for (const auto &m : trace.outputMarks()) {
        std::uint64_t seq = m.seq;
        appendRaw(buf, &seq, sizeof(seq));
        appendRaw(buf, &m.bytes, sizeof(m.bytes));
    }

    // Each chunk's block is stored verbatim: the file layout is the
    // memory layout, so a load can borrow it without decoding.
    std::vector<DirEntry> dir;
    dir.reserve(trace.numChunks());
    for (std::size_t ci = 0; ci < trace.numChunks(); ++ci) {
        const InstTrace::Chunk &c = *trace.chunk(ci);
        dir.push_back(DirEntry{alignPayload(buf), c.firstPc,
                               c.nextPcCount, c.effAddrCount});
        appendRaw(buf, c.word, c.layout().bytes);
    }

    hdr.chunkDirOffset = alignPayload(buf);
    appendRaw(buf, dir.data(), dir.size() * sizeof(DirEntry));

    hdr.fileBytes = sizeof(RawHeader) + buf.size();
    hdr.checksum = fileChecksum(
        hdr, reinterpret_cast<const std::uint8_t *>(buf.data()),
        buf.size());

    std::string tmp = tmpPathFor(path);
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            error = "cannot create " + tmp;
            return false;
        }
        out.write(reinterpret_cast<const char *>(&hdr), sizeof(hdr));
        out.write(buf.data(),
                  static_cast<std::streamsize>(buf.size()));
        out.flush();
        if (!out) {
            error = "short write to " + tmp;
            out.close();
            std::remove(tmp.c_str());
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        error = "rename failed: " + std::string(std::strerror(errno));
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

std::shared_ptr<const InstTrace>
loadTraceFile(const std::string &path, const std::string &expect_key,
              std::uint64_t expect_digest, std::string &error,
              TraceFileInfo *info)
{
    RawHeader hdr;
    std::string key;
    std::shared_ptr<Mapping> map =
        mapAndValidate(path, hdr, key, error);
    if (!map)
        return nullptr;

    if (!expect_key.empty()) {
        if (key != expect_key) {
            error = "workload key mismatch (stored \"" + key + "\")";
            return nullptr;
        }
        if (hdr.imageDigest != expect_digest) {
            error = "image digest mismatch (stale trace)";
            return nullptr;
        }
    }
    if (fileChecksum(hdr, map->base + sizeof(RawHeader),
                     map->len - sizeof(RawHeader)) != hdr.checksum) {
        error = "checksum mismatch";
        return nullptr;
    }

    std::uint64_t num_chunks = chunkCount(hdr);
    std::uint64_t payload_bytes = 0;

    InstTrace::Parts parts;
    parts.length = hdr.records;
    parts.halted = hdr.halted != 0;
    parts.output.assign(reinterpret_cast<const char *>(map->base) +
                            hdr.outputOffset,
                        hdr.outputBytes);
    parts.outputMarks.reserve(hdr.markCount);
    {
        const auto *m = reinterpret_cast<const std::uint64_t *>(
            map->base + hdr.marksOffset);
        InstSeq prev_seq = 0;
        for (std::uint64_t i = 0; i < hdr.markCount; ++i) {
            InstTrace::OutputMark mark{m[2 * i], m[2 * i + 1]};
            if (mark.seq >= hdr.records ||
                (i > 0 && mark.seq <= prev_seq)) {
                error = "corrupt output marks";
                return nullptr;
            }
            prev_seq = mark.seq;
            parts.outputMarks.push_back(mark);
        }
    }

    parts.chunks.reserve(num_chunks);
    for (std::uint64_t ci = 0; ci < num_chunks; ++ci) {
        DirEntry e{};
        std::memcpy(&e, map->base + hdr.chunkDirOffset + ci * sizeof(e),
                    sizeof(e));
        auto chunk = std::make_shared<InstTrace::Chunk>();
        chunk->count = static_cast<std::size_t>(std::min<std::uint64_t>(
            InstTrace::kChunkRecords,
            hdr.records - (ci << InstTrace::kChunkShift)));
        chunk->firstPc = e.firstPc;
        chunk->nextPcCount = static_cast<std::size_t>(e.nextPcCount);
        chunk->effAddrCount = static_cast<std::size_t>(e.effAddrCount);
        std::size_t bytes = chunk->layout().bytes;
        if (e.nextPcCount > chunk->count ||
            e.effAddrCount > chunk->count || e.offset % 8 != 0 ||
            e.offset < sizeof(RawHeader) || e.offset > map->len ||
            bytes > map->len - e.offset) {
            error = "chunk " + std::to_string(ci) + " out of range";
            return nullptr;
        }
        chunk->bind(map->base + e.offset);
        if (const char *why = checkColumns(*chunk)) {
            error = "chunk " + std::to_string(ci) + ": " + why;
            return nullptr;
        }
        chunk->backing = map;
        payload_bytes += bytes;
        parts.chunks.push_back(std::move(chunk));
    }

    if (info) {
        info->version = hdr.version;
        info->records = hdr.records;
        info->halted = hdr.halted != 0;
        info->imageDigest = hdr.imageDigest;
        info->key = key;
        info->fileBytes = hdr.fileBytes;
        info->payloadBytes = payload_bytes;
    }
    error.clear();
    return InstTrace::fromParts(std::move(parts));
}

} // namespace func
} // namespace dscalar
