/**
 * @file
 * Versioned on-disk format for func::InstTrace — the persistent trace
 * store.
 *
 * A trace file is one fixed little-endian header followed by a
 * payload: the workload key string, the captured syscall output, the
 * output watermarks, every 4096-record chunk's column block, and a
 * chunk directory. Each block is stored exactly as it sits in memory
 * (the compact layout of func/inst_trace.hh: raw words, the
 * non-sequential bitmask, the sparse nextPc and effAddr columns) at
 * an 8-byte-aligned offset; its directory entry holds the block's
 * offset, the chunk's first pc and the two sparse column lengths.
 *
 * loadTraceFile() mmaps the file read-only and *borrows* every block
 * straight out of the mapping (InstTrace::Chunk::backing keeps it
 * alive), so loading a multi-GB trace never copies a record. Before
 * trusting a byte it checks magic, format version, the program's
 * image digest, the size, and a word-wide four-lane FNV-1a checksum
 * over the whole file; before borrowing a chunk it checks that the
 * bitmask's popcount and the count of memory-op words match the
 * sparse column lengths and that every word decodes, so no file can
 * make a replay read past a column or abort in isa::decode().
 *
 * Writes are atomic: the file is assembled next to its final path as
 * `<path>.tmp.<pid>.<n>` and rename()d into place, so concurrent
 * writers racing the same key publish one complete winner and
 * readers never observe a torn file.
 */

#ifndef DSCALAR_FUNC_TRACE_FILE_HH
#define DSCALAR_FUNC_TRACE_FILE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "func/inst_trace.hh"

namespace dscalar {
namespace func {

/** Current trace file format version (header field). */
constexpr std::uint32_t kTraceFileVersion = 2;

/** Header summary of a loaded file, for benches and tests. */
struct TraceFileInfo
{
    std::uint32_t version = 0;
    std::uint64_t records = 0;
    bool halted = false;
    std::uint64_t imageDigest = 0;
    std::string key;
    std::uint64_t fileBytes = 0;    ///< total file size
    std::uint64_t payloadBytes = 0; ///< stored column bytes only
};

/**
 * Atomically write @p trace to @p path, stamped with @p key (the
 * cache key string) and @p image_digest (prog::Program::imageDigest()
 * of the program it was captured from).
 * @return false with @p error set on any I/O failure; the final path
 * is never left half-written.
 */
bool saveTraceFile(const std::string &path, const InstTrace &trace,
                   const std::string &key, std::uint64_t image_digest,
                   std::string &error);

/**
 * mmap @p path and rebuild its InstTrace, validating magic, version,
 * endianness, total size, file checksum, every chunk's columns, and —
 * unless @p expect_key is empty — that the stored key and image
 * digest match @p expect_key / @p expect_digest exactly.
 *
 * @return the trace, or nullptr with @p error describing the first
 * check that failed (callers fall back to a fresh capture). On
 * success @p info, when non-null, receives the header summary.
 */
std::shared_ptr<const InstTrace>
loadTraceFile(const std::string &path, const std::string &expect_key,
              std::uint64_t expect_digest, std::string &error,
              TraceFileInfo *info = nullptr);

} // namespace func
} // namespace dscalar

#endif // DSCALAR_FUNC_TRACE_FILE_HH
