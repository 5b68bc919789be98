/**
 * @file
 * Line-oriented `key = value` text helpers shared by every format
 * that uses the convention: dsfuzz repro files (check/repro.cc), the
 * driver's RunRequest serialization (driver/run_request.cc), and the
 * dsserve wire protocol (serve/protocol.cc). One implementation of
 * trimming, splitting, and strict numeric parsing keeps the three
 * formats from drifting apart.
 *
 * A serialized type declares its keys once, as a constant array of
 * Key rows; applyKey, parseBlock and format all read that array, and
 * so do the command lines of dsrun and dsserve (argToKey, printFlags),
 * so parse, format, range checks and usage cannot disagree.
 */

#ifndef DSCALAR_COMMON_KV_HH
#define DSCALAR_COMMON_KV_HH

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>

namespace dscalar {
namespace common {
namespace kv {

/** @return @p s without leading/trailing spaces, tabs, CRs, or
 *  newlines (callers pass both getline output and raw lines that
 *  still carry their terminator). */
std::string trim(const std::string &s);

/**
 * Split one `key = value` line (either side of '=' trimmed). A value
 * wrapped in double quotes is unescaped (see emit: `\\` `\"` `\n`
 * `\r` `\t`), so path-valued keys survive leading/trailing
 * whitespace exactly; unquoted values are taken literally.
 * @return false when @p line contains no '=' or carries a malformed
 * quoted value.
 */
bool splitLine(const std::string &line, std::string &key,
               std::string &value);

/**
 * Strict decimal unsigned parse: digits only, overflow-checked.
 * @return false on empty, non-digit, or overflowing input.
 */
bool parseU64(const std::string &value, std::uint64_t &out);

/** Strict double parse (strtod over the whole token).
 *  @return false on empty input or trailing junk. */
bool parseF64(const std::string &value, double &out);

/** Shortest decimal rendering of @p v that parses back to exactly
 *  the same double (so formatted requests round-trip bit-for-bit). */
std::string formatF64(double v);

/** Emit one `key = value` line. String values that trimming or
 *  comment/quote detection would mangle (leading/trailing
 *  whitespace, embedded newlines, a leading '"' or '#') are emitted
 *  quoted and escaped so splitLine restores them byte-exactly;
 *  everything else stays plain text. */
void emit(std::ostream &os, const char *key, std::uint64_t value);
void emit(std::ostream &os, const char *key, const std::string &value);
/** Doubles render via formatF64. */
void emit(std::ostream &os, const char *key, double value);

// -------------------------------------------------------------------
// Key schemas
// -------------------------------------------------------------------

/** What a serialized field holds; Bool takes any unsigned (nonzero =
 *  true), Prob a double in [0, 1], Enum one of Ref::names. */
enum class Kind : std::uint8_t { String, Enum, U32, U64, Bool, Prob };

/** A pointer to one field; the field's type picks the kind. */
struct Ref
{
    Ref(std::string &v) : kind(Kind::String), p(&v) {}
    Ref(unsigned &v) : kind(Kind::U32), p(&v) {}
    /** @p set, if given, becomes true whenever the key is parsed. */
    Ref(std::uint64_t &v, bool *set = nullptr)
        : kind(Kind::U64), p(&v), mark(set) {}
    Ref(bool &v) : kind(Kind::Bool), p(&v) {}
    Ref(double &v) : kind(Kind::Prob), p(&v) {}
    /** @p valueNames lists the enum's names in value order. */
    template <typename E>
        requires std::is_same_v<std::underlying_type_t<E>, std::uint8_t>
    Ref(E &v, std::span<const char *const> valueNames)
        : kind(Kind::Enum), p(&v), names(valueNames) {}

    Kind kind;
    void *p;
    bool *mark = nullptr;
    std::span<const char *const> names;
};

/** Accepted values of a U32 / U64 key (U32 also stops at UINT32_MAX),
 *  or a String key's least length. @p noun names a valid value in
 *  errors ("node count"); nullptr = any unsigned integer. */
struct Range
{
    std::uint64_t min = 0;
    std::uint64_t max = UINT64_MAX;
    const char *noun = nullptr;
};

inline constexpr std::uint8_t kOptional = 1; ///< not formatted at 0 / ""
inline constexpr std::uint8_t kRequired = 2; ///< a block must set it

/** One serialized key. @p field reaches it on the object the caller
 *  passes as `void *`; every row of a schema takes one type. */
struct Key
{
    const char *name;
    Ref (*field)(void *obj);
    const char *doc;
    Range range = {};
    std::uint8_t flags = 0;
};

/** @return the index of @p name in @p names, or -1. */
int nameIndex(std::span<const char *const> names, const std::string &name);

/** Apply one `key = value` pair to @p obj. @return its row, or
 *  nullptr with @p error set ("unknown key ...", "bad value ...
 *  (expected ...)") and @p obj unchanged. */
const Key *applyKey(std::span<const Key> keys, void *obj,
                    const std::string &key, const std::string &value,
                    std::string &error);

/** Split a `--key-name=value` command-line flag into the key
 *  `key_name` (dashes to underscores) and its value ("" without
 *  '='). @return false for an argument not starting with "--". */
bool argToKey(const std::string &arg, std::string &key,
              std::string &value);

/** Print one `  --key-name  doc` usage line per row of @p keys. */
void printFlags(std::ostream &os, std::span<const Key> keys);

/** Apply `key = value` lines, skipping blank and '#' lines; with
 *  @p untilBlank a blank line after a key ends the block. @return the
 *  number of keys applied, or -1 with @p error set (naming the line,
 *  or a missing kRequired key). */
int parseBlock(std::istream &in, std::span<const Key> keys, void *obj,
               bool untilBlank, std::string &error);

/** Emit every key of @p obj in row order (kOptional ones unless 0,
 *  "" or an enum's first name). */
void format(std::ostream &os, std::span<const Key> keys, const void *obj);

} // namespace kv
} // namespace common
} // namespace dscalar

#endif // DSCALAR_COMMON_KV_HH
