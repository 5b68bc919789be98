/**
 * @file
 * Self-contained repro files for dsfuzz failures.
 *
 * A repro is everything needed to regenerate and re-check one
 * failing case: the program seed, the (possibly shrunken) generation
 * parameters, the failing TrialConfig, and the mismatch summary that
 * was observed. The format is line-oriented `key = value` text —
 * stable across versions that know the same keys, diffable, and
 * human-editable (docs/FUZZING.md documents every key). Replay with
 * `dsfuzz --repro FILE`.
 */

#ifndef DSCALAR_CHECK_REPRO_HH
#define DSCALAR_CHECK_REPRO_HH

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>

#include "check/oracle.hh"
#include "check/program_gen.hh"
#include "common/kv.hh"

namespace dscalar {
namespace check {

/** One failing fuzz case, as persisted to disk. */
struct ReproCase
{
    std::uint64_t seed = 0;
    GenParams params;
    TrialConfig config;
    std::string mismatch; ///< summary observed when the case was saved
};

/** Every repro-file key, in format order (the schema parseRepro and
 *  formatRepro are generated from). */
std::span<const common::kv::Key> reproKeys();

/** Serialize @p repro in the repro-file format. */
std::string formatRepro(const ReproCase &repro);

/**
 * Parse a repro file.
 * @return false (with @p error set) on unknown keys, malformed or
 * out-of-range values, a missing seed, or a case that breaks a
 * cross-field rule (GenParams::validate, core::validate); unset
 * known keys keep their defaults.
 */
bool parseRepro(std::istream &in, ReproCase &out, std::string &error);

/** Write @p repro to @p path. @return false when the file cannot be
 *  created. */
bool saveRepro(const std::string &path, const ReproCase &repro);

/** Load @p path. @return false with @p error set on any failure. */
bool loadRepro(const std::string &path, ReproCase &out,
               std::string &error);

} // namespace check
} // namespace dscalar

#endif // DSCALAR_CHECK_REPRO_HH
