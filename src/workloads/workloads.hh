/**
 * @file
 * Registry of the synthetic SPEC95 substitutes.
 *
 * SPEC95 binaries are unavailable, so each benchmark the paper uses
 * is replaced by a program written in the simulated ISA whose memory
 * behaviour (load/store mix, stride pattern, footprint, text size)
 * matches the original's role in the paper's experiments. See
 * DESIGN.md for the substitution rationale.
 */

#ifndef DSCALAR_WORKLOADS_WORKLOADS_HH
#define DSCALAR_WORKLOADS_WORKLOADS_HH

#include <string>
#include <vector>

#include "prog/program.hh"

namespace dscalar {
namespace workloads {

/** Builds the program at a given size scale (1 = test size). */
using BuilderFn = prog::Program (*)(unsigned scale);

/** One registered workload. */
struct Workload
{
    const char *name;    ///< our name, e.g.\ "compress_s"
    const char *spec;    ///< SPEC95 benchmark it substitutes
    const char *kind;    ///< "int" or "fp"
    const char *desc;    ///< one-line behaviour summary
    BuilderFn build;
};

/** All 14 substitutes, in the paper's Table 1 order. */
const std::vector<Workload> &allWorkloads();

/** Lookup by name. @return nullptr for an unknown name. */
const Workload *lookupWorkload(const std::string &name);

/** Lookup by name; fatal on unknown names. */
const Workload &findWorkload(const std::string &name);

/** Names of the six benchmarks used in the timing runs (Figure 7). */
const std::vector<std::string> &timingWorkloadNames();

/**
 * Allocate a global array preceded by a staggering pad so that
 * same-index elements of successive arrays do not land in the same
 * set of a direct-mapped cache (array sizes here are multiples of
 * 16 KB, which would otherwise make corresponding elements collide
 * on every access — the classic padding fix real codes apply).
 */
inline Addr
allocArray(prog::Program &p, std::uint64_t bytes)
{
    p.allocGlobal(1312, 8);
    return p.allocGlobal(bytes, 8);
}

// Individual builders ------------------------------------------------
prog::Program buildTomcatv(unsigned scale);
prog::Program buildSwim(unsigned scale);
prog::Program buildHydro2d(unsigned scale);
prog::Program buildMgrid(unsigned scale);
prog::Program buildApplu(unsigned scale);
prog::Program buildM88ksim(unsigned scale);
prog::Program buildTurb3d(unsigned scale);
prog::Program buildGcc(unsigned scale);
prog::Program buildCompress(unsigned scale);
prog::Program buildLi(unsigned scale);
prog::Program buildPerl(unsigned scale);
prog::Program buildFpppp(unsigned scale);
prog::Program buildWave5(unsigned scale);
prog::Program buildGo(unsigned scale);

/**
 * One node's strip of an embarrassingly parallel 2-D relaxation
 * (Section 5.2's hybrid-execution study): node @p node of
 * @p num_nodes smooths its private rows and prints a checksum.
 * With num_nodes == 1 this is the whole (serial) job.
 */
prog::Program buildStencilStrip(unsigned node, unsigned num_nodes,
                                unsigned scale);

} // namespace workloads
} // namespace dscalar

#endif // DSCALAR_WORKLOADS_WORKLOADS_HH
