/**
 * @file
 * dsrun — command-line driver: assemble a .s file (or pick a
 * registered workload) and run it functionally or on any of the
 * timing systems. One-shot front end over driver::RunRequest — every
 * serialized RunRequest key is also a flag, `--key-name=value`
 * (underscores to dashes; the usage text lists them from
 * driver::runRequestKeys()), so a dsrun invocation, a dsfuzz repro
 * file, and a dsserve wire request can describe the same run.
 *
 * Usage:
 *   dsrun [options] [run keys] <program.s | workload-name>
 *
 * Options that are not run keys:
 *   --system=func|perfect|traditional|datascalar   (default func)
 *   --ring / --no-skip / --bshr-hard / --profile
 *                      shorthands for --interconnect=ring,
 *                      --event-driven=0, --bshr-hard=1 and --profile=1
 *   --jobs=N           sweep worker threads, 0..256 (default 1;
 *                      0 = all cores); each simulation runs on one
 *                      thread
 *   --stats            print the full statistics dump
 *   --stats-json=FILE  write run metadata + every stat as JSON
 *                      (schema: docs/OBSERVABILITY.md). FILE "-"
 *                      writes the document to stdout and reroutes
 *                      all human output to stderr, so the result
 *                      pipes cleanly into jq and friends.
 *   --trace            stream protocol events to stderr
 *   --sweep            run the Figure 7 sweep over the timing
 *                      workloads instead of one program; every point
 *                      takes the run keys, and the figure sets its
 *                      system and node count. --system, a program,
 *                      and flags that only shape one run's output
 *                      (--stats, --stats-json, --sample-interval,
 *                      --profile, --perfetto, --trace) are usage
 *                      errors here.
 *   --list             list registered workloads
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "common/kv.hh"
#include "common/thread_pool.hh"
#include "driver/driver.hh"
#include "func/func_sim.hh"
#include "obs/span.hh"
#include "prog/asm_parser.hh"
#include "workloads/workloads.hh"

using namespace dscalar;

namespace {

/** --jobs: the sweep's worker count, in the range dsserve's --jobs
 *  takes. */
constexpr common::kv::Key kJobsFlag[] = {
    {"jobs",
     [](void *o) { return common::kv::Ref(*static_cast<unsigned *>(o)); },
     "sweep worker threads", common::kWorkerCountRange}};

int
usage()
{
    std::fprintf(
        stderr,
        "usage: dsrun [--system=func|perfect|traditional|datascalar]"
        "\n             [--stats] [--stats-json=FILE|-] [--trace]"
        "\n             [--ring] [--no-skip] [--bshr-hard] [--profile]"
        "\n             [run keys] <program.s | workload-name>\n"
        "       dsrun --sweep [--jobs=N] [run keys]\n"
        "       dsrun --list\n"
        "run keys (--key-name=value):\n");
    common::kv::printFlags(std::cerr, driver::runRequestKeys());
    return 2;
}

/** The --profile human summary: the request's span tree (closed
 *  spans, indented by nesting) and the run loop's phase attribution
 *  with percentages of the phase total. */
void
printProfileSummary(std::FILE *out, const obs::SpanRecorder &rec)
{
    std::fprintf(out, "-- wall-clock profile\n");
    std::fprintf(out, "request spans:\n");
    for (const auto &span : rec.spans()) {
        if (span.open)
            continue;
        std::fprintf(out, "  %*s%-20s %10llu us\n", span.depth * 2, "",
                     span.name,
                     (unsigned long long)(span.durNs / 1000));
    }
    if (rec.phaseCount() == 0)
        return;
    std::uint64_t total_ns = rec.phaseTotalNs();
    std::fprintf(out, "run-loop phases:\n");
    for (unsigned i = 0; i < rec.phaseCount(); ++i) {
        double pct = total_ns
                         ? 100.0 * static_cast<double>(rec.phaseNs(i)) /
                               static_cast<double>(total_ns)
                         : 0.0;
        std::fprintf(out, "  %-22s %10llu us  %5.1f%%\n",
                     rec.phaseName(i),
                     (unsigned long long)rec.phaseUs(i), pct);
    }
    std::fprintf(out, "  %-22s %10llu us  100.0%%\n", "phase total",
                 (unsigned long long)(total_ns / 1000));
}

} // namespace

int
main(int argc, char **argv)
{
    driver::RunRequest req;
    std::string system = "func";
    std::string statsJsonPath;
    std::string target;
    unsigned jobs = 1;
    bool stats = false;
    bool sweep = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--list") {
            for (const auto &w : workloads::allWorkloads())
                std::printf("%-12s %-9s %s\n", w.name, w.spec,
                            w.desc);
            return 0;
        } else if (arg == "--trace") {
            req.traceToStderr = true;
        } else if (arg == "--stats") {
            stats = true;
        } else if (arg == "--sweep") {
            sweep = true;
        } else if (arg == "--ring") {
            req.config.interconnect = core::InterconnectKind::Ring;
        } else if (arg == "--no-skip") {
            req.config.eventDriven = false;
        } else if (arg == "--bshr-hard") {
            req.config.bshrHardCapacity = true;
        } else if (arg == "--profile") {
            req.profile = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::string key, value;
            if (!common::kv::argToKey(arg, key, value))
                return usage();
            if (key == "system") {
                system = value;
                continue;
            }
            if (key == "jobs") {
                std::string error;
                if (!common::kv::applyKey(kJobsFlag, &jobs, key, value,
                                          error)) {
                    std::fprintf(stderr, "dsrun: %s\n", error.c_str());
                    return usage();
                }
                continue;
            }
            if (key == "stats_json") {
                statsJsonPath = value;
                continue;
            }
            // Everything else is a serialized RunRequest key.
            std::string error;
            if (!driver::applyRunRequestKey(req, key, value, error)) {
                std::fprintf(stderr, "dsrun: %s\n", error.c_str());
                return usage();
            }
        } else {
            target = arg;
        }
    }

    if (sweep) {
        if (!target.empty() || system != "func" || stats ||
            !statsJsonPath.empty() || req.sampleInterval ||
            req.profile || !req.perfettoPath.empty() ||
            req.traceToStderr)
            return usage();
        driver::finalizeRunRequest(req);
        if (req.config.maxInsts == 0)
            req.config.maxInsts = 100'000;
        std::string error;
        stats::Table table = driver::fig7IpcTable(
            workloads::timingWorkloadNames(), req, jobs, &error);
        if (!error.empty()) {
            std::fprintf(stderr, "dsrun: %s\n", error.c_str());
            return 2;
        }
        table.print(std::cout);
        return 0;
    }
    if (target.empty())
        return usage();

    driver::finalizeRunRequest(req);
    req.workload = target;
    if (!workloads::lookupWorkload(target)) {
        // Assemble a local .s file; fatal on parse errors, exactly
        // like the registry build path.
        req.program = std::make_shared<const prog::Program>(
            prog::assembleFile(target));
    }

    if (system == "func") {
        prog::Program program =
            req.program ? *req.program
                        : workloads::findWorkload(target).build(
                              req.scale);
        func::FuncSim sim(program);
        sim.run(req.config.maxInsts ? req.config.maxInsts
                                    : ~static_cast<InstSeq>(0));
        std::printf("%s", sim.output().c_str());
        std::printf("-- %llu instructions, halted=%d\n",
                    (unsigned long long)sim.retired(),
                    sim.halted() ? 1 : 0);
        return 0;
    }

    std::optional<driver::SystemKind> kind =
        driver::parseSystemKind(system);
    if (!kind)
        return usage();
    req.system = *kind;
    req.flightRecorder = true;

    // The "-" convention: when stdout carries a machine payload
    // (stats JSON or a streamed Perfetto trace), every human line —
    // program output, dumps, summaries — moves to stderr.
    bool stdout_is_payload =
        statsJsonPath == "-" || req.perfettoPath == "-";
    std::FILE *human = stdout_is_payload ? stderr : stdout;

    obs::SpanRecorder rec;
    if (req.profile)
        req.spans = &rec;

    driver::RunResponse resp = driver::runOne(req);
    if (!resp.ok()) {
        std::fprintf(stderr, "dsrun: %s\n", resp.error.c_str());
        return 2;
    }
    std::fprintf(human, "%s", resp.output.c_str());
    if (stats)
        resp.result.stats->dump(stdout_is_payload ? std::cerr
                                                  : std::cout);

    if (statsJsonPath == "-") {
        std::cout << resp.statsJson();
    } else if (!statsJsonPath.empty()) {
        std::ofstream js(statsJsonPath);
        if (!js) {
            std::fprintf(stderr, "dsrun: cannot write %s\n",
                         statsJsonPath.c_str());
            return 2;
        }
        js << resp.statsJson();
    }

    // Faults and hard BSHR capacity break the exactly-once delivery
    // the drained invariant rests on; residue there is expected, not
    // a protocol bug.
    if (req.system == driver::SystemKind::DataScalar &&
        !resp.drained && !req.config.fault.enabled() &&
        !req.config.bshrHardCapacity)
        std::fprintf(stderr, "warning: protocol not drained\n");

    if (req.profile)
        printProfileSummary(human, rec);

    std::fprintf(human,
                 "-- %s: %llu instructions, %llu cycles, IPC %.3f\n",
                 system.c_str(),
                 (unsigned long long)resp.result.instructions,
                 (unsigned long long)resp.result.cycles,
                 resp.result.ipc);
    return 0;
}
